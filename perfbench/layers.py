"""Per-layer spans for the traced run, installed from the benchmark's files.

:class:`Tracer` replaces the public entry points of each layer with timing
wrappers while it is installed and puts the originals back when it is
removed; nothing under ``src/`` changes. A span records its layer, start,
end, parent span and the op window it falls in. A layer's self time is the
span's duration minus the part of it that its child spans cover.

Layers are named after the code that runs: a function defined in
``src/repro/<package>/<module>.py`` belongs to ``<package>``, or to one of
the sub-layers in :data:`SUBLAYERS`; code outside ``src/repro`` (the
benchmark's own callbacks) is :data:`HANDLERS`. Besides the entry points, the
callbacks the simulation kernel fires and the tasks containers submit to
their schedulers are wrapped, so timer-driven work (chunk pacing,
retransmission, network deliveries, heartbeats) is charged to the layer that
scheduled it rather than to the kernel.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import Metric, unwrapped

SRC_MARK = "/src/repro/"
#: The layer of code outside ``src/repro``: the benchmark's own callbacks.
HANDLERS = "handlers"

#: Modules that are layers of their own in the PEPt stack (paper Fig. 4).
SUBLAYERS = {
    "primitives/filetransfer": "primitives.filetransfer",
    "protocol/frames": "protocol.frames",
    "protocol/reliability": "protocol.reliability",
    "protocol/batching": "protocol.batching",
    "container/links": "container.links",
    "container/egress": "container.egress",
    "transport/udp_async": "transport.udp_async",
}

#: Spans kept in memory (and written out) at most; later spans still count
#: towards self time.
MAX_SPANS = 200_000


def layer_of_file(filename: str) -> str:
    """The layer a code object belongs to, from its file name."""
    path = filename.replace("\\", "/")
    at = path.rfind(SRC_MARK)
    if at < 0:
        return HANDLERS
    rel = path[at + len(SRC_MARK):]
    if rel.endswith(".py"):
        rel = rel[:-3]
    if "/" not in rel:
        return "repro"
    return SUBLAYERS.get(rel, rel.split("/", 1)[0])


def _code_of(fn) -> Optional[object]:
    for candidate in (fn, getattr(fn, "__func__", None), getattr(fn, "func", None)):
        code = getattr(candidate, "__code__", None)
        if code is not None:
            return code
    return None


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.op: Optional[int] = None
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.window_ns = 0
        self.spans: List[tuple] = []
        #: Whether finished spans are appended to :attr:`spans`.
        self.record_spans = True
        self.layers: List[str] = []
        self._layer_index: Dict[str, int] = {}
        self._code_layer: Dict[object, str] = {}
        self._local = threading.local()
        self._next_id = 0
        self._window_start = 0
        self._saved: List[tuple] = []
        #: Async UDP transports opened while installed (their counters are
        #: read after the run).
        self.udp_transports: List[object] = []

    # -- op windows -----------------------------------------------------------
    def on_op(self, op: Optional[int]) -> None:
        """Open (``op`` is an index) or close (None) an op window."""
        now = time.perf_counter_ns()
        if op is None:
            self.window_ns += now - self._window_start
            self.op = None
        else:
            self._window_start = now
            self.op = op

    # -- spans ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _index(self, layer: str) -> int:
        index = self._layer_index.get(layer)
        if index is None:
            index = self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        return index

    def layer_of(self, fn) -> str:
        code = _code_of(fn)
        if code is None:
            return HANDLERS
        layer = self._code_layer.get(code)
        if layer is None:
            layer = self._code_layer[code] = layer_of_file(code.co_filename)
        return layer

    def wrap(self, fn: Callable, layer: Optional[str] = None, count: Optional[str] = None):
        """``fn`` wrapped in a span of ``layer`` (default: the layer of the
        code ``fn`` runs), also counting calls under ``count``."""
        if layer is None:
            layer = self.layer_of(fn)
        index = self._index(layer)
        tracer = self
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        counts = self.counts

        def spanned(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            if count is not None:
                counts[count] += 1
            stack = tracer._stack()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0, span_id]  # child ns, id
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if tracer.record_spans and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (span_id, index, start, end,
                         parent[1] if parent is not None else -1, op)
                    )

        return spanned

    # -- installation -------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _method(self, owner, name: str, layer: Optional[str] = None,
                count: Optional[str] = None) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = self.wrap(original.__func__, layer, count)
            self._patch(owner, name, classmethod(wrapped))
        else:
            self._patch(owner, name, self.wrap(original, layer, count))

    def _receiver_arg(self, owner, name: str, layer: str, note=None) -> None:
        """Wrap the receiver callback passed as the last argument."""
        original = owner.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def opening(obj, *args):
            if note is not None:
                note(obj)
            return original(obj, *args[:-1], tracer.wrap(args[-1], layer))

        self._patch(owner, name, opening)

    def _callback_arg(self, owner, name: str, count: Optional[str] = None) -> None:
        """Wrap the callable passed as the last argument in a span of the
        layer that defined it."""
        original = owner.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def scheduling(obj, *args):
            if count is not None and tracer.op is not None:
                tracer.counts[count] += 1
            return original(obj, *args[:-1], tracer.wrap(args[-1]))

        self._patch(owner, name, scheduling)

    def install(self) -> "Tracer":
        from repro.container.container import ServiceContainer
        from repro.container.egress import EgressShaper
        from repro.container.links import ReliableLinks
        from repro.encoding.binary import BinaryCodec
        from repro.encoding.compiled import CompiledCodec
        from repro.primitives.events import EventManager, EventPublication
        from repro.primitives.filetransfer import FileTransferManager
        from repro.primitives.invocation import InvocationManager
        from repro.primitives.variables import VariableManager, VariablePublication
        from repro.protocol.frames import Frame
        from repro.protocol.reliability import ReliableReceiver, ReliableSender
        from repro.sim.kernel import Simulator
        from repro.simnet.network import SimNic
        from repro.transport.frame_transport import FrameTransport
        from repro.transport.sim import SimTransport
        from repro.transport.udp_async import AsyncUdpTransport

        method = self._method
        method(VariablePublication, "publish")
        method(EventPublication, "raise_event")
        method(InvocationManager, "call")
        for name in ("on_sample_frame", "on_initial_request", "on_initial_response"):
            method(VariableManager, name)
        for name in ("on_event_frame", "on_subscribe_frame"):
            method(EventManager, name)
        for name in ("on_request_frame", "on_response_frame"):
            method(InvocationManager, name)
        for name in ("publish", "subscribe", "on_announce_frame", "on_subscribe_frame",
                     "on_chunk_frame", "on_status_request_frame",
                     "on_completion_ack_frame", "on_completion_nack_frame"):
            method(FileTransferManager, name)
        for codec in (BinaryCodec, CompiledCodec):
            method(codec, "encode", count="encoding.encodes")
            method(codec, "decode", count="encoding.decodes")
            method(codec, "decode_prefix", count="encoding.decodes")
        method(Frame, "encode", count="protocol.frames.encodes")
        method(Frame, "encode_views", count="protocol.frames.encodes")
        method(Frame, "decode", count="protocol.frames.decodes")
        method(ReliableSender, "send", count="protocol.reliability.sends")
        method(ReliableSender, "on_ack_frame", count="protocol.reliability.acks")
        method(ReliableSender, "on_nack_frame")
        method(ReliableSender, "poll")
        method(ReliableReceiver, "on_frame")
        method(ReliableReceiver, "flush_acks")
        method(ReliableLinks, "send")
        method(ReliableLinks, "on_frame")
        self._egress_send(EgressShaper)
        method(EgressShaper, "flush")
        method(FrameTransport, "send", count="transport.datagrams")
        self._receiver_arg(FrameTransport, "open", "container.dispatch")
        self._receiver_arg(SimTransport, "open", "transport")
        self._receiver_arg(
            AsyncUdpTransport, "open", "transport", note=self.udp_transports.append
        )
        method(AsyncUdpTransport, "send_bytes")
        method(AsyncUdpTransport, "send_buffers")
        method(SimNic, "send")
        self._receiver_arg(SimNic, "set_receiver", "transport")
        method(Simulator, "run")
        self._callback_arg(Simulator, "schedule_at")
        self._callback_arg(Simulator, "schedule_fire")
        self._callback_arg(ServiceContainer, "submit", count="sched.tasks")
        return self

    def _egress_send(self, owner) -> None:
        """EgressShaper.send, also counting frames by kind."""
        spanned = self.wrap(owner.__dict__["send"], count="container.egress.frames")
        tracer = self

        @functools.wraps(spanned)
        def send(shaper, destination, frame):
            if tracer.op is not None:
                tracer.counts["egress.kind." + frame.kind.name] += 1
            return spanned(shaper, destination, frame)

        self._patch(owner, "send", send)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------------
    def metrics(self, ops: float, samples: int) -> Dict[str, Metric]:
        """Per-op figures of the traced windows.

        Self µs per op for every layer seen, plus ``unattributed``: window
        time no span covered, so that the self times sum to
        ``trace.window_us_per_op``. Counts are per op; ratios have their
        base as the sample count.
        """
        out = {
            f"{layer}.self_us_per_op": Metric(ns / 1e3 / ops, "us", samples)
            for layer, ns in sorted(self.self_ns.items())
        }
        covered = sum(self.self_ns.values())
        out["unattributed.self_us_per_op"] = Metric(
            (self.window_ns - covered) / 1e3 / ops, "us", samples
        )
        out["trace.window_us_per_op"] = Metric(self.window_ns / 1e3 / ops, "us", samples)
        out["services.handler_us_per_op"] = Metric(
            self.self_ns.get(HANDLERS, 0) / 1e3 / ops, "us", samples
        )
        counts = self.counts
        for name, key in (
            ("encoding.encodes_per_op", "encoding.encodes"),
            ("encoding.decodes_per_op", "encoding.decodes"),
            ("protocol.frames.encodes_per_op", "protocol.frames.encodes"),
            ("protocol.frames.decodes_per_op", "protocol.frames.decodes"),
            ("transport.datagrams_per_op", "transport.datagrams"),
            ("sched.tasks_per_op", "sched.tasks"),
        ):
            out[name] = Metric(counts[key] / ops, "count", samples)
        sends = counts["protocol.reliability.sends"]
        out["protocol.reliability.acks_per_event"] = Metric(
            counts["protocol.reliability.acks"] / sends if sends else 0.0, "count", sends
        )
        datagrams = counts["transport.datagrams"]
        out["container.egress.frames_per_datagram"] = Metric(
            counts["container.egress.frames"] / datagrams if datagrams else 0.0,
            "count",
            datagrams,
        )
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "layers": self.layers,
            "span_fields": ["id", "layer", "start_ns", "end_ns", "parent", "op"],
            "spans_recorded": self._next_id,
            "spans": self.spans,
        }
        with open(path, "w") as out:
            json.dump(doc, out, separators=(",", ":"))


def alternate(tracer: Tracer, run_one: Callable, min_each: int, seconds: float):
    """Untraced and traced runs of ``run_one(wrap, on_op)``, alternating
    until ``seconds`` are up and there are at least ``min_each`` of each, so
    the tracing overhead is a paired ratio. Spans are recorded for the first
    traced run only. Returns the untraced and the traced results."""
    deadline = time.perf_counter() + seconds
    untraced: list = []
    traced: list = []
    while len(traced) < min_each or time.perf_counter() < deadline:
        untraced.append(run_one(unwrapped, None))
        with tracer:
            traced.append(run_one(tracer.wrap, tracer.on_op))
        tracer.record_spans = False
    return untraced, traced


def overhead_ratio(untraced_s_per_op: float, traced_s_per_op: float, samples: int) -> Metric:
    """Traced cost per op over untraced cost per op."""
    return Metric(traced_s_per_op / untraced_s_per_op, "1", samples)
