"""``control_sim``: the unbatched control path in virtual time.

One publisher container sends a float64 variable and a small reliable event
to four subscriber containers and calls a one-argument function on a server
container, on a :class:`~repro.SimRuntime` at default ``ContainerConfig``.
Each op (one variable sample, one event or one call, in a seeded order) gets
its own virtual window; the next op starts only when the window has run, so
the loop is closed. Per-message cost dominates: encode, frame, reliability
with per-frame ACKs, transport, the simulated network and the kernel.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import Service, SimRuntime
from repro.encoding.types import FLOAT64, UINT32, StructType
from repro.util.ids import reset_uid_counter

import simloop
from counting import CallCounter
from common import (
    Metric, Result, Tally, Wrap, calibrate, check_stream, median, percentile, retransmit_count,
    speed_factor, unwrapped,
)

SUBSCRIBERS = 4
#: Ops in one pass. 1,200 gives the pooled latency p99 twelve samples
#: beyond it; the first WARMUP ops of a pass are checked but not timed.
OPS_PER_PASS = 1200
WARMUP = 30
#: Ops between two host-speed calibrations (see ``common.calibrate``).
CALIBRATE_EVERY = 50
#: Virtual seconds each op may take: a call's round trip is about 1.2 ms.
WINDOW = 0.02
BIND_TIMEOUT = 30.0
KINDS = ("var", "event", "rpc")

VAR = "bench.ctl.var"
EVENT = "bench.ctl.event"
FUNCTION = "bench.ctl.scale"
#: At most 64 bytes on the wire once wrapped: a sequence number and a value.
EVENT_TYPE = StructType("BenchControlEvent", [("seq", UINT32), ("value", FLOAT64)])


def scale(x: float) -> float:
    """The server's function; the caller checks every result against it."""
    return x * 3.0 + 1.0


@dataclass(frozen=True)
class Inputs:
    kinds: List[str]
    values: List[float]


def make_inputs(seed: int, ops: int = OPS_PER_PASS) -> Inputs:
    """A balanced, shuffled op sequence and one value per op."""
    rng = random.Random(seed)
    kinds = [KINDS[i % len(KINDS)] for i in range(ops)]
    rng.shuffle(kinds)
    values = [rng.uniform(-1e3, 1e3) for _ in range(ops)]
    return Inputs(kinds, values)


class Publisher(Service):
    def __init__(self, wrap: Wrap):
        super().__init__("bench-publisher")
        self._wrap = wrap
        self.results: List[tuple] = []  # (op, now, result)

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64)
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)

    def call(self, op: int, arg: float) -> None:
        self.ctx.call(
            FUNCTION,
            (arg,),
            on_result=self._wrap(
                lambda result: self.results.append((op, self.ctx.now(), result))
            ),
        )


class Sink(Service):
    def __init__(self, name: str, wrap: Wrap):
        super().__init__(name)
        self._wrap = wrap
        self.samples: List[tuple] = []  # (now, value)
        self.events: List[tuple] = []  # (now, seq, value)

    def on_start(self) -> None:
        self.ctx.subscribe_variable(VAR, on_sample=self._wrap(self.on_sample))
        self.ctx.subscribe_event(EVENT, self._wrap(self.on_event))

    def on_sample(self, value, timestamp) -> None:
        self.samples.append((self.ctx.now(), value))

    def on_event(self, value, timestamp) -> None:
        self.events.append((self.ctx.now(), value["seq"], value["value"]))


class Server(Service):
    def __init__(self, wrap: Wrap):
        super().__init__("bench-server")
        self._wrap = wrap

    def on_start(self) -> None:
        self.ctx.provide_function(
            FUNCTION, self._wrap(scale), params=[FLOAT64], result=FLOAT64
        )


class Testbed:
    """One runtime with its services, built and bound."""

    def __init__(self, seed: int, wrap: Wrap = unwrapped, subscribers: int = SUBSCRIBERS):
        reset_uid_counter()
        started = time.perf_counter()
        self.subscribers = subscribers
        self.runtime = SimRuntime(seed=seed)
        self.publisher = Publisher(wrap)
        self.runtime.add_container("pub").install_service(self.publisher)
        self.sinks = []
        for i in range(subscribers):
            sink = Sink(f"bench-sink{i}", wrap)
            self.runtime.add_container(f"sub{i}").install_service(sink)
            self.sinks.append(sink)
        self.runtime.add_container("srv").install_service(Server(wrap))
        self.runtime.start()
        self.bound = self.runtime.run_until(self._bound, timeout=BIND_TIMEOUT, poll=0.01)
        self.setup_s = time.perf_counter() - started

    def _bound(self) -> bool:
        runtime = self.runtime
        return (
            all(
                runtime.container(f"sub{i}").directory.providers_of_variable(VAR)
                for i in range(self.subscribers)
            )
            and hasattr(self.publisher, "event")
            and len(self.publisher.event.subscribers) == self.subscribers
            and not self.publisher.ctx.check_required_functions([FUNCTION])
        )

    def unacked(self) -> int:
        links = self.runtime.container("pub").links
        return sum(links.pending_to(f"sub{i}") for i in range(self.subscribers))


@dataclass
class Pass:
    tally: Tally
    #: Processor µs per op and wall seconds, both at the reference speed.
    cpu_us: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    vlat_ms: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    wall_s: float = 0.0
    ops: int = 0
    wire_bytes: int = 0
    datagrams: int = 0
    deliveries: int = 0
    kernel_events: int = 0
    retransmits: int = 0

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return (
            tuple(tuple(self.vlat_ms[k]) for k in KINDS),
            self.wire_bytes,
            self.datagrams,
            self.deliveries,
            self.kernel_events,
            self.retransmits,
            self.tally.failed,
        )


def _run_op(bed: Testbed, op: int, kind: str, value: float, tally: Tally):
    """Issue one op, run its window, check it; returns its virtual latency
    in seconds, or None when it failed."""
    runtime = bed.runtime
    start = runtime.sim.now()
    if kind == "var":
        marks = [len(s.samples) for s in bed.sinks]
        bed.publisher.var.publish(value)
    elif kind == "event":
        marks = [len(s.events) for s in bed.sinks]
        bed.publisher.event.raise_event({"seq": op, "value": value})
    else:
        marks = [len(bed.publisher.results)]
        bed.publisher.call(op, value)
    runtime.run_for(WINDOW)

    tally.attempted += 1
    arrivals = []
    if kind == "rpc":
        got = bed.publisher.results[marks[0]:]
        if len(got) != 1 or got[0][0] != op or got[0][2] != scale(value):
            tally.fail(f"op {op}: call result {got!r}, expected {scale(value)!r}")
            return None
        arrivals.append(got[0][1])
    else:
        for sink, mark in zip(bed.sinks, marks):
            if kind == "var":
                got = sink.samples[mark:]
                ok = len(got) == 1 and got[0][1] == value
            else:
                got = sink.events[mark:]
                ok = len(got) == 1 and got[0][1:] == (op, value)
            if not ok:
                tally.fail(f"op {op}: {sink.name} got {got!r} for {kind} {value!r}")
                return None
            arrivals.append(got[0][0])
        if kind == "event" and bed.unacked():
            tally.fail(f"op {op}: event not acknowledged within its window")
            return None
    return max(arrivals) - start


def run_pass(
    seed: int,
    inputs: Inputs,
    wrap: Wrap = unwrapped,
    on_op: Optional[Callable[[Optional[int]], None]] = None,
    subscribers: int = SUBSCRIBERS,
) -> Pass:
    """Build a testbed, run every op of ``inputs`` once, check everything.

    ``on_op`` (tracing) is told the index of each timed op as it starts and
    None when it ends.
    """
    bed = Testbed(seed, wrap, subscribers)
    tally = Tally()
    result = Pass(tally=tally)
    if not bed.bound:
        tally.attempted += len(inputs.kinds)
        tally.fail("subscriptions never bound", len(inputs.kinds))
        return result
    runtime = bed.runtime
    stats = runtime.network.stats
    thread_time = time.thread_time
    perf = time.perf_counter
    for op in range(WARMUP):
        _run_op(bed, op, inputs.kinds[op], inputs.values[op], tally)
    bytes0, packets0 = stats.emissions.bytes, stats.emissions.packets
    deliveries0 = stats.deliveries.packets
    events0 = runtime.sim.events_executed
    retransmits0 = retransmit_count(runtime)
    calibration = calibrate()
    for block in range(WARMUP, len(inputs.kinds), CALIBRATE_EVERY):
        wall = 0.0
        cpu: List[tuple] = []
        for op in range(block, min(block + CALIBRATE_EVERY, len(inputs.kinds))):
            kind = inputs.kinds[op]
            if on_op is not None:
                on_op(op)
            wall0 = perf()
            cpu0 = thread_time()
            latency = _run_op(bed, op, kind, inputs.values[op], tally)
            cpu1 = thread_time()
            wall += perf() - wall0
            if on_op is not None:
                on_op(None)
            cpu.append((kind, cpu1 - cpu0))
            if latency is not None:
                result.vlat_ms[kind].append(latency * 1e3)
        before, calibration = calibration, calibrate()
        factor = speed_factor(before, calibration)
        result.ops += len(cpu)
        result.wall_s += wall * factor
        for kind, seconds in cpu:
            result.cpu_us[kind].append(seconds * factor * 1e6)
    result.wire_bytes = stats.emissions.bytes - bytes0
    result.datagrams = stats.emissions.packets - packets0
    result.deliveries = stats.deliveries.packets - deliveries0
    result.kernel_events = runtime.sim.events_executed - events0
    result.retransmits = retransmit_count(runtime) - retransmits0
    for i, sink in enumerate(bed.sinks):
        sent = [(op, inputs.values[op]) for op, k in enumerate(inputs.kinds) if k == "event"]
        for problem in check_stream(
            f"sub{i} events", sent, [(seq, value) for _, seq, value in sink.events]
        ):
            tally.fail(problem)
    runtime.stop()
    return result


def summarize(passes: List[Pass], tally: Tally) -> Dict[str, Metric]:
    """The workload's named figures (the end-to-end metrics derive from
    these)."""
    first = passes[0]
    cpu = {k: [v for p in passes for v in p.cpu_us[k]] for k in KINDS}
    pooled = [v for k in KINDS for v in first.vlat_ms[k]]
    ops = first.ops
    report = {
        "failed_ratio": Metric(tally.failed_ratio, "1", tally.attempted),
        "var_cpu_us": Metric(median(cpu["var"]), "us", len(cpu["var"])),
        "event_cpu_us": Metric(median(cpu["event"]), "us", len(cpu["event"])),
        "rpc_cpu_us": Metric(median(cpu["rpc"]), "us", len(cpu["rpc"])),
        "event_vlat_p99_ms": Metric(
            percentile(first.vlat_ms["event"], 99), "ms", len(first.vlat_ms["event"])
        ),
        "rpc_vlat_p99_ms": Metric(
            percentile(first.vlat_ms["rpc"], 99), "ms", len(first.vlat_ms["rpc"])
        ),
        "vlat_p50_ms": Metric(median(pooled), "ms", len(pooled)),
        "vlat_p90_ms": Metric(percentile(pooled, 90), "ms", len(pooled)),
        "vlat_p99_ms": Metric(percentile(pooled, 99), "ms", len(pooled)),
        "wire_bytes_per_op": Metric(first.wire_bytes / ops, "B", ops),
        "datagrams_per_op": Metric(first.datagrams / ops, "1", ops),
        "kernel_events_per_op": Metric(first.kernel_events / ops, "1", ops),
        "ops_per_s": Metric(
            median([p.ops / p.wall_s for p in passes]), "1/s", len(passes)
        ),
    }
    return report


def end_to_end(report: Dict[str, Metric]) -> Dict[str, Metric]:
    """The contract metrics in this workload's terms: an op is one variable
    sample, event or call; latency is virtual time to the last receiver."""
    cpu = [report[f"{k}_cpu_us"] for k in KINDS]
    return {
        "setup_s": report["setup_s"],
        "cpu_us_per_op": Metric(
            sum(m.value for m in cpu) / len(cpu), "us", sum(m.samples for m in cpu)
        ),
        "ops_per_s": report["ops_per_s"],
        "latency_p50_ms": report["vlat_p50_ms"],
        "latency_p90_ms": report["vlat_p90_ms"],
        "datagrams_per_op": report["datagrams_per_op"],
    }


#: Ops in the one-subscriber counting pass that mirrors the setting of the
#: cProfile baseline recorded in ROADMAP.md (236 calls per reliable event,
#: 505 per call, one subscriber).
BASELINE_OPS = 300


def _calls_by_kind(counter: CallCounter, inputs: Inputs, label: str) -> Dict[str, Metric]:
    out = {}
    for kind in KINDS:
        ops = [op for op in range(WARMUP, len(inputs.kinds)) if inputs.kinds[op] == kind]
        calls = sum(counter.by_op[op] for op in ops)
        out[f"{kind}.calls_per_op{label}"] = Metric(calls / len(ops), "count", len(ops))
    return out


def run(seed: int, seconds: float, traced: bool) -> Result:
    if not traced:
        return simloop.run_untraced(_THIS, seed, seconds)
    result, counter, _ = simloop.run_traced(_THIS, seed, seconds)
    result.add_layers(call_counts(seed, counter, result.tally))
    return result


def call_counts(seed: int, counter: CallCounter, tally: Tally) -> Dict[str, Metric]:
    """Figures only this workload has: calls per op by kind, at four
    subscribers (from the traced run's counting pass) and, for comparison
    with the baseline, at one. The extra passes are checked into ``tally``."""
    out = _calls_by_kind(counter, make_inputs(seed), "")
    small = make_inputs(seed, WARMUP + BASELINE_OPS)
    one = CallCounter()
    with one:
        p = run_pass(seed, small, on_op=one.on_op, subscribers=1)
    tally.absorb(p.tally)
    out.update(_calls_by_kind(one, small, ".1sub"))
    for subscribers, label in ((SUBSCRIBERS, ""), (1, ".1sub")):
        out[f"idle.calls_per_window{label}"] = Metric(
            _idle_calls(seed, small, subscribers, tally), "count", IDLE_WINDOWS
        )
    return out


#: Empty op windows counted to measure the background (heartbeats,
#: housekeeping, kernel bookkeeping) that every op window also contains.
IDLE_WINDOWS = 50


def _idle_calls(seed: int, inputs: Inputs, subscribers: int, tally: Tally) -> float:
    """Calls per empty window, after the warm-up ops (checked into
    ``tally``) have bound everything."""
    bed = Testbed(seed, subscribers=subscribers)
    for op in range(WARMUP):
        _run_op(bed, op, inputs.kinds[op], inputs.values[op], tally)
    counter = CallCounter()
    with counter:
        for window in range(IDLE_WINDOWS):
            counter.on_op(window)
            bed.runtime.run_for(WINDOW)
            counter.on_op(None)
    bed.runtime.stop()
    return sum(counter.by_op.values()) / IDLE_WINDOWS


_THIS = sys.modules[__name__]
