"""``telemetry_async``: the batched wall-clock plane over loopback UDP.

An :class:`~repro.AsyncRuntime` hosts one publisher and two subscriber
containers on its single event loop, with datagram batching, ACK coalescing
and the compiled codec switched on. The benchmark's main thread is the only
generator; it hands work to the loop with ``runtime.reactor.post``.

- Phase A is a closed loop: variable samples are posted in bursts whenever
  the undelivered backlog is small, so the plane runs at the rate it can
  sustain. Its deliveries per second are the throughput.
- Phase B is an open loop: reliable events are due at a fixed rate below
  that throughput. Each is timed from when it was due, and the generator
  records how late it posted it.
- A raw-socket ceiling (plain ``sendto``/``recvfrom_into`` of 64-byte
  datagrams through loopback) is measured in the same run, just before
  phase A, so the ceiling fraction is a paired ratio.

Real sockets, the async transport, the batcher and the event loop do the
work; the simulation kernel does none.
"""

from __future__ import annotations

import gc
import random
import socket
import statistics
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro import AsyncRuntime, Service
from repro.encoding.types import FLOAT64, UINT32, StructType

from common import (
    Metric, Result, Tally, Wrap, calibrate, check_stream, median, percentile,
    retransmit_count, setup_seconds, speed_factor, unwrapped,
)
from layers import Tracer, alternate, overhead_ratio

SUBSCRIBERS = 2
#: The batched plane of ``benchmarks/bench_netperf.py``.
PLANE = dict(
    codec="compiled",
    batching_enabled=True,
    ack_coalesce_delay=0.002,
    ack_coalesce_max_pending=64,
    announce_interval=0.2,
    heartbeat_interval=0.5,
    liveness_timeout=5.0,
    housekeeping_interval=0.5,
)
BIND_TIMEOUT = 10.0
#: Closed loop: samples per post, and the undelivered backlog (deliveries)
#: above which the generator waits. Small enough that loopback socket
#: buffers never overflow, so no best-effort sample is lost.
BURST = 50
MAX_LAG = 400
POLL_S = 0.0005
#: Open loop: events due per second, well below the throughput phase A
#: measures on two cores; the warm-up whose samples are dropped; events are
#: handed to the loop CHUNK_S seconds at a time, LEAD_S before they are due.
EVENT_RATE = 1000.0
WARMUP_S = 0.25
CHUNK_S = 0.05
LEAD_S = 0.02
RAW_DATAGRAMS = 20_000
#: Seconds of each phase per round; a run repeats rounds until its time
#: is up, with a fresh runtime each round.
PHASE_A_S = 1.5
PHASE_B_S = 1.0
SLICES = 6
DRAIN_TIMEOUT = 10.0

VAR = "bench.tel.var"
EVENT = "bench.tel.event"
EVENT_TYPE = StructType("BenchTelemetryEvent", [("seq", UINT32), ("value", FLOAT64)])

_TS = struct.Struct("d")


def make_values(seed: int, count: int) -> List[float]:
    """Distinct seeded sample values: the integer part is the index."""
    rng = random.Random(seed)
    return [i + rng.random() * 0.5 for i in range(count)]


class Publisher(Service):
    def __init__(self):
        super().__init__("bench-publisher")

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64)
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)


class Sink(Service):
    def __init__(self, name: str, wrap: Wrap):
        super().__init__(name)
        self._wrap = wrap
        self.samples: List[float] = []
        self.events: List[tuple] = []  # (monotonic, seq, value)

    def on_start(self) -> None:
        self.ctx.subscribe_variable(VAR, on_sample=self._wrap(self.on_sample))
        self.ctx.subscribe_event(EVENT, self._wrap(self.on_event))

    def on_sample(self, value, timestamp) -> None:
        self.samples.append(value)

    def on_event(self, value, timestamp) -> None:
        self.events.append((time.monotonic(), value["seq"], value["value"]))


class Testbed:
    def __init__(self, wrap: Wrap = unwrapped):
        started = time.perf_counter()
        self.runtime = AsyncRuntime()
        self.publisher = Publisher()
        self.runtime.add_container("pub", **PLANE).install_service(self.publisher)
        self.sinks = []
        for i in range(SUBSCRIBERS):
            sink = Sink(f"bench-sink{i}", wrap)
            self.runtime.add_container(f"sub{i}", **PLANE).install_service(sink)
            self.sinks.append(sink)
        self.runtime.start()
        self.bound = self.runtime.run_until(self._bound, timeout=BIND_TIMEOUT, poll=0.001)
        self.setup_s = time.perf_counter() - started

    def _bound(self) -> bool:
        return (
            all(
                self.runtime.container(f"sub{i}").directory.providers_of_variable(VAR)
                for i in range(SUBSCRIBERS)
            )
            and hasattr(self.publisher, "event")
            and len(self.publisher.event.subscribers) == SUBSCRIBERS
        )

    def datagrams_sent(self) -> int:
        """Datagrams the batched egress stages have put on the wire."""
        total = 0
        for container in self.runtime.containers.values():
            batcher = container.egress.batcher
            total += batcher.batches_sent + batcher.single_flushes + batcher.oversize_bypasses
        return total

    def loop_thread_time(self) -> float:
        return self.runtime.on_reactor(time.thread_time)

    def stop(self) -> None:
        self.runtime.stop()


def raw_ceiling(count: int = RAW_DATAGRAMS) -> float:
    """Datagrams per second one plain sender thread pushes through loopback
    to one receiver thread, no middleware."""
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(0.3)
        destination = rx.getsockname()
        received = []

        def drain() -> None:
            buf = bytearray(2048)
            while True:
                try:
                    rx.recvfrom_into(buf)
                except socket.timeout:
                    return
                received.append(time.perf_counter())

        drainer = threading.Thread(target=drain)
        drainer.start()
        pad = b"x" * 56
        send = tx.sendto
        pack = _TS.pack
        t0 = time.perf_counter()
        for _ in range(count):
            send(pack(time.perf_counter()) + pad, destination)
        drainer.join(timeout=30.0)
        if drainer.is_alive() or not received:
            raise RuntimeError("raw-socket receiver did not finish")
        return len(received) / (received[-1] - t0)
    finally:
        tx.close()
        rx.close()


@dataclass
class Round:
    tally: Tally
    ceiling_per_s: float = 0.0
    #: Phase A slices: deliveries per second and event-loop processor µs
    #: per delivery, both at the reference speed.
    rates: List[float] = field(default_factory=list)
    cpu_us: List[float] = field(default_factory=list)
    #: The same rates as measured, for the ratio to the raw-socket ceiling.
    raw_rates: List[float] = field(default_factory=list)
    datagrams_per_delivery: float = 0.0
    loop_busy: float = 0.0
    latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    loop_wait_ms: List[float] = field(default_factory=list)
    #: Deliveries inside the op windows (phase A samples, phase B events).
    deliveries: int = 0
    retransmits: int = 0


def _phase_a(bed: Testbed, values: List[float], result: Round, on_op) -> int:
    """Closed-loop variable fan-out; returns samples published."""
    sinks = bed.sinks
    publish = bed.publisher.var.publish
    post = bed.runtime.reactor.post
    sent = 0

    def delivered() -> int:
        return sum(len(s.samples) for s in sinks)

    def post_burst(start: int) -> None:
        def run() -> None:
            for value in values[start:start + BURST]:
                publish(value)

        post(run)

    def generate(until: float) -> None:
        nonlocal sent
        while time.perf_counter() < until:
            if sent * SUBSCRIBERS - delivered() < MAX_LAG and sent + BURST <= len(values):
                post_burst(sent)
                sent += BURST
            else:
                time.sleep(POLL_S)

    generate(time.perf_counter() + WARMUP_S)
    if on_op is not None:
        on_op(0)
    datagrams0 = bed.datagrams_sent()
    deliveries0 = delivered()
    loop_busy = wall_total = 0.0
    # The loop thread is the bottleneck, so the host's speed is measured
    # there: its core can be slower than the generator's.
    calibration = bed.runtime.on_reactor(calibrate)
    for _ in range(SLICES):
        loop0 = bed.loop_thread_time()
        wall0 = time.perf_counter()
        count0 = delivered()
        generate(wall0 + PHASE_A_S / SLICES)
        count1 = delivered()
        wall1 = time.perf_counter()
        loop1 = bed.loop_thread_time()
        before, calibration = calibration, bed.runtime.on_reactor(calibrate)
        factor = speed_factor(before, calibration)
        count = max(1, count1 - count0)
        result.raw_rates.append(count / (wall1 - wall0))
        result.rates.append(count / ((wall1 - wall0) * factor))
        result.cpu_us.append((loop1 - loop0) * factor * 1e6 / count)
        loop_busy += loop1 - loop0
        wall_total += wall1 - wall0
    deliveries = delivered() - deliveries0
    datagrams = bed.datagrams_sent() - datagrams0
    if on_op is not None:
        on_op(None)
    result.deliveries += deliveries
    result.datagrams_per_delivery = datagrams / max(1, deliveries)
    result.loop_busy = loop_busy / wall_total
    return sent


def _phase_b(bed: Testbed, seed: int, result: Round, on_op) -> List[tuple]:
    """Open-loop reliable events; returns the (seq, value) pairs sent.

    The main thread generates every event and hands them to the loop in
    chunks, LEAD_S before the first of a chunk is due. On the loop one timer
    chain raises them in order, each at its due time or as soon after as the
    loop gets to it, so no thread has to wake per event. Latency and the
    generator's lateness are both measured from the due time, so a late
    chunk or a late timer counts against them.
    """
    rng = random.Random(seed ^ 0x5EED)
    raise_event = bed.publisher.event.raise_event
    schedule = bed.runtime.reactor.schedule
    post = bed.runtime.reactor.post
    clock = time.monotonic  # the event loop's clock
    count = int(PHASE_B_S * EVENT_RATE)
    per_chunk = max(1, int(CHUNK_S * EVENT_RATE))
    events = [(seq, rng.uniform(-1e3, 1e3)) for seq in range(count)]
    fired: Dict[int, float] = {}
    waits: List[float] = []
    queue: Deque[tuple] = deque()
    pacing = False
    if on_op is not None:
        on_op(1)
    t0 = clock() + 2 * LEAD_S

    def due(seq: int) -> float:
        return t0 + seq / EVENT_RATE

    def pace() -> None:
        nonlocal pacing
        now = clock()
        while queue and due(queue[0][0]) <= now:
            seq, value = queue.popleft()
            fired[seq] = now
            raise_event({"seq": seq, "value": value})
        pacing = bool(queue)
        if pacing:
            schedule(due(queue[0][0]) - clock(), pace)

    def arm(chunk: List[tuple], posted: float) -> None:
        waits.append(clock() - posted)
        queue.extend(chunk)
        if not pacing:
            pace()

    for start in range(0, count, per_chunk):
        hand_at = due(start) - LEAD_S
        now = clock()
        if hand_at > now:
            time.sleep(hand_at - now)
        chunk = events[start:start + per_chunk]
        post(lambda chunk=chunk, posted=clock(): arm(chunk, posted))
    drained = bed.runtime.run_until(
        lambda: all(len(s.events) >= count for s in bed.sinks),
        timeout=DRAIN_TIMEOUT,
    )
    if on_op is not None:
        on_op(None)
    result.deliveries += sum(len(s.events) for s in bed.sinks)
    warm_end = t0 + WARMUP_S
    result.late_ms.extend(
        (at - due(seq)) * 1e3 for seq, at in fired.items() if due(seq) >= warm_end
    )
    result.loop_wait_ms.extend(w * 1e3 for w in waits)
    for sink in bed.sinks:
        for arrived, seq, _ in sink.events:
            if 0 <= seq < count and due(seq) >= warm_end:
                result.latency_ms.append((arrived - due(seq)) * 1e3)
    if not drained:
        result.tally.fail("events still undelivered after the drain timeout")
    return events


def run_round(
    seed: int,
    values: List[float],
    wrap: Wrap = unwrapped,
    on_op: Optional[Callable[[Optional[int]], None]] = None,
) -> Round:
    bed = Testbed(wrap)
    tally = Tally()
    result = Round(tally=tally)
    try:
        if not bed.bound:
            tally.attempted += 1
            tally.fail("subscriptions never bound")
            return result
        result.ceiling_per_s = raw_ceiling()
        retransmits0 = bed.runtime.on_reactor(lambda: retransmit_count(bed.runtime))
        # Each phase starts without the garbage of what ran before it (earlier
        # runtimes, phase A's traffic), so a full collection of that garbage
        # does not stall the phase.
        gc.collect()
        published = _phase_a(bed, values, result, on_op)
        bed.runtime.run_until(
            lambda: all(len(s.samples) >= published for s in bed.sinks),
            timeout=DRAIN_TIMEOUT,
        )
        gc.collect()
        sent_events = _phase_b(bed, seed, result, on_op)
        result.retransmits = (
            bed.runtime.on_reactor(lambda: retransmit_count(bed.runtime)) - retransmits0
        )
    finally:
        bed.stop()
    expected = list(enumerate(values[:published]))
    index_of = {v: i for i, v in enumerate(values)}
    for i, sink in enumerate(bed.sinks):
        for problem in check_stream(
            f"sub{i} samples", expected, [(index_of.get(v, v), v) for v in sink.samples]
        ):
            tally.fail(problem)
        for problem in check_stream(
            f"sub{i} events", sent_events, [(seq, value) for _, seq, value in sink.events]
        ):
            tally.fail(problem)
    tally.attempted += (published + len(sent_events)) * SUBSCRIBERS
    return result


def summarize(rounds: List[Round], tally: Tally) -> Dict[str, Metric]:
    rates = [r for rd in rounds for r in rd.rates]
    cpu = [c for rd in rounds for c in rd.cpu_us]
    fractions = [statistics.median(rd.raw_rates) / rd.ceiling_per_s for rd in rounds]
    latency = [v for rd in rounds for v in rd.latency_ms]
    late = [v for rd in rounds for v in rd.late_ms]
    waits = [v for rd in rounds for v in rd.loop_wait_ms]
    return {
        "failed_ratio": Metric(tally.failed_ratio, "1", tally.attempted),
        "telemetry_per_s": Metric(median(rates), "1/s", len(rates)),
        "telemetry_cpu_us": Metric(median(cpu), "us", len(cpu)),
        "raw_ceiling_per_s": Metric(
            median([rd.ceiling_per_s for rd in rounds]), "1/s", len(rounds)
        ),
        "telemetry_ceiling_fraction": Metric(median(fractions), "1", len(fractions)),
        # Host stalls come in bursts that spoil a round, not a sample: the
        # median and p90 are taken per round, then the median over rounds.
        "event_lat_p50_ms": Metric(
            median([median(rd.latency_ms) for rd in rounds]), "ms", len(latency)
        ),
        "event_lat_p90_ms": Metric(
            median([percentile(rd.latency_ms, 90) for rd in rounds]), "ms", len(latency)
        ),
        "event_lat_p99_ms": Metric(percentile(latency, 99), "ms", len(latency)),
        "generator_late_p50_ms": Metric(median(late), "ms", len(late)),
        "generator_late_p99_ms": Metric(percentile(late, 99), "ms", len(late)),
        "datagrams_per_delivery": Metric(
            median([rd.datagrams_per_delivery for rd in rounds]), "1", len(rounds)
        ),
        "runtime.async.loop_busy_ratio": Metric(
            median([rd.loop_busy for rd in rounds]), "1", len(rounds)
        ),
        "runtime.async.loop_wait_ms_p99": Metric(percentile(waits, 99), "ms", len(waits)),
    }


def end_to_end(report: Dict[str, Metric]) -> Dict[str, Metric]:
    """The contract metrics in this workload's terms: an op is one variable
    sample delivered to one subscriber in phase A; latency is phase B's
    event latency from due time."""
    return {
        "setup_s": report["setup_s"],
        "cpu_us_per_op": report["telemetry_cpu_us"],
        "ops_per_s": report["telemetry_per_s"],
        "latency_p50_ms": report["event_lat_p50_ms"],
        "latency_p90_ms": report["event_lat_p90_ms"],
        "datagrams_per_op": report["datagrams_per_delivery"],
    }


MIN_ROUNDS = 2
#: Samples available to phase A in one round; far more than it can send.
VALUES = 400_000


def run(seed: int, seconds: float, traced: bool) -> Result:
    values = make_values(seed, VALUES)
    # Set-up runtimes of their own, built before the measured rounds. Their
    # time is mostly the loop waiting for discovery datagrams and polling
    # in 1 ms steps, not processor work, so it is not scaled to the
    # reference speed: scaling made it vary twice as much between runs.
    setup = setup_seconds(Testbed, scaled=False)
    tally = Tally()
    if traced:
        tracer = Tracer()
        untraced, traced_rounds = alternate(
            tracer,
            lambda wrap, on_op: run_round(seed, values, wrap=wrap, on_op=on_op),
            MIN_ROUNDS,
            seconds,
        )
    else:
        deadline = time.perf_counter() + seconds
        untraced, traced_rounds = [], []
        while len(untraced) < MIN_ROUNDS or time.perf_counter() < deadline:
            untraced.append(run_round(seed, values))
    for rd in untraced + traced_rounds:
        tally.absorb(rd.tally)
    report = summarize(untraced, tally)
    report["setup_s"] = setup
    if not traced:
        return Result(tally, end_to_end(report), report)
    layers = layer_metrics(tracer, untraced, traced_rounds)
    report.update(layers)
    return Result(tally, layers, report, tracer=tracer)


def layer_metrics(tracer: Tracer, untraced: List[Round], traced: List[Round]) -> Dict[str, Metric]:
    """Per-layer figures of the traced rounds, per delivery (phase A samples
    and phase B events), plus the async transport's own counters."""
    ops = sum(rd.deliveries for rd in traced)
    n = len(traced)
    out = tracer.metrics(ops, n)
    out["trace.overhead_ratio"] = overhead_ratio(
        1.0 / median([r for rd in untraced for r in rd.rates]),
        1.0 / median([r for rd in traced for r in rd.rates]),
        n,
    )
    out["protocol.reliability.retransmits_per_op"] = Metric(
        sum(rd.retransmits for rd in traced) / ops, "count", n
    )
    transports = tracer.udp_transports
    wakeups = sum(t.recv_wakeups for t in transports)
    out["transport.udp_async.datagrams_per_recv_wakeup"] = Metric(
        sum(t.recv_datagrams for t in transports) / wakeups if wakeups else 0.0,
        "count",
        wakeups,
    )
    out["transport.udp_async.send_blocked"] = Metric(
        sum(t.send_blocked for t in transports) / n, "count", n
    )
    return out
