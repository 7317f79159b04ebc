"""``photo_sim``: lossy multicast file transfer in virtual time.

A camera container publishes a sequence of photos (256 KiB to 1 MiB) with
``publish_file``, one resource per photo as the camera service names them;
six receiver containers subscribe to each photo just before it is published,
on a :class:`~repro.SimRuntime` whose links drop 2% of packets. The next
photo is published only after every receiver has completed the previous one. Large
payloads, chunking, NACK rounds and multicast fan-out (paper §4.4) do most of
the work; small-message encode and reliability cost is near zero.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import Service, SimRuntime
from repro.simnet.models import LinkModel
from repro.util.ids import reset_uid_counter

import simloop
from common import (
    Metric, Result, Tally, Wrap, calibrate, median, percentile, retransmit_count, speed_factor,
    unwrapped,
)

RECEIVERS = 6
#: Photos per pass. Sizes are stratified over [MIN_SIZE, MAX_SIZE] so that
#: every seed covers the whole range and per-photo medians stay comparable.
PHOTOS_PER_PASS = 16
MIN_SIZE = 256 << 10
MAX_SIZE = 1 << 20
LOSS = 0.02
#: Virtual seconds allowed per photo before it counts as failed.
PHOTO_TIMEOUT = 30.0
#: Virtual seconds run after the last receiver completed, so the camera
#: collects the completion ACKs before the next photo starts.
SETTLE = 0.1
BIND_TIMEOUT = 30.0
RESOURCE = "bench.photo.{}"
MIB = float(1 << 20)


def make_inputs(seed: int, count: int = PHOTOS_PER_PASS) -> List[bytes]:
    """``count`` photos of seeded content, one size drawn from each of
    ``count`` equal strata of the size range, in seeded order."""
    rng = random.Random(seed)
    width = (MAX_SIZE - MIN_SIZE) / count
    sizes = [int(MIN_SIZE + width * (i + rng.random())) for i in range(count)]
    rng.shuffle(sizes)
    return [rng.randbytes(size) for size in sizes]


class Camera(Service):
    def __init__(self):
        super().__init__("bench-camera")


class Receiver(Service):
    def __init__(self, name: str, wrap: Wrap):
        super().__init__(name)
        self._wrap = wrap
        self.completed: List[tuple] = []  # (now, name, data)

    def expect(self, name: str):
        return self.ctx.subscribe_file(
            name,
            on_complete=self._wrap(
                lambda data, revision: self.on_complete(name, data)
            ),
        )

    def on_complete(self, name: str, data: bytes) -> None:
        # The digest is taken after the timed window; keep the reference.
        self.completed.append((self.ctx.now(), name, data))


class Testbed:
    def __init__(self, seed: int, wrap: Wrap = unwrapped):
        reset_uid_counter()
        started = time.perf_counter()
        self.runtime = SimRuntime(seed=seed, default_link=LinkModel(loss=LOSS))
        self.camera = Camera()
        self.runtime.add_container("cam").install_service(self.camera)
        self.receivers = []
        for i in range(RECEIVERS):
            receiver = Receiver(f"bench-rx{i}", wrap)
            self.runtime.add_container(f"rx{i}").install_service(receiver)
            self.receivers.append(receiver)
        self.runtime.start()
        self.bound = self.runtime.run_until(self._bound, timeout=BIND_TIMEOUT, poll=0.01)
        self.setup_s = time.perf_counter() - started

    def _bound(self) -> bool:
        cam = self.runtime.container("cam").directory
        return all(
            cam.address_of(f"rx{i}") is not None
            and self.runtime.container(f"rx{i}").directory.address_of("cam") is not None
            for i in range(RECEIVERS)
        )


@dataclass
class Pass:
    tally: Tally
    vcomplete_s: List[float] = field(default_factory=list)
    #: Timed photo windows: their processor and wall seconds at the reference
    #: speed, and the MiB delivered to every receiver.
    cpu_s: float = 0.0
    wall_s: float = 0.0
    ops: float = 0.0
    photo_bytes: int = 0
    chunks_needed: int = 0
    wire_bytes: int = 0
    datagrams: int = 0
    deliveries: int = 0
    kernel_events: int = 0
    retransmits: int = 0

    def fingerprint(self) -> tuple:
        return (
            tuple(self.vcomplete_s),
            self.wire_bytes,
            self.datagrams,
            self.deliveries,
            self.kernel_events,
            self.retransmits,
            self.tally.failed,
        )


def run_pass(
    seed: int,
    photos: List[bytes],
    wrap: Wrap = unwrapped,
    on_op: Optional[Callable[[Optional[int]], None]] = None,
) -> Pass:
    bed = Testbed(seed, wrap)
    tally = Tally()
    result = Pass(tally=tally)
    if not bed.bound:
        tally.attempted += len(photos)
        tally.fail("subscriptions never bound", len(photos))
        return result
    runtime = bed.runtime
    stats = runtime.network.stats
    bytes0, packets0 = stats.emissions.bytes, stats.emissions.packets
    deliveries0 = stats.deliveries.packets
    events0 = runtime.sim.events_executed
    retransmits0 = retransmit_count(runtime)
    chunk_size = runtime.container("cam").config.file_chunk_size
    digests = [hashlib.sha256(photo).digest() for photo in photos]
    calibration = calibrate()
    for index, photo in enumerate(photos):
        name = RESOURCE.format(index)
        if on_op is not None:
            on_op(index)
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        start = runtime.sim.now()
        subscriptions = [r.expect(name) for r in bed.receivers]
        bed.camera.ctx.publish_file(name, photo)
        done = runtime.run_until(
            lambda: all(r.completed for r in bed.receivers),
            timeout=PHOTO_TIMEOUT,
            poll=0.01,
        )
        runtime.run_for(SETTLE)
        cpu1 = time.thread_time()
        wall1 = time.perf_counter()
        if on_op is not None:
            on_op(None)
        before, calibration = calibration, calibrate()
        factor = speed_factor(before, calibration)
        tally.attempted += 1
        result.cpu_s += (cpu1 - cpu0) * factor
        result.wall_s += (wall1 - wall0) * factor
        result.ops += len(photo) / MIB
        result.chunks_needed += -(-len(photo) // chunk_size)
        if not done:
            tally.fail(f"photo {index} incomplete after {PHOTO_TIMEOUT} virtual s")
            continue
        finish = []
        for receiver in bed.receivers:
            got = receiver.completed
            if len(got) != 1 or got[0][1] != name:
                tally.fail(f"photo {index}: {receiver.name} completed {len(got)} times")
                break
            if hashlib.sha256(got[0][2]).digest() != digests[index]:
                tally.fail(f"photo {index}: {receiver.name} got different bytes")
                break
            finish.append(got[0][0])
        else:
            result.vcomplete_s.append(max(finish) - start)
        for receiver, subscription in zip(bed.receivers, subscriptions):
            receiver.completed.clear()
            subscription.cancel()
    result.photo_bytes = sum(len(p) for p in photos)
    result.wire_bytes = stats.emissions.bytes - bytes0
    result.datagrams = stats.emissions.packets - packets0
    result.deliveries = stats.deliveries.packets - deliveries0
    result.kernel_events = runtime.sim.events_executed - events0
    result.retransmits = retransmit_count(runtime) - retransmits0
    runtime.stop()
    return result


def summarize(passes: List[Pass], tally: Tally) -> Dict[str, Metric]:
    """Processor time and rate are per pass (all its photos together, so the
    seed's mix of sizes and loss evens out), then the median over passes."""
    first = passes[0]
    n = len(passes)
    mib = first.photo_bytes / MIB
    complete = first.vcomplete_s
    return {
        "failed_ratio": Metric(tally.failed_ratio, "1", tally.attempted),
        "photo_cpu_ms_per_mib": Metric(median([p.cpu_s * 1e3 / p.ops for p in passes]), "ms", n),
        "photo_mib_per_s": Metric(median([p.ops / p.wall_s for p in passes]), "1/s", n),
        "photo_vcomplete_s": Metric(median(complete), "s", len(complete)),
        "photo_vcomplete_p90_s": Metric(percentile(complete, 90), "s", len(complete)),
        "photo_vcomplete_max_s": Metric(max(complete), "s", len(complete)),
        "photo_wire_ratio": Metric(first.wire_bytes / first.photo_bytes, "1", len(complete)),
        "datagrams_per_mib": Metric(first.datagrams / mib, "1", len(complete)),
        "kernel_events_per_mib": Metric(first.kernel_events / mib, "1", len(complete)),
    }


def end_to_end(report: Dict[str, Metric]) -> Dict[str, Metric]:
    """The contract metrics in this workload's terms: an op is one MiB of
    photo delivered to every receiver; latency is a photo's virtual time
    from publish to the last receiver completing."""
    cpu = report["photo_cpu_ms_per_mib"]
    complete = report["photo_vcomplete_s"]
    tail = report["photo_vcomplete_p90_s"]
    return {
        "setup_s": report["setup_s"],
        "cpu_us_per_op": Metric(cpu.value * 1e3, "us", cpu.samples),
        "ops_per_s": report["photo_mib_per_s"],
        "latency_p50_ms": Metric(complete.value * 1e3, "ms", complete.samples),
        "latency_p90_ms": Metric(tail.value * 1e3, "ms", tail.samples),
        "datagrams_per_op": report["datagrams_per_mib"],
    }


def run(seed: int, seconds: float, traced: bool) -> Result:
    if not traced:
        return simloop.run_untraced(_THIS, seed, seconds)
    result, _, traced_passes = simloop.run_traced(_THIS, seed, seconds)
    result.add_layers(filetransfer_metrics(result.tracer, traced_passes))
    return result


def filetransfer_metrics(tracer, traced: List[Pass]) -> Dict[str, Metric]:
    """File-transfer figures: self time per chunk sent, chunks needed per
    chunk sent, and completion-poll rounds beyond the first per photo."""
    counts = tracer.counts
    chunks = counts["egress.kind.FILE_CHUNK"]
    photos = sum(p.tally.attempted for p in traced)
    polls = counts["egress.kind.FILE_STATUS_REQUEST"]
    needed = sum(p.chunks_needed for p in traced)
    return {
        "primitives.filetransfer.self_us_per_chunk": Metric(
            tracer.self_ns["primitives.filetransfer"] / 1e3 / chunks, "us", chunks
        ),
        "primitives.filetransfer.useful_chunk_ratio": Metric(needed / chunks, "1", chunks),
        "primitives.filetransfer.nack_rounds_per_photo": Metric(
            (polls - photos) / photos, "count", photos
        ),
    }


_THIS = sys.modules[__name__]
