"""Loop-thread calls per delivered variable sample on the batched async plane.

Builds the ``telemetry_async`` testbed of ``perfbench/`` (one publisher and
two subscriber containers on one :class:`~repro.AsyncRuntime`, batching, ACK
coalescing, compiled codec), drives its phase-A closed loop for a fixed
number of samples, and profiles the event-loop thread with ``cProfile``
while it runs. Everything that thread does is counted: the publishes, the
batcher flushes, the socket drains, the deliveries and the timers.

Prints, per delivery (samples x subscribers reached):

- ``repro``: calls into functions defined under ``src/repro``;
- ``total``: every call cProfile saw, C builtins included;

and the top functions by calls per delivery. Usage, from the root of a
checkout::

    python3 benchmarks/count_loop_calls.py [--samples 10000] [--seed 1] [--top 25]

Wall time does not enter the figures, but batching does: how many frames
share a datagram depends on timing, so the counts move by a few percent
from run to run.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import telemetry_async as tel  # noqa: E402

SRC_MARK = "/src/repro/"


def drive(bed, values, samples: int) -> int:
    """Phase A's closed loop: post bursts of samples while the undelivered
    backlog is small; returns deliveries once every sample has landed."""
    publish = bed.publisher.var.publish
    post = bed.runtime.reactor.post

    def delivered() -> int:
        return sum(len(s.samples) for s in bed.sinks)

    start = delivered()
    sent = 0
    while sent < samples:
        if sent * tel.SUBSCRIBERS - (delivered() - start) < tel.MAX_LAG:
            burst = values[sent:sent + tel.BURST]
            post(lambda burst=burst: [publish(v) for v in burst])
            sent += len(burst)
        else:
            time.sleep(tel.POLL_S)
    bed.runtime.run_until(
        lambda: delivered() - start >= sent * tel.SUBSCRIBERS,
        timeout=tel.DRAIN_TIMEOUT,
    )
    return delivered() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    values = tel.make_values(args.seed, 2 * args.samples)
    bed = tel.Testbed()
    try:
        if not bed.bound:
            print("subscriptions never bound", file=sys.stderr)
            return 1
        drive(bed, values, args.samples)  # warm-up: caches, plans, socket buffers
        profiler = cProfile.Profile()
        bed.runtime.on_reactor(profiler.enable)
        try:
            deliveries = drive(bed, values[args.samples:], args.samples)
        finally:
            bed.runtime.on_reactor(profiler.disable)
    finally:
        bed.stop()

    stats = pstats.Stats(profiler).stats
    total = repro = 0
    rows = []
    for (filename, line, name), (_, ncalls, _, _, _) in stats.items():
        total += ncalls
        path = filename.replace("\\", "/")
        at = path.rfind(SRC_MARK)
        if at >= 0:
            repro += ncalls
            rows.append((ncalls, f"{path[at + len(SRC_MARK):]}:{line}({name})"))
    print(f"deliveries {deliveries}")
    print(f"repro calls per delivery {repro / deliveries:.1f}")
    print(f"total calls per delivery {total / deliveries:.1f}")
    for ncalls, where in sorted(rows, reverse=True)[: args.top]:
        print(f"{ncalls / deliveries:8.2f}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
