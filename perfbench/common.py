"""Shared pieces of the benchmark: statistics, delivery checks, results.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src`` directory on the import path.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# -- host speed ------------------------------------------------------------------

#: Thread seconds :func:`calibrate` takes on the reference host (two cores of
#: a shared x86-64 VM under CPython 3.11). Timings are reported at that
#: speed: each is multiplied by ``REFERENCE_S / calibration`` with the
#: calibration taken right beside it.
REFERENCE_S = 0.003
_CALIBRATION_N = 8000


def _kernel(n: int) -> int:
    """Fixed interpreter work: dict updates, tuple allocation, list churn,
    a generator and a builtin call, the operations the middleware is made of."""
    table: Dict[int, int] = {}
    items: List[Tuple[int, int]] = []
    total = 0
    for i in range(n):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        if len(items) > 64:
            total += sum(v for _, v in items)
            items.clear()
    return total


def calibrate() -> float:
    """Thread seconds one run of the calibration kernel takes now.

    The host is shared and its speed drifts by tens of percent within a
    minute; a timing divided by a calibration taken beside it does not.
    """
    start = time.thread_time()
    _kernel(_CALIBRATION_N)
    return time.thread_time() - start


def speed_factor(before: float, after: float) -> float:
    """Multiplier that turns a timing taken between two calibrations into
    one at the reference speed."""
    return REFERENCE_S * 2.0 / (before + after)


#: Set-ups of their own whose median is ``setup_s``.
SETUPS = 20


def setup_seconds(make_bed: Callable[[], object], scaled: bool = True) -> "Metric":
    """``setup_s``: the median of :data:`SETUPS` set-ups, each scaled to the
    reference speed by calibrations taken just before and after it, or as
    measured if not ``scaled``.

    ``make_bed()`` builds a bound testbed with ``setup_s``, ``bound`` and
    ``runtime`` attributes; each is stopped once timed. The garbage of the
    set-ups before it is collected first: a set-up allocates enough to set
    off a full collection of it otherwise, which made single set-ups
    differ by a fifth.
    """
    samples = []
    calibration = calibrate()
    for _ in range(SETUPS):
        gc.collect()
        bed = make_bed()
        before, calibration = calibration, calibrate()
        try:
            if not bed.bound:
                raise RuntimeError("subscriptions never bound during set-up")
            factor = speed_factor(before, calibration) if scaled else 1.0
            samples.append(bed.setup_s * factor)
        finally:
            bed.runtime.stop()
    return Metric(median(samples), "s", len(samples))


# -- delivery checks ------------------------------------------------------------


@dataclass
class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason in other.reasons:
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_stream(
    label: str,
    expected: Sequence[Tuple[int, object]],
    received: Iterable[Tuple[int, object]],
) -> List[str]:
    """Compare one subscriber's deliveries with what was sent.

    ``expected`` and ``received`` hold ``(seq, value)`` pairs. Delivery must
    be exactly once and in order, with each value equal to the one sent.
    Returns one message per sent item that was missing, duplicated, out of
    order or corrupted, and one per delivery nobody sent.
    """
    want = dict(expected)
    order = [seq for seq, _ in expected]
    problems: List[str] = []
    seen = set()
    last = -1
    position = {seq: i for i, seq in enumerate(order)}
    for seq, value in received:
        if seq not in want:
            problems.append(f"{label}: unexpected item {seq!r}")
            continue
        if seq in seen:
            problems.append(f"{label}: item {seq} delivered twice")
            continue
        seen.add(seq)
        if position[seq] < last:
            problems.append(f"{label}: item {seq} out of order")
        last = max(last, position[seq])
        if value != want[seq]:
            problems.append(f"{label}: item {seq} is {value!r}, sent {want[seq]!r}")
    for seq in order:
        if seq not in seen:
            problems.append(f"{label}: item {seq} never delivered")
    return problems


def retransmit_count(runtime) -> int:
    """Reliable frames resent so far, summed over a runtime's containers."""
    return sum(
        c.metrics.counter_value("retransmits") for c in runtime.containers.values()
    )


# -- results --------------------------------------------------------------------


#: Wraps a service callback; the traced run passes ``Tracer.wrap``.
Wrap = Callable[[Callable], Callable]


def unwrapped(fn: Callable) -> Callable:
    return fn


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 0

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the contract metrics of the requested mode (end-to-end
    untraced, per-layer traced); ``report`` holds every figure the run
    measured, printed for people and written to ``perfbench/out``;
    ``tracer`` is the traced run's span recorder.
    """

    tally: Tally
    metrics: Dict[str, Metric]
    report: Dict[str, Metric] = field(default_factory=dict)
    tracer: Optional[object] = None

    def add_layers(self, layers: Dict[str, Metric]) -> None:
        """Add per-layer figures to a traced run's metrics and report."""
        self.metrics.update(layers)
        self.report.update(layers)

