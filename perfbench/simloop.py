"""The timed loop shared by the two simulation workloads.

A run repeats whole passes (fresh runtime, set-up, every op of the seed's
inputs, checks) until its time is up. The first pass warms caches and lazy
set-up and is checked but not timed. Every pass runs the same inputs on the
same seed, so every virtual-time, byte, datagram and kernel-event figure must
repeat exactly from pass to pass; a pass that differs counts as a failure.

The traced run adds a call-counting pass and alternates untraced and traced
passes, so the tracing overhead is a paired ratio.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

from common import Metric, Result, Tally, setup_seconds
from counting import CallCounter
from layers import Tracer, alternate, overhead_ratio

MIN_PASSES = 3
#: Set-up is timed on this seed whatever the run's seed, so that every run
#: times the same discovery work (how long discovery takes in virtual time,
#: and so how much of it runs, depends on the seed).
SETUP_SEED = 1


def _tally(passes: List) -> Tally:
    tally = Tally()
    for p in passes:
        tally.absorb(p.tally)
    first = passes[0].fingerprint()
    for i, p in enumerate(passes[1:], start=1):
        if p.fingerprint() != first:
            tally.fail(f"pass {i} differs from pass 0 on deterministic figures")
    return tally


def _pass(workload, seed: int, inputs, **kwargs):
    # Runtimes of earlier passes are garbage with reference cycles; collect
    # them before the pass rather than during it.
    gc.collect()
    return workload.run_pass(seed, inputs, **kwargs)


def _setup_s(workload) -> Metric:
    return setup_seconds(lambda: workload.Testbed(SETUP_SEED))


def run_untraced(workload, seed: int, seconds: float) -> Result:
    inputs = workload.make_inputs(seed)
    warm = _pass(workload, seed, inputs)
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(_pass(workload, seed, inputs))
    tally = _tally([warm] + passes)
    report = workload.summarize(passes, tally)
    report["setup_s"] = _setup_s(workload)
    return Result(tally, workload.end_to_end(report), report)


def run_traced(workload, seed: int, seconds: float) -> Tuple[Result, CallCounter, List]:
    """The traced run: a counting pass, then untraced and traced passes
    alternating. Returns the result with the per-layer figures both
    simulation workloads share, the counting pass's counter and the traced
    passes, for the workload to add its own figures."""
    inputs = workload.make_inputs(seed)
    warm = _pass(workload, seed, inputs)
    counter = CallCounter()
    with counter:
        counted = _pass(workload, seed, inputs, on_op=counter.on_op)
    tracer = Tracer()
    untraced, traced = alternate(
        tracer,
        lambda wrap, on_op: _pass(workload, seed, inputs, wrap=wrap, on_op=on_op),
        MIN_PASSES,
        seconds,
    )
    tally = _tally([warm, counted] + untraced + traced)
    report = workload.summarize(untraced, tally)
    report["setup_s"] = _setup_s(workload)
    layers = layer_metrics(tracer, counter, counted, untraced, traced)
    report.update(layers)
    return Result(tally, layers, report, tracer=tracer), counter, traced


def layer_metrics(tracer: Tracer, counter: CallCounter, counted, untraced, traced) -> Dict[str, Metric]:
    """Per-layer figures of both simulation workloads, per op. Counts that
    repeat exactly come from the counting pass."""
    ops = sum(p.ops for p in traced)
    n = len(traced)
    out = tracer.metrics(ops, n)
    out["trace.overhead_ratio"] = overhead_ratio(
        sum(p.wall_s for p in untraced) / sum(p.ops for p in untraced),
        sum(p.wall_s for p in traced) / ops,
        n,
    )
    out["protocol.reliability.retransmits_per_op"] = Metric(
        counted.retransmits / counted.ops, "count", 1
    )
    out["simnet.deliveries_per_datagram"] = Metric(
        counted.deliveries / counted.datagrams, "count", counted.datagrams
    )
    out["sim.kernel_events_per_op"] = Metric(counted.kernel_events / counted.ops, "count", 1)
    for name, value in counter.per_op(counted.ops).items():
        out[name] = Metric(value, "count", 1)
    return out
