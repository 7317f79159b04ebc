"""Layer-cost benchmark of the middleware's four primitives.

Usage (from the repository root)::

    python3 perfbench/run.py --workload control_sim --seed 1 --seconds 10 --trace 0

Workloads: ``control_sim``, ``photo_sim``, ``telemetry_async`` (see
``perfbench/README.md``). ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` measures the per-layer metrics in a traced
run (spans, plus a call-counting pass on the simulation workloads). Every
metric the run measured is printed by name with its unit and sample count;
the last line of standard output is one JSON object with the metrics named
in ``BENCHMARK.json`` for the chosen mode. Results and spans are also written
to ``perfbench/out/``. A failed correctness check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("control_sim", "photo_sim", "telemetry_async")


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no middleware source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    contract = _contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    result = __import__(args.workload).run(args.seed, args.seconds, bool(args.trace))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in sorted(result.report.items()):
        print(f"{name:48s} {metric.value:>16.6g} {metric.unit:6s} n={metric.samples}")
    for reason in result.tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "attempted": result.tally.attempted,
                "failed": result.tally.failed,
                "failures": result.tally.reasons,
                "report": {
                    k: {"value": m.value, "unit": m.unit, "samples": m.samples}
                    for k, m in sorted(result.report.items())
                },
            },
            f,
            indent=1,
        )
    if result.tracer is not None:
        result.tracer.write(
            out_dir / f"{stem}-spans.json",
            {"workload": args.workload, "seed": args.seed},
        )

    metrics = {}
    for m in wanted:
        measured = result.metrics.get(m["name"])
        if measured is None or measured.unit != m["unit"]:
            print(f"perfbench: {m['name']} ({m['unit']}) was not measured", file=sys.stderr)
            return 3
        metrics[m["name"]] = measured.as_json()
    correct = result.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
