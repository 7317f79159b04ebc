"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload telemetry_async --runs 5 [--trace 0]

Runs ``perfbench/run.py`` once per seed 1..runs with ``run_seconds`` from
``BENCHMARK.json`` and prints, for every metric, its median, its quartile
spread as a share of the median (as ``statistics.quantiles(values, n=4)``
gives the quartiles) and, for end-to-end metrics, a third of its bound for
comparison.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import median, spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    values = {}
    for seed in range(1, args.runs + 1):
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(contract["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ))
    print(f"\n{args.workload}: {args.runs} runs")
    for name, series in values.items():
        bound = bounds.get(name) if not args.trace else None
        limit = f"  bound/3 {bound / 3:.3f}" if bound else ""
        share = spread(series) if len(series) >= 2 else 0.0
        print(f"{name:44s} median {median(series):14.6g}  spread {share:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
