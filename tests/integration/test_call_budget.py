"""Deterministic call-count budget of the control path.

Counts the Python calls into ``src/repro`` code, by package, over a small
seeded ``SimRuntime`` scenario: one publisher, one subscriber and one
server container; 30 warm-up ops, then 100 variable samples, 100
acknowledged events and 100 one-argument calls, one op per 20 ms virtual
window, in a seeded order. In virtual time the count repeats exactly for a
seed, so it can be gated where wall time cannot.

The test fails when any package (or the total) makes more than
``tolerance`` above its budget in ``calls-budget.json`` at the repository
root. The budget changes only through this script, run from the repository
root:

    PYTHONPATH=src python -m tests.integration.test_call_budget --update

Comprehension frames are not counted: CPython 3.12 inlines list, dict and
set comprehensions into the enclosing function, so counting them would
make the figure depend on the interpreter version.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional

from repro import Service, SimRuntime
from repro.encoding.types import FLOAT64, UINT32, StructType
from repro.util.ids import reset_uid_counter
from tests.helpers import switches_off

BUDGET_FILE = Path(__file__).resolve().parents[2] / "calls-budget.json"
SEED = 11
WARMUP = 30
OPS_PER_KIND = 100
WINDOW = 0.02
TOLERANCE = 0.05

VAR = "budget.var"
EVENT = "budget.event"
FUNCTION = "budget.scale"
EVENT_TYPE = StructType("BudgetEvent", [("seq", UINT32), ("value", FLOAT64)])

SRC_MARK = "/src/repro/"
INLINED_IN_312 = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


class Publisher(Service):
    def __init__(self):
        super().__init__("budget-publisher")

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64)
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)


class Sink(Service):
    def __init__(self):
        super().__init__("budget-sink")
        self.received = 0

    def on_start(self) -> None:
        self.ctx.subscribe_variable(VAR, on_sample=self.on_value)
        self.ctx.subscribe_event(EVENT, self.on_value)

    def on_value(self, value, timestamp) -> None:
        self.received += 1


class Server(Service):
    def __init__(self):
        super().__init__("budget-server")

    def on_start(self) -> None:
        self.ctx.provide_function(
            FUNCTION, lambda x: x * 3.0 + 1.0, params=[FLOAT64], result=FLOAT64
        )


def package_of(filename: str) -> Optional[str]:
    """``container`` for ``.../src/repro/container/links.py``, ``repro`` for
    modules at the package root, None outside ``src/repro``."""
    path = filename.replace("\\", "/")
    at = path.rfind(SRC_MARK)
    if at < 0:
        return None
    rel = path[at + len(SRC_MARK):]
    return rel.split("/", 1)[0] if "/" in rel else "repro"


def count_calls() -> Dict[str, int]:
    """Run the scenario; calls per package over the measured ops, plus
    ``total``."""
    reset_uid_counter()
    runtime = SimRuntime(seed=SEED)
    publisher, sink = Publisher(), Sink()
    runtime.add_container("pub", **switches_off()).install_service(publisher)
    runtime.add_container("sub", **switches_off()).install_service(sink)
    runtime.add_container("srv", **switches_off()).install_service(Server())
    runtime.start()
    assert runtime.run_until(
        lambda: hasattr(publisher, "event")
        and publisher.event.subscribers
        and not publisher.ctx.check_required_functions([FUNCTION]),
        timeout=30.0,
    )

    rng = random.Random(SEED)
    kinds = ["var", "event", "rpc"] * OPS_PER_KIND
    rng.shuffle(kinds)
    kinds = [kinds[i % len(kinds)] for i in range(WARMUP)] + kinds

    counts: Dict[str, int] = defaultdict(int)
    packages: Dict[object, Optional[str]] = {}

    def hook(frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        try:
            package = packages[code]
        except KeyError:
            package = packages[code] = (
                None if code.co_name in INLINED_IN_312 else package_of(code.co_filename)
            )
        if package is not None:
            counts[package] += 1

    results = []
    try:
        for op, kind in enumerate(kinds):
            if op == WARMUP:
                sys.setprofile(hook)
            value = float(op)
            if kind == "var":
                publisher.var.publish(value)
            elif kind == "event":
                publisher.event.raise_event({"seq": op, "value": value})
            else:
                publisher.ctx.call(FUNCTION, (value,), on_result=results.append)
            runtime.run_for(WINDOW)
    finally:
        sys.setprofile(None)
    runtime.stop()

    assert sink.received == kinds.count("var") + kinds.count("event")
    assert len(results) == kinds.count("rpc")
    counts["total"] = sum(counts.values())
    return dict(sorted(counts.items()))


def test_calls_stay_within_budget():
    budget = json.loads(BUDGET_FILE.read_text())
    assert budget["tolerance"] == TOLERANCE
    allowed = budget["calls"]
    counts = count_calls()
    over = {
        package: (count, allowed.get(package, 0))
        for package, count in counts.items()
        if count > allowed.get(package, 0) * (1 + TOLERANCE)
    }
    assert not over, (
        f"calls over budget (count, budget): {over}; if the growth is "
        "deliberate, run `python -m tests.integration.test_call_budget --update`"
        " and commit calls-budget.json"
    )


def test_count_repeats_exactly():
    assert count_calls() == count_calls()


def main(argv) -> int:
    counts = count_calls()
    if "--update" not in argv:
        print(json.dumps(counts, indent=2))
        return 0
    BUDGET_FILE.write_text(
        json.dumps(
            {
                "scenario": (
                    f"seed {SEED}; 1 publisher, 1 subscriber, 1 server; "
                    f"{WARMUP} warm-up ops, then {OPS_PER_KIND} each of variable, "
                    f"event and call, one per {WINDOW * 1e3:g} ms virtual window"
                ),
                "tolerance": TOLERANCE,
                "calls": counts,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {BUDGET_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
