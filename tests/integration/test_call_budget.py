"""Deterministic call-count budgets of the control, file and batched paths.

Counts the Python calls into ``src/repro`` code, by package, over three
small seeded ``SimRuntime`` scenarios:

- control: one publisher, one subscriber and one server container; 30
  warm-up ops, then 100 variable samples, 100 acknowledged events and 100
  one-argument calls, one op per 20 ms virtual window, in a seeded order;
- file: a camera container multicasts two 64 KiB photos to three receiver
  containers over links that drop 2% of packets; counted from the first
  publish until every receiver holds both photos and the completion ACKs
  have settled;
- batched: the plane of the ``telemetry_async`` benchmark (datagram
  batching, ACK coalescing at 2 ms / 64 frames, compiled codec) with one
  publisher and two subscriber containers; after 5 warm-up windows, 40
  windows of 10 ms each carry 10 variable samples and one acknowledged
  event.

In virtual time the counts repeat exactly for a seed, so they can be gated
where wall time cannot.

The tests fail when any package (or the total) makes more than
``tolerance`` above its budget in ``calls-budget.json`` at the repository
root. The budgets change only through this script, run from the repository
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
from repro.simnet.models import LinkModel
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

FILE_RECEIVERS = 3
FILE_PHOTOS = 2
FILE_PHOTO_SIZE = 64 << 10
FILE_LOSS = 0.02
FILE_SETTLE = 0.1

#: The batched plane of the ``telemetry_async`` benchmark.
BATCHED_PLANE = {
    "codec": "compiled",
    "batching_enabled": True,
    "ack_coalesce_delay": 0.002,
    "ack_coalesce_max_pending": 64,
}
BATCHED_SUBSCRIBERS = 2
BATCHED_WARMUP = 5
BATCHED_WINDOWS = 40
BATCHED_SAMPLES = 10
BATCHED_WINDOW = 0.01
BATCHED_SETTLE = 0.1

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


class Camera(Service):
    def __init__(self):
        super().__init__("budget-camera")


class PhotoSink(Service):
    def __init__(self, name: str):
        super().__init__(name)
        self.photos = []

    def on_start(self) -> None:
        for i in range(FILE_PHOTOS):
            self.ctx.subscribe_file(
                f"budget.photo.{i}",
                on_complete=lambda data, revision: self.photos.append(data),
            )


def _call_counter():
    """A profile hook counting calls per package into ``counts``."""
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

    return counts, hook


def count_calls() -> Dict[str, int]:
    """Run the control scenario; calls per package over the measured ops,
    plus ``total``."""
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

    counts, hook = _call_counter()
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


def count_file_calls() -> Dict[str, int]:
    """Run the file scenario; calls per package from the first publish until
    the transfers have settled, plus ``total``."""
    reset_uid_counter()
    runtime = SimRuntime(seed=SEED, default_link=LinkModel(loss=FILE_LOSS))
    camera = Camera()
    runtime.add_container("cam", **switches_off()).install_service(camera)
    sinks = []
    for i in range(FILE_RECEIVERS):
        sink = PhotoSink(f"budget-rx{i}")
        runtime.add_container(f"rx{i}", **switches_off()).install_service(sink)
        sinks.append(sink)
    runtime.start()
    cam = runtime.container("cam").directory
    assert runtime.run_until(
        lambda: all(cam.address_of(f"rx{i}") is not None for i in range(FILE_RECEIVERS)),
        timeout=30.0,
    )
    photos = [random.Random(SEED + i).randbytes(FILE_PHOTO_SIZE) for i in range(FILE_PHOTOS)]

    counts, hook = _call_counter()
    sys.setprofile(hook)
    try:
        for i, photo in enumerate(photos):
            camera.ctx.publish_file(f"budget.photo.{i}", photo)
        done = runtime.run_until(
            lambda: all(len(s.photos) == FILE_PHOTOS for s in sinks), timeout=30.0
        )
        runtime.run_for(FILE_SETTLE)
    finally:
        sys.setprofile(None)
    runtime.stop()

    assert done
    for sink in sinks:
        assert sorted(sink.photos) == sorted(photos)
    counts["total"] = sum(counts.values())
    return dict(sorted(counts.items()))


def count_batched_calls() -> Dict[str, int]:
    """Run the batched scenario; calls per package over the measured
    windows and the settle time after them, plus ``total``."""
    reset_uid_counter()
    runtime = SimRuntime(seed=SEED)
    config = {**switches_off(), **BATCHED_PLANE}
    publisher = Publisher()
    runtime.add_container("pub", **config).install_service(publisher)
    sinks = []
    for i in range(BATCHED_SUBSCRIBERS):
        sink = Sink()
        runtime.add_container(f"sub{i}", **config).install_service(sink)
        sinks.append(sink)
    runtime.start()
    assert runtime.run_until(
        lambda: hasattr(publisher, "event")
        and len(publisher.event.subscribers) == BATCHED_SUBSCRIBERS
        and all(
            runtime.container(f"sub{i}").directory.providers_of_variable(VAR)
            for i in range(BATCHED_SUBSCRIBERS)
        ),
        timeout=30.0,
    )

    counts, hook = _call_counter()
    windows = BATCHED_WARMUP + BATCHED_WINDOWS
    try:
        for window in range(windows):
            if window == BATCHED_WARMUP:
                sys.setprofile(hook)
            for i in range(BATCHED_SAMPLES):
                publisher.var.publish(float(window * BATCHED_SAMPLES + i))
            publisher.event.raise_event({"seq": window, "value": float(window)})
            runtime.run_for(BATCHED_WINDOW)
        runtime.run_for(BATCHED_SETTLE)
    finally:
        sys.setprofile(None)
    runtime.stop()

    for sink in sinks:
        assert sink.received == windows * (BATCHED_SAMPLES + 1)
    counts["total"] = sum(counts.values())
    return dict(sorted(counts.items()))


def _over_budget(counts: Dict[str, int], allowed: Dict[str, int]) -> Dict[str, tuple]:
    return {
        package: (count, allowed.get(package, 0))
        for package, count in counts.items()
        if count > allowed.get(package, 0) * (1 + TOLERANCE)
    }


def test_calls_stay_within_budget():
    budget = json.loads(BUDGET_FILE.read_text())
    assert budget["tolerance"] == TOLERANCE
    allowed = budget["calls"]
    over = _over_budget(count_calls(), allowed)
    assert not over, (
        f"calls over budget (count, budget): {over}; if the growth is "
        "deliberate, run `python -m tests.integration.test_call_budget --update`"
        " and commit calls-budget.json"
    )


def test_count_repeats_exactly():
    assert count_calls() == count_calls()


def test_file_calls_stay_within_budget():
    budget = json.loads(BUDGET_FILE.read_text())
    over = _over_budget(count_file_calls(), budget["file_calls"])
    assert not over, (
        f"file-path calls over budget (count, budget): {over}; if the growth "
        "is deliberate, run `python -m tests.integration.test_call_budget "
        "--update` and commit calls-budget.json"
    )


def test_file_count_repeats_exactly():
    assert count_file_calls() == count_file_calls()


def test_batched_calls_stay_within_budget():
    budget = json.loads(BUDGET_FILE.read_text())
    over = _over_budget(count_batched_calls(), budget["batched_calls"])
    assert not over, (
        f"batched-path calls over budget (count, budget): {over}; if the "
        "growth is deliberate, run `python -m tests.integration."
        "test_call_budget --update` and commit calls-budget.json"
    )


def test_batched_count_repeats_exactly():
    assert count_batched_calls() == count_batched_calls()


def main(argv) -> int:
    counts = count_calls()
    file_counts = count_file_calls()
    batched_counts = count_batched_calls()
    if "--update" not in argv:
        print(
            json.dumps(
                {
                    "calls": counts,
                    "file_calls": file_counts,
                    "batched_calls": batched_counts,
                },
                indent=2,
            )
        )
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
                "file_scenario": (
                    f"seed {SEED}; 1 camera, {FILE_RECEIVERS} receivers, "
                    f"{FILE_LOSS:g} link loss; {FILE_PHOTOS} photos of "
                    f"{FILE_PHOTO_SIZE >> 10} KiB, from the first publish until "
                    f"every receiver completed, then {FILE_SETTLE:g} s"
                ),
                "file_calls": file_counts,
                "batched_scenario": (
                    f"seed {SEED}; 1 publisher, {BATCHED_SUBSCRIBERS} subscribers; "
                    "batching, ACK coalescing at "
                    f"{BATCHED_PLANE['ack_coalesce_delay'] * 1e3:g} ms / "
                    f"{BATCHED_PLANE['ack_coalesce_max_pending']}, compiled codec; "
                    f"{BATCHED_WARMUP} warm-up windows, then {BATCHED_WINDOWS} "
                    f"windows of {BATCHED_WINDOW * 1e3:g} ms, each with "
                    f"{BATCHED_SAMPLES} variable samples and one event, then "
                    f"{BATCHED_SETTLE:g} s"
                ),
                "batched_calls": batched_counts,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {BUDGET_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
