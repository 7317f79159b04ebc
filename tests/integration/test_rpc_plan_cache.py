"""Remote invocation resolves its argument and result plans once.

A call's argument struct, its encoder and the result decoder come from the
provider's directory offer. They are resolved once per (function,
provider) and kept while the directory is unchanged; the argument struct
of a signature is kept for good, so a re-announce does not rebuild it.
Building a fresh struct per call would hand the compiled codec a new type
object every time: its identity cache (``compiled._BY_ID``) would gain an
entry per call and be cleared wholesale every few thousand calls, wire
schemas included.
"""

from __future__ import annotations

from typing import List

from repro import Service, SimRuntime
from repro.encoding import compiled
from repro.encoding.types import FLOAT64, UINT32
from tests.helpers import switches_off

FUNCTION = "plan.cache.mix"
WARMUP = 50
CALLS = 1000
WINDOW = 0.005


class Caller(Service):
    def __init__(self):
        super().__init__("plan-caller")
        self.results: List[object] = []
        self.errors: List[str] = []

    def call(self, *args) -> None:
        self.ctx.call(
            FUNCTION,
            args,
            on_result=self.results.append,
            on_error=lambda exc: self.errors.append(str(exc)),
        )


class Server(Service):
    def __init__(self):
        super().__init__("plan-server")

    def on_start(self) -> None:
        self.ctx.provide_function(
            FUNCTION, lambda x, n: x * n, params=[FLOAT64, UINT32], result=FLOAT64
        )


def _build():
    runtime = SimRuntime(seed=3)
    caller = Caller()
    runtime.add_container("cli", **switches_off()).install_service(caller)
    server = Server()
    runtime.add_container("srv", **switches_off()).install_service(server)
    runtime.start()
    runtime.settle()
    return runtime, caller, server


def _run_calls(runtime, caller, count: int, first: int = 0) -> None:
    for i in range(first, first + count):
        caller.call(i * 0.5, i % 7)
        runtime.run_for(WINDOW)


def test_rpc_load_leaves_the_codec_plan_cache_unchanged():
    runtime, caller, _ = _build()
    _run_calls(runtime, caller, WARMUP)
    by_id, by_key = len(compiled._BY_ID), len(compiled._BY_KEY)
    revision = runtime.container("cli").directory.revision
    _run_calls(runtime, caller, CALLS, first=WARMUP)
    # The run spans several periodic announces, each a directory revision.
    assert runtime.container("cli").directory.revision > revision
    assert caller.errors == []
    assert caller.results == [i * 0.5 * (i % 7) for i in range(WARMUP + CALLS)]
    assert (len(compiled._BY_ID), len(compiled._BY_KEY)) == (by_id, by_key)
    runtime.stop()


def test_a_changed_offer_replaces_the_call_plan():
    runtime, caller, server = _build()
    _run_calls(runtime, caller, 3)
    assert caller.results == [0.0, 0.5, 2.0]
    # The provider re-offers the function with one parameter: the caller
    # must follow the new offer, not keep encoding two arguments.
    runtime.container("srv").invocations.withdraw(FUNCTION)
    server.ctx.provide_function(FUNCTION, lambda x: x + 1.0, params=[FLOAT64], result=FLOAT64)
    runtime.settle()
    caller.call(2.0)
    runtime.run_for(WINDOW)
    assert caller.results[-1] == 3.0
    caller.call(2.0, 3)
    runtime.run_for(WINDOW)
    assert len(caller.errors) == 1
    assert "expected 1 arguments, got 2" in caller.errors[0]
    runtime.stop()
