"""Shared helpers for integration tests and benchmarks."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro import Service, SimRuntime
from repro.protocol.admission import AdmissionPolicy
from repro.protocol.reliability import ReliabilityHardening


def switches_off() -> dict:
    """``ContainerConfig`` overrides for every switch whose default an
    environment variable can arm (``REPRO_ADMISSION``,
    ``REPRO_RELIABILITY_HARDENING``, ``REPRO_PAYLOAD_SANITIZER``,
    ``REPRO_VERIFY``): tests that pin exact traffic or call counts build
    their containers with these so a CI job arming them does not move the
    figures."""
    return {
        "admission": AdmissionPolicy(),
        "reliability_hardening": ReliabilityHardening(),
        "payload_sanitizer": "off",
        "verification": "off",
    }


class ProbeService(Service):
    """A scriptable service: declares whatever the test asks for and records
    everything it receives."""

    def __init__(self, name: str, setup: Optional[Callable[["ProbeService"], None]] = None):
        super().__init__(name)
        self._setup = setup
        self.samples: List[tuple] = []  # (variable, value, timestamp)
        self.events: List[tuple] = []  # (event, value, timestamp)
        self.files: List[tuple] = []  # (resource, data, revision)
        self.timeouts: List[str] = []
        self.results: List[Any] = []
        self.errors: List[Exception] = []

    def on_start(self) -> None:
        if self._setup is not None:
            self._setup(self)

    # -- recording helpers ------------------------------------------------------
    def watch_variable(self, name: str, initial: bool = False):
        return self.ctx.subscribe_variable(
            name,
            on_sample=lambda v, t: self.samples.append((name, v, t)),
            on_timeout=lambda n: self.timeouts.append(n),
            initial=initial,
        )

    def watch_event(self, name: str):
        return self.ctx.subscribe_event(
            name, lambda v, t: self.events.append((name, v, t))
        )

    def watch_file(self, name: str, **kwargs):
        return self.ctx.subscribe_file(
            name,
            on_complete=lambda data, rev: self.files.append((name, data, rev)),
            **kwargs,
        )

    def call_recorded(self, function: str, args: tuple = (), **kwargs):
        return self.ctx.call(
            function,
            args,
            on_result=self.results.append,
            on_error=self.errors.append,
            **kwargs,
        )

    def values_of(self, variable: str) -> List[Any]:
        return [v for n, v, _ in self.samples if n == variable]

    def events_of(self, event: str) -> List[Any]:
        return [v for n, v, _ in self.events if n == event]


def two_containers(seed: int = 1, link=None, **config_overrides):
    """A runtime with containers 'a' and 'b' on their own nodes."""
    runtime = SimRuntime(seed=seed, default_link=link)
    a = runtime.add_container("a", **config_overrides)
    b = runtime.add_container("b", **config_overrides)
    return runtime, a, b


def settle(runtime: SimRuntime, duration: float = 3.0) -> None:
    runtime.start()
    runtime.run_for(duration)
