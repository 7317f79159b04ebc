"""Local variable fan-out when a subscriber cancels inside its callback.

With an idle scheduler a same-container ``on_sample`` callback runs inline,
inside the manager's delivery loop. A callback that cancels its own
subscription must not make the next subscriber miss the sample.
"""

from repro import Service, SimRuntime
from repro.encoding.types import FLOAT64

VAR = "fanout.var"


class Publisher(Service):
    def __init__(self):
        super().__init__("fanout-publisher")

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64)


class Sink(Service):
    def __init__(self, name: str, cancel_on_first: bool = False):
        super().__init__(name)
        self.cancel_on_first = cancel_on_first
        self.values = []

    def on_start(self) -> None:
        self.subscription = self.ctx.subscribe_variable(VAR, on_sample=self.on_sample)

    def on_sample(self, value, timestamp) -> None:
        self.values.append(value)
        if self.cancel_on_first:
            self.subscription.cancel()


def _one_container(*sinks):
    runtime = SimRuntime(seed=1)
    container = runtime.add_container("solo")
    publisher = Publisher()
    container.install_service(publisher)
    for sink in sinks:
        container.install_service(sink)
    runtime.start()
    runtime.run_for(0.1)
    return runtime, container, publisher


def test_cancel_in_callback_does_not_skip_the_next_subscriber():
    a = Sink("sink-a", cancel_on_first=True)
    b = Sink("sink-b")
    runtime, container, publisher = _one_container(a, b)
    publisher.var.publish(1.0)
    publisher.var.publish(2.0)
    runtime.run_for(0.1)
    assert a.values == [1.0]
    assert b.values == [1.0, 2.0]
    assert not a.subscription.active
    assert container.metrics.counter_value("var_deliveries") == 3
    runtime.stop()


def test_cancel_of_a_later_subscriber_skips_it():
    a = Sink("sink-a")
    b = Sink("sink-b")
    runtime, _, publisher = _one_container(a, b)

    def record_and_cancel_b(value, timestamp):
        a.values.append(value)
        b.subscription.cancel()

    a.subscription.on_sample = record_and_cancel_b
    publisher.var.publish(1.0)
    runtime.run_for(0.1)
    assert a.values == [1.0]
    assert b.values == []
    runtime.stop()
