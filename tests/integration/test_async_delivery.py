"""Variable and event delivery on the batched plane of :class:`AsyncRuntime`.

One publisher and two subscriber containers share one event loop over
loopback UDP, with datagram batching, ACK coalescing (2 ms / 64 frames) and
the compiled codec. The publisher sends 2,000 float64 samples and 200
acknowledged events in bursts posted to the loop while the undelivered
backlog is small, so no best-effort sample is lost to a full socket buffer.

Every value must arrive exactly once and in order at each subscriber; the
counters in ``metrics_snapshot()`` must agree with what was sent and
delivered; no loop callback may raise; and the subscription's cached value
must still expire with its validity window.
"""

import time

import pytest

from repro import AsyncRuntime, Service
from repro.encoding.types import FLOAT64, UINT32, StructType

PLANE = dict(
    codec="compiled",
    batching_enabled=True,
    ack_coalesce_delay=0.002,
    ack_coalesce_max_pending=64,
    announce_interval=0.2,
    heartbeat_interval=0.5,
    liveness_timeout=5.0,
    housekeeping_interval=0.5,
)
SUBSCRIBERS = 2
SAMPLES = 2000
EVENTS_PER_BURST = 5
BURST = 50
MAX_LAG = 400
VALIDITY = 1.0
TIMEOUT = 20.0

VAR = "async.delivery.var"
EVENT = "async.delivery.event"
EVENT_TYPE = StructType("AsyncDeliveryEvent", [("seq", UINT32), ("value", FLOAT64)])


class Publisher(Service):
    def __init__(self):
        super().__init__("delivery-publisher")

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64, validity=VALIDITY)
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)


class Sink(Service):
    def __init__(self, name: str):
        super().__init__(name)
        self.samples = []
        self.events = []

    def on_start(self) -> None:
        self.subscription = self.ctx.subscribe_variable(VAR, on_sample=self.on_sample)
        self.ctx.subscribe_event(EVENT, self.on_event)

    def on_sample(self, value, timestamp) -> None:
        self.samples.append(value)

    def on_event(self, value, timestamp) -> None:
        self.events.append((value["seq"], value["value"]))


@pytest.fixture
def bed():
    runtime = AsyncRuntime()
    publisher = Publisher()
    runtime.add_container("pub", **PLANE).install_service(publisher)
    sinks = []
    for i in range(SUBSCRIBERS):
        sink = Sink(f"delivery-sink{i}")
        runtime.add_container(f"sub{i}", **PLANE).install_service(sink)
        sinks.append(sink)
    runtime.start()
    try:
        assert runtime.run_until(
            lambda: hasattr(publisher, "event")
            and len(publisher.event.subscribers) == SUBSCRIBERS
            and all(
                runtime.container(f"sub{i}").directory.providers_of_variable(VAR)
                for i in range(SUBSCRIBERS)
            ),
            timeout=TIMEOUT,
        )
        yield runtime, publisher, sinks
    finally:
        runtime.stop()


def _drive(runtime, publisher, sinks):
    """Post bursts of samples (and a few events each) while fewer than
    MAX_LAG sample deliveries are outstanding; returns what was sent."""
    values = [i + 0.25 for i in range(SAMPLES)]
    events = []

    def delivered() -> int:
        return sum(len(s.samples) for s in sinks)

    def burst(chunk, first_event):
        def run():
            for value in chunk:
                publisher.var.publish(value)
            for seq in range(first_event, first_event + EVENTS_PER_BURST):
                publisher.event.raise_event({"seq": seq, "value": seq * 0.5})

        return run

    sent = 0
    deadline = time.monotonic() + TIMEOUT
    while sent < SAMPLES:
        assert time.monotonic() < deadline, "backlog never drained"
        if sent * SUBSCRIBERS - delivered() >= MAX_LAG:
            time.sleep(0.001)
            continue
        chunk = values[sent:sent + BURST]
        runtime.reactor.post(burst(chunk, len(events)))
        events.extend(
            (seq, seq * 0.5) for seq in range(len(events), len(events) + EVENTS_PER_BURST)
        )
        sent += len(chunk)
    assert runtime.run_until(
        lambda: all(
            len(s.samples) >= SAMPLES and len(s.events) >= len(events) for s in sinks
        ),
        timeout=TIMEOUT,
    )
    return values, events


def test_every_value_arrives_once_in_order_and_counters_agree(bed):
    runtime, publisher, sinks = bed
    values, events = _drive(runtime, publisher, sinks)
    runtime.run_for(0.05)  # late duplicates, if any, would land now

    for sink in sinks:
        assert sink.samples == values
        assert sink.events == events

    snapshot = runtime.metrics_snapshot()
    batcher = runtime.container("pub").egress.batcher
    assert snapshot["var_publishes{container=pub}"] == SAMPLES
    assert snapshot["frames_sent{container=pub,kind=VAR_SAMPLE}"] == SAMPLES
    assert snapshot["egress_batches{container=pub}"] == batcher.batches_sent > 0
    assert snapshot["egress_batched_frames{container=pub}"] == batcher.batched_frames
    for i in range(SUBSCRIBERS):
        assert snapshot[f"var_deliveries{{container=sub{i}}}"] == SAMPLES
        assert snapshot[f"frames_received{{container=sub{i},kind=VAR_SAMPLE}}"] == SAMPLES
    assert runtime.reactor.errors == []


def test_latest_honours_validity_through_last_arrival(bed):
    runtime, publisher, sinks = bed
    published_at = runtime.on_reactor(
        lambda: (runtime.reactor.now(), publisher.var.publish(7.5))[0]
    )
    assert runtime.run_until(
        lambda: all(s.samples == [7.5] for s in sinks), timeout=TIMEOUT
    )

    def read(sink):
        subscription = sink.subscription
        return subscription.last_arrival, runtime.reactor.now(), subscription.latest()

    for sink in sinks:
        arrival, now, latest = runtime.on_reactor(lambda: read(sink))
        assert published_at <= arrival <= now
        if now - arrival <= VALIDITY:
            assert latest == 7.5
    runtime.run_for(VALIDITY * 1.5)
    for sink in sinks:
        assert runtime.on_reactor(sink.subscription.latest) is None
    assert runtime.reactor.errors == []
