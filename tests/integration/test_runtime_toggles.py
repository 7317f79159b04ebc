"""Runtime toggles act on the very next frame or event.

The per-datagram path reads the admission, tracing, hardening and sanitizer
switches on every frame or event instead of caching them when the container
is built. Each test arms one switch on an already running ``SimRuntime``
(every container built with it off) and checks that the next frame or event
is handled under it.
"""

from __future__ import annotations

from repro import Service, SimRuntime
from repro.container.links import RELIABLE_CHANNEL
from repro.encoding.types import FLOAT64, UINT32, StructType, VectorType
from repro.protocol.admission import AdmissionPolicy
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.reliability import encode_ack
from tests.helpers import switches_off

VAR = "toggle.var"
EVENT = "toggle.event"
EVENT_TYPE = StructType(
    "ToggleEvent", [("seq", UINT32), ("samples", VectorType(FLOAT64))]
)
WINDOW = 0.02


class Publisher(Service):
    def __init__(self):
        super().__init__("toggle-publisher")

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64)
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)


class Sink(Service):
    def __init__(self):
        super().__init__("toggle-sink")
        self.samples = []
        self.events = []

    def on_start(self) -> None:
        self.ctx.subscribe_variable(VAR, on_sample=lambda v, t: self.samples.append(v))
        self.ctx.subscribe_event(EVENT, lambda v, t: self.events.append(v["seq"]))


def running_pair():
    runtime = SimRuntime(seed=3)
    publisher, sink = Publisher(), Sink()
    runtime.add_container("pub", **switches_off()).install_service(publisher)
    runtime.add_container("sub", **switches_off()).install_service(sink)
    runtime.start()
    assert runtime.run_until(
        lambda: hasattr(publisher, "event") and publisher.event.subscribers, timeout=10.0
    )
    # Warm the reliable stream both ways before anything is armed.
    publisher.event.raise_event({"seq": 0, "samples": [0.0]})
    publisher.var.publish(0.0)
    runtime.run_for(WINDOW)
    assert sink.events == [0] and sink.samples == [0.0]
    return runtime, publisher, sink


def test_enable_admission_drops_the_next_frames():
    runtime, publisher, sink = running_pair()
    sub = runtime.container("sub")
    assert (sub.admission.admitted, sub.admission.dropped) == (0, 0)
    # One frame per source, then nothing: the second sample is dropped.
    runtime.enable_admission(
        AdmissionPolicy(enabled=True, source_rate=0.001, source_burst=1.0, band_rates={})
    )
    publisher.var.publish(1.0)
    publisher.var.publish(2.0)
    runtime.run_for(WINDOW)
    assert sub.admission.admitted == 1
    assert sub.admission.dropped == 1
    # Jitter may reorder the two datagrams; exactly one gets through.
    assert len(sink.samples) == 2 and sink.samples[1] in (1.0, 2.0)
    assert runtime.metrics_snapshot()[
        "admission_drops{band=2,container=sub,reason=source-rate,source=pub}"
    ] == 1


def test_enable_tracing_records_spans_for_the_next_event():
    runtime, publisher, sink = running_pair()
    assert runtime.trace_spans() == []
    runtime.enable_tracing()
    publisher.event.raise_event({"seq": 1, "samples": [1.0]})
    runtime.run_for(WINDOW)
    spans = runtime.trace_spans()
    assert {span.container for span in spans} == {"pub", "sub"}
    assert sink.events == [0, 1]


def test_harden_reliability_rejects_the_next_forged_ack():
    runtime, publisher, sink = running_pair()
    pub = runtime.container("pub")
    sender = pub.links._senders["sub"]
    assert sender.future_acks == 0
    runtime.harden_reliability()
    # An ACK for a sequence number the stream never issued is forgery.
    forged = Frame(
        kind=MessageKind.ACK,
        source="sub",
        payload=encode_ack([10_000]),
        channel=RELIABLE_CHANNEL,
    )
    assert runtime.container("sub").send_unicast("pub", forged)
    runtime.run_for(WINDOW)
    assert sender.future_acks == 1
    assert pub.metrics.counter_value(
        "reliability_abuse", peer="sub", reason="future-ack"
    ) == 1


def test_enable_payload_sanitizer_checks_the_next_event():
    runtime, publisher, sink = running_pair()
    runtime.enable_payload_sanitizer("checksum")
    payload = {"seq": 1, "samples": [1.0, 2.0]}
    publisher.event.raise_event(payload)
    runtime.run_for(WINDOW)
    payload["samples"].append(3.0)  # mutated after publishing
    publisher.event.raise_event({"seq": 2, "samples": [4.0]})
    runtime.run_for(WINDOW)
    violations = runtime.sanitizer_violations()
    assert list(violations) == ["pub"]
    assert len(violations["pub"]) == 1
    assert sink.events == [0, 1, 2]
