"""Packet-trace identity of the reliable control path under heavy loss.

A seeded :class:`SimRuntime` runs on a medium that drops 15% of packets.
One publisher raises an acknowledged event to four subscriber containers
every 10 ms, five per initial retransmit timeout, and calls a one-argument
function on a server container every third window. Frames to several peers
are therefore in flight at once, their retransmit deadlines fall on the
same virtual instant, and the kernel breaks those ties by the order the
timers were armed in. The scenario runs twice: with the default
retransmit policy, and with a window of two frames so most sends wait in
the backlog and drain as ACKs arrive.

Each run is reduced to four digests, as in ``test_hot_path_identity.py``:
every delivered packet, the fleet-wide metrics snapshot, every flight
recorder's dump and entry count, and what the services saw (event values
and arrival times, call results). ``EXPECTED`` holds the digests of the
implementation before the reliable path was straightened (one-call ACK
codec, prebuilt retransmit callbacks, fused unicast emission). A change
that arms, cancels or fires a retransmit timer in another order, or alters
a datagram, a counter or a recorder entry, fails here. Regenerate only for
a deliberate wire or observability change, from the repository root:

    PYTHONPATH=src python -m tests.integration.test_reliable_path_identity
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Dict, List, Tuple

import pytest

from repro import Service, SimRuntime
from repro.encoding.types import FLOAT64, UINT32, StructType
from repro.protocol.reliability import RetransmitPolicy
from repro.simnet.models import LinkModel
from repro.util.ids import reset_uid_counter
from tests.helpers import switches_off

SUBSCRIBERS = 4
LOSS = 0.15
WINDOWS = 150
WINDOW = 0.01
CALL_EVERY = 3
DRAIN = 3.0
SEED = 7

EVENT = "reliable.ident.event"
FUNCTION = "reliable.ident.scale"
EVENT_TYPE = StructType("ReliableIdentEvent", [("seq", UINT32), ("value", FLOAT64)])

#: variant name -> extra ``ContainerConfig`` fields of every container.
VARIANTS = {
    "default": {},
    "narrow-window": {"retransmit": RetransmitPolicy(window=2)},
}

EXPECTED: Dict[str, Dict[str, str]] = {
    "default": {
        "packets": "5cb0152ed7c4afd2",
        "metrics": "ea28438521896fe5",
        "recorder": "b86f58aa52c1e6b1",
        "deliveries": "99b3b32da8b83662",
    },
    "narrow-window": {
        "packets": "f9a8351772fbf981",
        "metrics": "b705003273a97bb3",
        "recorder": "caab4b677a0ab07c",
        "deliveries": "99edb90460b19a70",
    },
}


class Publisher(Service):
    def __init__(self):
        super().__init__("reliable-publisher")
        self.results: List[tuple] = []
        self.errors: List[tuple] = []

    def on_start(self) -> None:
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)

    def call(self, op: int, arg: float) -> None:
        self.ctx.call(
            FUNCTION,
            (arg,),
            on_result=lambda result: self.results.append((op, self.ctx.now(), result)),
            on_error=lambda exc: self.errors.append((op, self.ctx.now(), str(exc))),
        )


class Sink(Service):
    def __init__(self, name: str):
        super().__init__(name)
        self.seen: List[tuple] = []

    def on_start(self) -> None:
        self.ctx.subscribe_event(EVENT, self.on_event)

    def on_event(self, value, timestamp) -> None:
        self.seen.append((self.ctx.now(), value["seq"], value["value"]))


class Server(Service):
    def __init__(self):
        super().__init__("reliable-server")

    def on_start(self) -> None:
        self.ctx.provide_function(
            FUNCTION, lambda x: x * 3.0 + 1.0, params=[FLOAT64], result=FLOAT64
        )


def _digest(value) -> str:
    text = json.dumps(value, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def run_variant(name: str) -> Tuple[Dict[str, str], Dict[str, object]]:
    """Run one variant: its four digests, and facts the coverage test
    checks."""
    container_kwargs = {**switches_off(), **VARIANTS[name]}
    reset_uid_counter()
    runtime = SimRuntime(seed=SEED, default_link=LinkModel(loss=LOSS))
    trace = runtime.network.enable_trace()
    publisher = Publisher()
    runtime.add_container("pub", **container_kwargs).install_service(publisher)
    sinks = []
    for i in range(SUBSCRIBERS):
        sink = Sink(f"reliable-sink{i}")
        runtime.add_container(f"sub{i}", **container_kwargs).install_service(sink)
        sinks.append(sink)
    runtime.add_container("srv", **container_kwargs).install_service(Server())
    runtime.start()
    runtime.settle()

    links = runtime.container("pub").links
    peers = [f"sub{i}" for i in range(SUBSCRIBERS)]
    max_unacked = 0
    for op in range(WINDOWS):
        value = (op * 7919 % 2003) / 7.0 - 100.0
        publisher.event.raise_event({"seq": op, "value": value})
        if op % CALL_EVERY == 0:
            publisher.call(op, value)
        max_unacked = max(max_unacked, max(links.pending_to(p) for p in peers))
        runtime.run_for(WINDOW)
    runtime.run_for(DRAIN)

    packets = [
        (str(p.source), str(p.destination), p.payload.hex(), p.sent_at, p.delivered_at)
        for p in trace
    ]
    recorded = {cid: c.recorder.recorded for cid, c in sorted(runtime.containers.items())}
    deliveries = {
        "results": publisher.results,
        "errors": publisher.errors,
        "sinks": [sink.seen for sink in sinks],
    }
    snapshot = runtime.metrics_snapshot()
    digests = {
        "packets": _digest(packets),
        "metrics": _digest(snapshot),
        "recorder": _digest([runtime.flight_dumps(), recorded]),
        "deliveries": _digest(deliveries),
    }
    facts = {
        "retransmits": snapshot["retransmits{container=pub}"],
        "drops_loss": runtime.network.stats.drops_loss.packets,
        "max_unacked": max_unacked,
        "results": len(publisher.results),
        "events": [len(sink.seen) for sink in sinks],
    }
    runtime.stop()
    return digests, facts


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reliable_path_matches_recorded_digests(variant):
    assert run_variant(variant)[0] == EXPECTED[variant]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_scenario_exercises_the_reliable_path(variant):
    # The digests only guard what the scenario drives: heavy loss, many
    # retransmits, several frames in flight per peer, and deliveries.
    facts = run_variant(variant)[1]
    assert facts["drops_loss"] > 0
    assert facts["retransmits"] > WINDOWS // 10
    assert facts["max_unacked"] >= 3
    assert facts["results"] > 0
    assert min(facts["events"]) > 0


if __name__ == "__main__":
    print(json.dumps({name: run_variant(name)[0] for name in sorted(VARIANTS)}, indent=4))
