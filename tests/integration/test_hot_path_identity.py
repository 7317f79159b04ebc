"""Packet-trace identity of the per-datagram hot path.

A seeded :class:`SimRuntime` runs a control-path scenario: one publisher
sends a float64 variable and an acknowledged event to four subscriber
containers and calls a one-argument function on a server container, one op
per 20 ms virtual window. The scenario runs in three variants: the default
plane, a 2%-loss medium (so retransmits fire), and batching with ACK
coalescing. Each run is reduced to four digests:

- every delivered packet (source, destination, payload, sent and delivered
  virtual times), from ``SimNetwork.enable_trace()``;
- the fleet-wide ``metrics_snapshot()``;
- every container's flight-recorder dump, plus how many entries each
  container recorded over the whole run;
- the values, event sequence numbers and call results the services saw.

``EXPECTED`` holds the digests of the implementation before the hot path
was straightened (egress skipped when shaping and batching are off, one
accounting point per frame, the compiled payload codec by default, list
entries on the kernel heap). Any later change that reorders or alters a
datagram, a counter, a recorder entry or a delivery fails here. Regenerate
only for a deliberate wire or observability change, from the repository
root:

    PYTHONPATH=src python -m tests.integration.test_hot_path_identity
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from typing import Dict, List, Tuple

import pytest

from repro import Service, SimRuntime
from repro.encoding.types import FLOAT64, UINT32, StructType
from repro.simnet.models import LinkModel
from repro.util.ids import reset_uid_counter
from tests.helpers import switches_off

SUBSCRIBERS = 4
OPS = 90
WINDOW = 0.02
SEED = 5

VAR = "ident.var"
EVENT = "ident.event"
FUNCTION = "ident.scale"
EVENT_TYPE = StructType("IdentEvent", [("seq", UINT32), ("value", FLOAT64)])

#: variant name -> keyword arguments of SimRuntime and of every container.
VARIANTS = {
    "default": ({}, {}),
    "lossy": ({"default_link": LinkModel(loss=0.02)}, {}),
    "batched": (
        {},
        {"batching_enabled": True, "ack_coalesce_delay": 0.002},
    ),
}

EXPECTED: Dict[str, Dict[str, str]] = {
    "batched": {
        "packets": "57c78276a8d66638",
        "metrics": "7a2e440a9571150d",
        "recorder": "44dd5e1027e8116e",
        "deliveries": "ee16d5323226e5c7",
    },
    "default": {
        "packets": "463cd73536f4c0a9",
        "metrics": "a40106be3c5e41a2",
        "recorder": "a28be56e5351c712",
        "deliveries": "bdc7a05610682d57",
    },
    "lossy": {
        "packets": "94edba76d557a68b",
        "metrics": "737c1187616bc243",
        "recorder": "ecfae4dceaa60334",
        "deliveries": "7cfc8a1742cc939d",
    },
}


class Publisher(Service):
    def __init__(self):
        super().__init__("ident-publisher")
        self.results: List[tuple] = []

    def on_start(self) -> None:
        self.var = self.ctx.provide_variable(VAR, FLOAT64)
        self.event = self.ctx.provide_event(EVENT, EVENT_TYPE)

    def call(self, op: int, arg: float) -> None:
        self.ctx.call(
            FUNCTION,
            (arg,),
            on_result=lambda result: self.results.append((op, self.ctx.now(), result)),
        )


class Sink(Service):
    def __init__(self, name: str):
        super().__init__(name)
        self.seen: List[tuple] = []

    def on_start(self) -> None:
        self.ctx.subscribe_variable(VAR, on_sample=self.on_sample)
        self.ctx.subscribe_event(EVENT, self.on_event)

    def on_sample(self, value, timestamp) -> None:
        self.seen.append(("var", self.ctx.now(), value))

    def on_event(self, value, timestamp) -> None:
        self.seen.append(("event", self.ctx.now(), value["seq"], value["value"]))


class Server(Service):
    def __init__(self):
        super().__init__("ident-server")

    def on_start(self) -> None:
        self.ctx.provide_function(
            FUNCTION, lambda x: x * 3.0 + 1.0, params=[FLOAT64], result=FLOAT64
        )


def _digest(value) -> str:
    text = json.dumps(value, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def run_variant(name: str) -> Tuple[Dict[str, str], Dict[str, object]]:
    """Run one variant of the scenario: its four digests and its metrics
    snapshot."""
    runtime_kwargs, variant_kwargs = VARIANTS[name]
    container_kwargs = {**switches_off(), **variant_kwargs}
    reset_uid_counter()
    runtime = SimRuntime(seed=SEED, **runtime_kwargs)
    trace = runtime.network.enable_trace()
    publisher = Publisher()
    runtime.add_container("pub", **container_kwargs).install_service(publisher)
    sinks = []
    for i in range(SUBSCRIBERS):
        sink = Sink(f"ident-sink{i}")
        runtime.add_container(f"sub{i}", **container_kwargs).install_service(sink)
        sinks.append(sink)
    runtime.add_container("srv", **container_kwargs).install_service(Server())
    runtime.start()
    runtime.settle()

    rng = random.Random(SEED)
    for op in range(OPS):
        kind = ("var", "event", "rpc")[rng.randrange(3)]
        value = rng.uniform(-1e3, 1e3)
        if kind == "var":
            publisher.var.publish(value)
        elif kind == "event":
            publisher.event.raise_event({"seq": op, "value": value})
        else:
            publisher.call(op, value)
        runtime.run_for(WINDOW)
    runtime.run_for(1.0)

    packets = [
        (str(p.source), str(p.destination), p.payload.hex(), p.sent_at, p.delivered_at)
        for p in trace
    ]
    recorded = {cid: c.recorder.recorded for cid, c in sorted(runtime.containers.items())}
    deliveries = {
        "results": publisher.results,
        "sinks": [sink.seen for sink in sinks],
    }
    snapshot = runtime.metrics_snapshot()
    digests = {
        "packets": _digest(packets),
        "metrics": _digest(snapshot),
        "recorder": _digest([runtime.flight_dumps(), recorded]),
        "deliveries": _digest(deliveries),
    }
    runtime.stop()
    return digests, snapshot


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_hot_path_matches_recorded_digests(variant):
    assert run_variant(variant)[0] == EXPECTED[variant]


def test_scenario_exercises_every_variant_feature():
    # The digests only guard what the scenario drives: the lossy variant
    # must retransmit and the batched one must batch.
    assert run_variant("lossy")[1]["retransmits{container=pub}"] > 0
    assert run_variant("batched")[1]["egress_batches{container=pub}"] > 0


if __name__ == "__main__":
    print(json.dumps({name: run_variant(name)[0] for name in sorted(VARIANTS)}, indent=4))
