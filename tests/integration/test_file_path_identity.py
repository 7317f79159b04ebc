"""Packet-trace identity of the file primitive's multicast path.

A seeded :class:`SimRuntime` with 2% link loss runs a photo scenario: a
camera container multicasts three photos of 40-200 KiB to six receiver
containers (paper §4.4, one resource per photo). Five receivers subscribe
before each publish; the sixth joins the second photo mid-transfer, so it
catches up through the completion poll's NACK rounds. Then the camera
publishes a new revision of the first photo, which every receiver collects
again. The run is reduced to five digests:

- every delivered packet (source, destination, payload, sent and delivered
  virtual times), from ``SimNetwork.enable_trace()``;
- the fleet-wide ``metrics_snapshot()``;
- every container's flight-recorder dump, plus how many entries each
  container recorded over the whole run;
- each file manager's ``completed_transfers``, ``dropped_stragglers`` and
  ``bypassed_transfers``;
- what every receiver saw: resource, revision, virtual time and a digest of
  the bytes.

``EXPECTED`` holds the digests of the implementation before the fan-out
path was straightened (fused link draws, the dispatch table, direct payload
decode, the per-session send state). Any later change that reorders or
alters a datagram, a draw, a counter, a recorder entry or a completion fails
here. Regenerate only for a deliberate wire or observability change, from
the repository root:

    PYTHONPATH=src python -m tests.integration.test_file_path_identity
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from typing import Dict, List, Tuple

from repro import Service, SimRuntime
from repro.simnet.models import LinkModel
from repro.util.ids import reset_uid_counter
from tests.helpers import switches_off

SEED = 3
RECEIVERS = 6
#: Index of the receiver that joins the second photo mid-transfer.
LATE = RECEIVERS - 1
PHOTOS = 3
MIN_SIZE = 40 << 10
MAX_SIZE = 200 << 10
LOSS = 0.02
RESOURCE = "ident.photo.{}"
#: Virtual seconds of the second photo's transfer before the late receiver
#: subscribes (its 200-odd chunks take ~40 ms at the default pacing).
LATE_JOIN_AFTER = 0.01
PHOTO_TIMEOUT = 30.0
SETTLE = 0.2

EXPECTED: Dict[str, str] = {
    "packets": "f5605c9e6ce5e85c",
    "metrics": "d5742288fd9b0b39",
    "recorder": "a24e521a5e8f0c9a",
    "transfers": "f6408156f614b2cd",
    "received": "f90d99306ce4baaa",
}


class Camera(Service):
    def __init__(self):
        super().__init__("ident-camera")


class Receiver(Service):
    def __init__(self, name: str):
        super().__init__(name)
        self.received: List[tuple] = []  # (resource, revision, now, sha256)

    def expect(self, name: str):
        return self.ctx.subscribe_file(
            name,
            on_complete=lambda data, revision: self.received.append(
                (name, revision, self.ctx.now(), hashlib.sha256(data).hexdigest())
            ),
        )


def photos(seed: int) -> List[bytes]:
    rng = random.Random(seed)
    return [
        rng.randbytes(rng.randrange(MIN_SIZE, MAX_SIZE + 1)) for _ in range(PHOTOS)
    ]


def _digest(value) -> str:
    text = json.dumps(value, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _packets_digest(trace) -> str:
    """The packet trace hashed one packet at a time (it holds megabytes of
    chunk payload)."""
    hasher = hashlib.sha256()
    for p in trace:
        head = json.dumps([str(p.source), str(p.destination), p.sent_at, p.delivered_at])
        hasher.update(head.encode("utf-8"))
        hasher.update(len(p.payload).to_bytes(4, "big"))
        hasher.update(p.payload)
    return hasher.hexdigest()[:16]


def _collect(runtime: SimRuntime, receivers: List[Receiver], count: int) -> bool:
    return runtime.run_until(
        lambda: all(len(r.received) >= count for r in receivers),
        timeout=PHOTO_TIMEOUT,
        poll=0.01,
    )


@functools.lru_cache(maxsize=None)
def run_scenario() -> Tuple[Dict[str, str], Dict[str, object]]:
    """Run the scenario: its digests, and facts the coverage test checks."""
    reset_uid_counter()
    runtime = SimRuntime(seed=SEED, default_link=LinkModel(loss=LOSS))
    trace = runtime.network.enable_trace()
    camera = Camera()
    runtime.add_container("cam", **switches_off()).install_service(camera)
    receivers = []
    for i in range(RECEIVERS):
        receiver = Receiver(f"ident-rx{i}")
        runtime.add_container(f"rx{i}", **switches_off()).install_service(receiver)
        receivers.append(receiver)
    runtime.start()
    runtime.settle()

    images = photos(SEED)
    completed = []
    for index, image in enumerate(images):
        name = RESOURCE.format(index)
        late = index == 1
        for i, receiver in enumerate(receivers):
            if not (late and i == LATE):
                receiver.expect(name)
        camera.ctx.publish_file(name, image)
        if late:
            runtime.run_for(LATE_JOIN_AFTER)
            receivers[LATE].expect(name)
        completed.append(_collect(runtime, receivers, index + 1))
        runtime.run_for(SETTLE)
    # A new revision of the first photo: its subscriptions are still live.
    revised = bytes(b ^ 0x5A for b in images[0][: len(images[0]) // 2])
    camera.ctx.publish_file(RESOURCE.format(0), revised)
    completed.append(_collect(runtime, receivers, PHOTOS + 1))
    runtime.run_for(SETTLE)

    files = {cid: c.files for cid, c in sorted(runtime.containers.items())}
    transfers = {
        cid: [m.completed_transfers, m.dropped_stragglers, m.bypassed_transfers]
        for cid, m in files.items()
    }
    recorded = {cid: c.recorder.recorded for cid, c in sorted(runtime.containers.items())}
    received = [r.received for r in receivers]
    snapshot = runtime.metrics_snapshot()
    digests = {
        "packets": _packets_digest(trace),
        "metrics": _digest(snapshot),
        "recorder": _digest([runtime.flight_dumps(), recorded]),
        "transfers": _digest(transfers),
        "received": _digest(received),
    }
    facts = {
        "completed": completed,
        "revisions": sorted({rev for got in received for _, rev, _, _ in got}),
        "late_photo": received[LATE][1][0] if len(received[LATE]) > 1 else None,
        "drops_loss": runtime.network.stats.drops_loss.packets,
        "nacks": sum(
            value
            for key, value in snapshot.items()
            if key.startswith("frames_received{") and "FILE_COMPLETION_NACK" in key
        ),
    }
    runtime.stop()
    return digests, facts


def test_file_path_matches_recorded_digests():
    assert run_scenario()[0] == EXPECTED


def test_scenario_exercises_the_file_path():
    # The digests only guard what the scenario drives: loss, NACK repair,
    # a late join that completes, and a second revision.
    facts = run_scenario()[1]
    assert all(facts["completed"]), facts
    assert facts["drops_loss"] > 0
    assert facts["nacks"] > 0
    assert facts["late_photo"] == RESOURCE.format(1)
    assert facts["revisions"] == [1, 2]


if __name__ == "__main__":
    digests, facts = run_scenario()
    print(json.dumps({"digests": digests, "facts": facts}, indent=4))
