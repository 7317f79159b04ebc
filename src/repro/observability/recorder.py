"""The flight recorder: a bounded ring of recent container activity.

Every container keeps the last ``capacity`` entries — frames sent and
received, service lifecycle transitions, escalations and emergencies — so
that when a chaos campaign trips an invariant the investigator gets the
moments *before* the violation, not just the verdict. Dumps are plain
dicts (JSON-serializable by construction) ordered oldest-first.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.util.clock import Clock

if TYPE_CHECKING:
    from repro.protocol.frames import MessageKind


class FlightRecorder:
    """Fixed-capacity ring buffer of timestamped entries."""

    def __init__(self, clock: Clock, capacity: int = 256):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        # Entries are stored raw and shaped into dicts at dump time:
        # (t, category, fields) from record(), and the positional
        # (t, category, kind, source, seq, nbytes) from frame(), which sits
        # on the per-frame tx/rx path.
        self._entries: Deque[tuple] = deque(maxlen=capacity)
        #: Entries recorded over the whole run (the ring only keeps the tail).
        self.recorded = 0

    def record(self, category: str, **fields: object) -> None:
        self.recorded += 1
        self._entries.append((self._clock.now(), category, fields))

    def frame(
        self, category: str, kind: MessageKind, source: Optional[str], seq: int, nbytes: int
    ) -> None:
        """One frame sent (``"tx"``, ``source`` None) or received (``"rx"``).

        Dumps as ``record(category, kind=kind.name, [source=source,]
        seq=seq, bytes=nbytes)`` would; the dict is built at dump time.
        """
        self.recorded += 1
        self._entries.append(
            (self._clock.now(), category, kind, source, seq, nbytes)
        )

    def dump(self) -> List[Dict[str, object]]:
        """The retained entries, oldest first."""
        out: List[Dict[str, object]] = []
        for entry in self._entries:
            if len(entry) == 3:
                t, category, fields = entry
            else:
                t, category, kind, source, seq, nbytes = entry
                fields = {"kind": kind.name}
                if source is not None:
                    fields["source"] = source
                fields["seq"] = seq
                fields["bytes"] = nbytes
            out.append({"t": t, "category": category, **fields})
        return out

    def dump_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "entries": self.dump(),
            },
            indent=indent,
            default=str,
        )

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


__all__ = ["FlightRecorder"]
