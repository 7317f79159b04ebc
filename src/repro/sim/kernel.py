"""The discrete-event simulator.

A classic calendar-queue kernel: callbacks are scheduled at absolute virtual
times and executed in (time, insertion-order) order. Ties are broken by
insertion order, which — combined with seeded RNGs everywhere — makes whole
experiments bit-reproducible.

Cancelled timers stay in the heap (removing an arbitrary heap entry is
O(n)), but the kernel tracks the cancelled count so :attr:`Simulator.pending`
is O(1), and compacts the heap in place once cancelled entries outnumber
live ones — long chaos campaigns cancel retransmit timers by the thousands
and must not grow the queue unboundedly.

Fleet-scale missions push O(100k+) in-flight events through this loop, so
a heap entry is a plain three-slot list ``[time, seq, callback]``: the heap
orders entries by list comparison, which runs in C (``seq`` is unique, so the
callback is never compared). Cancelling, or running, an entry clears its
callback slot in place. :meth:`Simulator.run` binds its hot names once per
call instead of once per event.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

#: Never bother compacting queues smaller than this.
_COMPACT_MIN_QUEUE = 64


class TimerHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("_entry", "_sim", "_cancelled")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim
        self._cancelled = False

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        entry = self._entry
        # A cleared slot means the entry already ran: nothing is left in the
        # heap to account for.
        if entry[2] is not None:
            entry[2] = None
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def when(self) -> float:
        return self._entry[0]


class Simulator:
    """Single-threaded virtual-time event loop.

    Also implements the :class:`repro.util.Clock` protocol, so components can
    be handed the simulator itself as their time source.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: List[list] = []
        self._seq = 0
        self._running = False
        self._events_executed = 0
        #: Cancelled-but-still-heaped entries; pending = len(queue) - this.
        self._cancelled = 0

    # -- Clock protocol ----------------------------------------------------
    def now(self) -> float:
        return self._now

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` ``delay`` seconds from now (>= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        entry = [when, self._seq, callback]
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return TimerHandle(entry, self)

    def schedule_fire(self, when: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule_at`: no :class:`TimerHandle` is
        allocated. The network's delivery path schedules hundreds of
        thousands of never-cancelled events per fleet mission; skipping the
        handle object is a measurable win and changes no ordering."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heapq.heappush(self._queue, [when, self._seq, callback])
        self._seq += 1

    def call_soon(self, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at the current time, after already-queued events
        scheduled for this instant."""
        return self.schedule(0.0, callback)

    # -- cancellation accounting -------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled * 2 > len(self._queue)
            and len(self._queue) >= _COMPACT_MIN_QUEUE
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (run() may be
        iterating over the same list object)."""
        self._queue[:] = [e for e in self._queue if e[2] is not None]
        heapq.heapify(self._queue)
        self._cancelled = 0

    # -- execution ---------------------------------------------------------
    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending(self) -> int:
        return len(self._queue) - self._cancelled

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            entry[2] = None
            self._now = entry[0]
            self._events_executed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed. Returns the final virtual time.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so periodic measurements line up.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                entry = queue[0]
                callback = entry[2]
                if callback is None:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                # Cleared before it runs, so a cancel() from inside the
                # callback (or later) finds nothing left to account for.
                entry[2] = None
                self._now = entry[0]
                self._events_executed += 1
                executed += 1
                callback()
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` virtual seconds from the current time."""
        return self.run(until=self._now + duration)


__all__ = ["Simulator", "TimerHandle"]
