"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import Simulator
from repro.util.rng import SeededRng


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda lbl=label: order.append(lbl))
        sim.run()
        assert order == list("abcde")

    def test_now_tracks_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now()))
        sim.schedule(2.5, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [0.5, 2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def first():
            hits.append(sim.now())
            sim.schedule(1.0, lambda: hits.append(sim.now()))

        sim.schedule(1.0, first)
        sim.run()
        assert hits == [1.0, 2.0]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.call_soon(lambda: seen.append(sim.now()))

        sim.schedule(4.0, outer)
        sim.run()
        assert seen == [4.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, lambda: hits.append(1))
        handle.cancel()
        sim.run()
        assert hits == []
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.when == 1.0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_keeps_accounting(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        # Cancelling a fired timer is a no-op for pending but still flips
        # the handle (retransmit loops cancel unconditionally on success).
        handle.cancel()
        assert handle.cancelled
        assert sim.pending == 0

    def test_mass_cancellation_compacts_queue(self):
        sim = Simulator()
        hits = []
        keepers = [
            sim.schedule(float(i) + 0.5, lambda i=i: hits.append(i))
            for i in range(10)
        ]
        victims = [sim.schedule(float(i), lambda: hits.append(-1)) for i in range(500)]
        for handle in victims:
            handle.cancel()
        # Cancelled entries outnumber live ones — the heap must have shed them.
        assert sim.pending == 10
        assert len(sim._queue) < 100
        sim.run()
        assert hits == list(range(10))
        assert all(h.cancelled for h in victims)
        assert not any(k.cancelled for k in keepers)

    def test_pending_is_consistent_through_run(self):
        sim = Simulator()
        for i in range(50):
            sim.schedule(float(i), lambda: None)
        cancelled = [sim.schedule(float(i) + 0.25, lambda: None) for i in range(50)]
        for handle in cancelled:
            handle.cancel()
        assert sim.pending == 50
        sim.run()
        assert sim.pending == 0
        assert sim.events_executed == 50

    def test_cancel_during_run_keeps_order_and_counts(self):
        sim = Simulator()
        order = []
        later = sim.schedule(5.0, lambda: order.append("late"))

        def first():
            order.append("first")
            later.cancel()

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]
        assert sim.pending == 0


class TestRunBounds:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(5.0, lambda: hits.append(5))
        sim.run(until=2.0)
        assert hits == [1]
        assert sim.now() == 2.0
        sim.run()
        assert hits == [1, 5]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now() == 7.0

    def test_run_for_is_relative(self):
        sim = Simulator(start=10.0)
        sim.run_for(2.5)
        assert sim.now() == 12.5

    def test_max_events_bound(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: hits.append(i))
        sim.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_not_reentrant(self):
        sim = Simulator()
        error = {}

        def nested():
            try:
                sim.run()
            except RuntimeError as exc:
                error["raised"] = str(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert "reentrant" in error["raised"]

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestHotPathAtScale:
    """Fleet-scale guarantees of the kernel hot path."""

    def test_schedule_fire_orders_like_schedule_at(self):
        # The fire-and-forget fast path must interleave with handle-bearing
        # timers exactly by (time, insertion order).
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_fire(1.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("c"))
        sim.schedule_fire(0.5, lambda: order.append("d"))
        sim.run()
        assert order == ["d", "a", "b", "c"]

    def test_schedule_fire_rejects_past(self):
        sim = Simulator(start=3.0)
        with pytest.raises(ValueError):
            sim.schedule_fire(2.0, lambda: None)

    def test_compaction_with_interleaved_cancels_at_scale(self):
        # A retransmit-heavy mission cancels timers by the thousands,
        # interleaved with live events. The heap must shed them, keep the
        # survivors in exact order, and keep `pending` truthful throughout.
        sim = Simulator()
        rng = SeededRng(42)
        hits = []
        live = {}
        handles = {}
        for i in range(5000):
            when = rng.uniform(0.0, 100.0)
            handles[i] = sim.schedule(when, lambda i=i: hits.append(i))
            live[i] = when
        order = list(range(5000))
        rng.shuffle(order)
        for i in order[:4500]:
            handles[i].cancel()
            del live[i]
        assert sim.pending == len(live) == 500
        # Compaction must have bounded the physical queue.
        assert len(sim._queue) < 2 * 500 + 64
        sim.run()
        expected = [i for i, _ in sorted(live.items(), key=lambda kv: (kv[1], kv[0]))]
        assert hits == expected
        assert sim.pending == 0

    def test_batch_tie_break_is_deterministic(self):
        # Two identical schedules of a same-instant batch (mixed fast-path
        # and handle-path inserts) must fire in the same total order.
        def run_once():
            sim = Simulator()
            order = []
            for i in range(200):
                if i % 3 == 0:
                    sim.schedule_fire(1.0, lambda i=i: order.append(i))
                else:
                    sim.schedule_at(1.0, lambda i=i: order.append(i))
            sim.run()
            return order

        first, second = run_once(), run_once()
        assert first == second == list(range(200))

    def test_schedule_n_events_costs_n_log_n_comparisons(self):
        # Counter-based guard: pushing and popping N randomly-timed events
        # must stay within a small constant of N log2 N element
        # comparisons — the heap is not allowed to degenerate. Heap entries
        # compare by their time first, so the count is taken on the times.
        n = 4096
        counts = {"lt": 0}

        class CountingTime(float):
            def __lt__(self, other):
                counts["lt"] += 1
                return float.__lt__(self, other)

        sim = Simulator()
        rng = SeededRng(7)
        for _ in range(n):
            sim.schedule_fire(CountingTime(rng.uniform(0.0, 1000.0)), lambda: None)
        sim.run()
        assert sim.events_executed == n
        assert counts["lt"] > n  # the heap really compared the times
        bound = 4 * n * math.log2(n)
        assert counts["lt"] <= bound, (
            f"{counts['lt']} comparisons for {n} events exceeds "
            f"O(N log N) bound {bound:.0f}"
        )
