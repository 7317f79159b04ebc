"""Unit tests for the observability layer: tracer, span trees, the unified
metrics registry, the flight recorder, and the Tally-over-registry bridge."""

import json

import pytest

from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Span,
    TraceContext,
    Tracer,
    build_span_tree,
    format_span_tree,
)
from repro.protocol.frames import MessageKind
from repro.util import ManualClock
from repro.util.stats import Tally


class TestTracer:
    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer("c1", ManualClock())
        assert tracer.enabled is False
        span = tracer.start_span("op", "test")
        assert span is None
        tracer.finish(span)  # must tolerate None
        assert tracer.spans == []
        assert Tracer.context_of(None) is None

    def test_root_span_mints_a_new_trace(self):
        clock = ManualClock()
        tracer = Tracer("c1", clock, enabled=True)
        span = tracer.start_span("op", "test", key="v")
        assert span.trace_id == "c1-t1"
        assert span.span_id == "c1-s1"
        assert span.parent_id == ""
        assert span.attrs == {"key": "v"}
        assert not span.finished
        clock.advance(1.5)
        tracer.finish(span)
        assert span.finished
        assert span.duration == pytest.approx(1.5)

    def test_explicit_parent_joins_its_trace(self):
        tracer = Tracer("c2", ManualClock(), enabled=True)
        remote = TraceContext(trace_id="c1-t1", span_id="c1-s1")
        child = tracer.start_span("op", "test", parent=remote)
        assert child.trace_id == "c1-t1"
        assert child.parent_id == "c1-s1"
        assert child.span_id == "c2-s1"

    def test_ambient_context_parents_new_spans(self):
        tracer = Tracer("c1", ManualClock(), enabled=True)
        outer = tracer.start_span("outer", "test")
        with tracer.activate(outer.context()):
            inner = tracer.start_span("inner", "test")
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
        # Context is restored on exit: the next span is a fresh root.
        after = tracer.start_span("after", "test")
        assert after.parent_id == ""
        assert after.trace_id != outer.trace_id

    def test_activate_none_keeps_surrounding_context(self):
        tracer = Tracer("c1", ManualClock(), enabled=True)
        outer = tracer.start_span("outer", "test")
        with tracer.activate(outer.context()):
            with tracer.activate(None):
                assert tracer.current == outer.context()

    def test_finish_is_idempotent(self):
        clock = ManualClock()
        tracer = Tracer("c1", clock, enabled=True)
        span = tracer.start_span("op", "test")
        clock.advance(1.0)
        tracer.finish(span)
        clock.advance(1.0)
        tracer.finish(span)
        assert span.duration == pytest.approx(1.0)

    def test_ids_are_deterministic_per_tracer(self):
        def run():
            tracer = Tracer("c1", ManualClock(), enabled=True)
            for _ in range(3):
                tracer.finish(tracer.start_span("op", "test"))
            return [s.to_dict() for s in tracer.spans]

        assert run() == run()


class TestSpanTree:
    def _span(self, span_id, parent_id, start, container="c1"):
        return Span(
            trace_id="t", span_id=span_id, parent_id=parent_id,
            name=f"op-{span_id}", kind="test", container=container,
            start=start, end=start + 0.1,
        )

    def test_builds_nested_tree_sorted_by_start(self):
        spans = [
            self._span("s1", "", 0.0),
            self._span("s3", "s1", 2.0),
            self._span("s2", "s1", 1.0),
            self._span("s4", "s2", 3.0),
        ]
        roots = build_span_tree(spans)
        assert len(roots) == 1
        children = roots[0]["children"]
        assert [c["span_id"] for c in children] == ["s2", "s3"]
        assert [c["span_id"] for c in children[0]["children"]] == ["s4"]

    def test_unknown_parent_becomes_root_not_dropped(self):
        orphan = self._span("s9", "never-collected", 1.0)
        roots = build_span_tree([orphan])
        assert [r["span_id"] for r in roots] == ["s9"]

    def test_format_renders_depth_and_duration(self):
        spans = [self._span("s1", "", 0.0), self._span("s2", "s1", 1.0, "c2")]
        lines = format_span_tree(build_span_tree(spans))
        assert len(lines) == 2
        assert lines[0].startswith("t=0.000000 [c1]")
        assert lines[1].startswith("  t=1.000000 [c2]")
        assert "100.000 ms" in lines[0]


class TestMetricsRegistry:
    def test_instruments_are_identity_objects(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x", a="1") is not registry.counter("x", a="2")
        assert registry.counter("x", a="1", b="2") is registry.counter(
            "x", b="2", a="1"
        )

    def test_reads_never_create(self):
        registry = MetricsRegistry()
        assert registry.counter_value("missing") == 0
        assert registry.gauge_value("missing") == 0.0
        assert registry.histogram_values("missing") == []
        assert registry.snapshot() == {}

    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sent", kind="EVENT").inc(3)
        registry.gauge("depth").set(7.5)
        for v in (1.0, 2.0, 3.0):
            registry.histogram("lat").observe(v)
        snap = registry.snapshot()
        assert snap["sent{kind=EVENT}"] == 3
        assert snap["depth"] == 7.5
        assert snap["lat"]["n"] == 3
        assert snap["lat"]["mean"] == pytest.approx(2.0)

    def test_absorb_adds_labels_and_accumulates(self):
        fleet = MetricsRegistry()
        for cid, count in (("a", 2), ("b", 5)):
            local = MetricsRegistry()
            local.counter("calls").inc(count)
            local.histogram("lat").observe(float(count))
            fleet.absorb(local, container=cid)
        snap = fleet.snapshot()
        assert snap["calls{container=a}"] == 2
        assert snap["calls{container=b}"] == 5
        assert snap["lat{container=a}"]["n"] == 1
        # Absorbing twice accumulates counters (they are monotonic).
        local = MetricsRegistry()
        local.counter("calls").inc(1)
        fleet.absorb(local, container="a")
        assert fleet.counter_value("calls", container="a") == 3

    def test_snapshot_is_deterministically_ordered(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.gauge("m").set(1)
        # Ordered by (instrument kind, name, labels): counters, then gauges.
        assert list(registry.snapshot()) == ["a", "z", "m"]

    def test_collector_fills_its_counters_before_every_read(self):
        registry = MetricsRegistry()
        counts = {"EVENT": 0}
        runs = []

        def collect(target):
            runs.append(1)
            for kind, count in counts.items():
                target.counter("frames_sent", kind=kind).value = count

        registry.add_collector(["frames_sent"], collect)
        counts["EVENT"] = 3
        assert registry.counter_value("frames_sent", kind="EVENT") == 3
        counts["EVENT"] = 5
        assert registry.snapshot() == {"frames_sent{kind=EVENT}": 5}
        merged = MetricsRegistry()
        counts["EVENT"] = 6
        merged.absorb(registry, container="c")
        assert merged.counter_value("frames_sent", container="c", kind="EVENT") == 6
        # A lookup of another metric does not run it.
        before = len(runs)
        assert registry.counter_value("other") == 0
        assert len(runs) == before


class TestFlightRecorder:
    def test_ring_is_bounded_but_counts_everything(self):
        recorder = FlightRecorder(ManualClock(), capacity=4)
        for i in range(10):
            recorder.record("tx", seq=i)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [e["seq"] for e in recorder.dump()] == [6, 7, 8, 9]

    def test_entries_are_timestamped_oldest_first(self):
        clock = ManualClock()
        recorder = FlightRecorder(clock)
        recorder.record("lifecycle", service="s1", state="running")
        clock.advance(2.0)
        recorder.record("escalation", service="s1")
        dump = recorder.dump()
        assert [e["t"] for e in dump] == [0.0, 2.0]
        assert dump[0]["category"] == "lifecycle"

    def test_dump_json_round_trips(self):
        recorder = FlightRecorder(ManualClock(), capacity=2)
        recorder.record("tx", kind="EVENT", bytes=12)
        doc = json.loads(recorder.dump_json())
        assert doc["capacity"] == 2
        assert doc["recorded"] == 1
        assert doc["entries"][0]["kind"] == "EVENT"

    def test_frame_entries_dump_like_records(self):
        clock = ManualClock()
        by_frame, by_record = FlightRecorder(clock), FlightRecorder(clock)
        by_frame.frame("tx", MessageKind.EVENT, None, 7, 12)
        by_frame.frame("rx", MessageKind.ACK, "peer", 3, 6)
        by_record.record("tx", kind="EVENT", seq=7, bytes=12)
        by_record.record("rx", kind="ACK", source="peer", seq=3, bytes=6)
        assert by_frame.dump() == by_record.dump()
        assert [list(e) for e in by_frame.dump()] == [list(e) for e in by_record.dump()]
        assert by_frame.recorded == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(ManualClock(), capacity=0)


class TestTallyOverRegistry:
    def test_tally_writes_through_to_registry(self):
        registry = MetricsRegistry()
        tally = Tally(registry=registry, prefix="supervision.")
        tally.incr("restarts")
        tally.incr("restarts", 2)
        assert registry.counter_value("supervision.restarts") == 3
        # The tally's own snapshot stays unprefixed for existing callers.
        assert tally.snapshot()["restarts"] == 3

    def test_tally_series_become_histograms(self):
        registry = MetricsRegistry()
        tally = Tally(registry=registry, prefix="supervision.")
        tally.observe("downtime", 1.0)
        tally.observe("downtime", 3.0)
        assert registry.histogram_values("supervision.downtime") == [1.0, 3.0]
        assert tally.snapshot()["downtime"]["n"] == 2

    def test_standalone_tally_owns_a_registry(self):
        tally = Tally()
        tally.incr("x")
        assert tally.snapshot()["x"] == 1
        assert tally.registry.counter_value("x") == 1
