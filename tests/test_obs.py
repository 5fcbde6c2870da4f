"""Unit tests for the ``repro.obs`` subsystem.

Covers the tracer (nesting, attrs, the disabled no-op path, window
composition), the metrics registry (instrument kinds, label validation,
snapshot merging), the exporters (Chrome trace structure, per-rank comm
tracks, attribute sanitization, summary table), and the integration
points: ``CommStats`` publishing/merging and ``RoutingTelemetry``'s
registry-backed tallies plus its attached ``comm_stats`` window.
"""

import enum
import json

import numpy as np
import pytest

from repro.cluster.topology import LinkTier
from repro.comm.process_group import CommEvent, CommStats
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    merge_snapshots,
    metrics_json,
    record_routing_run,
    summary_table,
    use_tracer,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs import tracer as obs
from repro.obs.export import COMM_TID_BASE, MAIN_TID
from repro.routing import RoutingTelemetry


class TestTracer:
    def test_spans_nest_by_call_order(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with obs.span("step", "step") as outer:
                with obs.span("dispatch", "step"):
                    pass
                with obs.span("combine", "step"):
                    pass
        assert [s.name for s in tracer.spans] == ["dispatch", "combine", "step"]
        assert [s.name for s in tracer.roots()] == ["step"]
        assert [s.name for s in tracer.children(outer)] == ["dispatch", "combine"]
        assert all(s.seconds >= 0.0 for s in tracer.spans)

    def test_attrs_at_open_and_via_set(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with obs.span("step", "step", step=3) as sp:
                sp.set(cache_tier="hit", fused=True)
        (span,) = tracer.named("step")
        assert span.attrs == {"step": 3, "cache_tier": "hit", "fused": True}
        assert span.category == "step"

    def test_current_exposes_innermost_open_span(self):
        tracer = Tracer()
        assert obs.current() is None
        with use_tracer(tracer):
            with obs.span("outer"):
                with obs.span("inner") as inner:
                    assert obs.current() is inner
                    assert tracer.current() is inner
        assert obs.current() is None

    def test_disabled_path_is_the_shared_noop(self):
        assert not obs.enabled()
        first = obs.span("anything", "comm", bytes=1)
        second = obs.span("other")
        assert first is second  # the shared singleton — no allocation
        with first as sp:
            sp.set(ignored=True)  # discards silently
        assert obs.current() is None and obs.get_tracer() is None

    def test_use_tracer_restores_previous(self):
        outer_tracer, inner_tracer = Tracer(), Tracer()
        with use_tracer(outer_tracer):
            with use_tracer(inner_tracer):
                with obs.span("inner_only"):
                    pass
            assert obs.get_tracer() is outer_tracer
            with obs.span("outer_only"):
                pass
        assert obs.get_tracer() is None
        assert [s.name for s in inner_tracer.spans] == ["inner_only"]
        assert [s.name for s in outer_tracer.spans] == ["outer_only"]

    def test_out_of_order_finish_tolerated(self):
        tracer = Tracer()
        a = tracer.span("a")
        tracer.span("b")  # left open when a exits
        a.__exit__(None, None, None)
        assert tracer.current() is None  # popped through the orphan
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.spans] == ["a", "c"]

    def test_clear_resets_the_window(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        origin = tracer.origin
        tracer.clear()
        assert tracer.spans == [] and tracer.origin >= origin

    def test_span_seconds_zero_while_open(self):
        tracer = Tracer()
        span = tracer.span("open")
        assert span.seconds == 0.0
        span.__exit__(None, None, None)
        assert span.seconds > 0.0


class TestMetrics:
    def test_counter_rejects_negative_increments(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits")
        counter.inc(2)
        counter.inc(0.5)
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)
        assert counter.value == 2.5

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set_value(3)
        gauge.set_value(7.5)
        assert gauge.value == 7.5
        hist = reg.histogram("latency")
        child = hist.labels()  # instantiate the (single) unlabeled series
        assert child.snapshot() == {"count": 0, "sum": 0.0}  # min/max omitted
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        assert child.mean == 2.0 and child.min == 1.0 and child.max == 3.0

    def test_labeled_family_validates_label_names(self):
        reg = MetricsRegistry()
        family = reg.counter("comm_bytes", "op", "tier")
        family.labels(op="a2a", tier="INTER_NODE").inc(10)
        family.labels(op="a2a", tier="INTRA_NODE").inc(4)
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(op="a2a")
        with pytest.raises(ValueError, match="use .labels"):
            family.inc(1)
        assert {k for k in family.series()} == {
            ("a2a", "INTER_NODE"),
            ("a2a", "INTRA_NODE"),
        }

    def test_kind_and_label_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("x", "op")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", "op")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x", "tier")
        assert reg.counter("x", "op") is reg.families()["x"]  # idempotent

    def test_merge_snapshots_counters_add_gauges_right_bias(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("calls", "op").labels(op="a2a").inc(3)
        b.counter("calls", "op").labels(op="a2a").inc(4)
        b.counter("calls", "op").labels(op="bcast").inc(1)
        a.gauge("rate").set_value(0.25)
        b.gauge("rate").set_value(0.75)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        a.counter("only_left").inc(2)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["calls"]["series"] == {"op=a2a": 7.0, "op=bcast": 1.0}
        assert merged["rate"]["series"][""] == 0.75
        assert merged["h"]["series"][""] == {
            "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0,
        }
        assert merged["only_left"]["series"][""] == 2.0

    def test_merge_snapshots_equals_one_registry_seeing_both(self):
        def load(reg, amounts):
            for op, n in amounts:
                reg.counter("bytes", "op").labels(op=op).inc(n)

        a, b, both = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        load(a, [("a2a", 10), ("bcast", 2)])
        load(b, [("a2a", 5)])
        load(both, [("a2a", 10), ("bcast", 2), ("a2a", 5)])
        assert merge_snapshots(a.snapshot(), b.snapshot()) == both.snapshot()

    def test_merge_snapshots_mismatched_kinds_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set_value(1)
        with pytest.raises(ValueError, match="cannot merge"):
            merge_snapshots(a.snapshot(), b.snapshot())


class _Color(enum.Enum):
    RED = 1


class TestExport:
    def _traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with obs.span("step", "step", step=np.int64(2), color=_Color.RED):
                with obs.span(
                    "alltoall",
                    "comm",
                    ranks=[0, 1],
                    bytes=np.float64(2048.0),
                    bytes_by_tier={LinkTier.INTER_NODE: 2048.0},
                ):
                    pass
        return tracer

    def test_chrome_trace_structure_and_comm_tracks(self):
        doc = chrome_trace(self._traced(), process_name="test-proc")
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        json.dumps(doc)  # numpy/enum attrs were sanitized
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        step = next(e for e in complete if e["name"] == "step")
        assert step["tid"] == MAIN_TID
        assert step["args"] == {"step": 2, "color": "RED"}
        comm = [e for e in complete if e["name"] == "alltoall"]
        # duplicated onto one track per participating rank
        assert sorted(e["tid"] for e in comm) == [COMM_TID_BASE, COMM_TID_BASE + 1]
        for e in comm:
            assert e["args"]["bytes"] == 2048.0
            assert e["args"]["bytes_by_tier"] == {"INTER_NODE": 2048.0}
        names = {e["tid"]: e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names[MAIN_TID] == "main"
        assert names[COMM_TID_BASE] == "rank 0 comm"
        assert names[COMM_TID_BASE + 1] == "rank 1 comm"
        process = next(e for e in meta if e["name"] == "process_name")
        assert process["args"]["name"] == "test-proc"

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", self._traced())
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["name"] == "alltoall" for e in doc["traceEvents"])

    def test_metrics_json_schema(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("calls", "op").labels(op="a2a").inc(3)
        doc = metrics_json(reg)
        assert doc["schema"] == "repro.obs.metrics/v1"
        assert doc["metrics"]["calls"]["series"]["op=a2a"] == 3.0
        path = write_metrics_json(tmp_path / "metrics.json", reg)
        assert json.loads(path.read_text()) == doc

    def test_summary_table(self):
        tracer = self._traced()
        table = summary_table(tracer)
        lines = table.splitlines()
        assert lines[0].split(" | ")[0].strip() == "span"
        assert any("alltoall" in line and "MB" in line for line in lines)
        assert summary_table(Tracer()) == "(no spans recorded)"


def _event(op, seconds, by_tier):
    return CommEvent(
        op=op,
        group_size=2,
        total_bytes=float(sum(by_tier.values())),
        seconds=seconds,
        bottleneck_tier=max(by_tier, key=by_tier.get),
        bytes_by_tier=dict(by_tier),
    )


class TestCommStats:
    def test_merge_summaries_add(self):
        left = CommStats()
        left.record(_event("alltoall", 0.5, {LinkTier.INTER_NODE: 100.0}))
        left.record(_event("broadcast", 0.1, {LinkTier.INTRA_NODE: 8.0}))
        right = CommStats()
        right.record(_event("alltoall", 0.25, {LinkTier.INTER_NODE: 50.0,
                                               LinkTier.INTRA_NODE: 20.0}))
        merged = left.merge(right)
        assert merged.total_seconds == pytest.approx(
            left.total_seconds + right.total_seconds
        )
        assert merged.total_bytes == pytest.approx(
            left.total_bytes + right.total_bytes
        )
        assert merged.seconds_by_op() == {
            "alltoall": pytest.approx(0.75), "broadcast": pytest.approx(0.1),
        }
        assert merged.bytes_by_tier() == {
            LinkTier.INTER_NODE: pytest.approx(150.0),
            LinkTier.INTRA_NODE: pytest.approx(28.0),
        }
        # inputs untouched; the merged window has no metrics sink
        assert len(left.events) == 2 and len(right.events) == 1
        assert merged.metrics is None

    def test_record_publishes_to_registry(self):
        reg = MetricsRegistry()
        stats = CommStats(metrics=reg)
        stats.record(_event("alltoall", 0.5, {LinkTier.INTER_NODE: 100.0,
                                              LinkTier.INTRA_NODE: 24.0}))
        stats.record(_event("alltoall", 0.25, {LinkTier.INTER_NODE: 50.0}))
        snap = reg.snapshot()
        assert snap["comm_calls"]["series"]["op=alltoall"] == 2.0
        assert snap["comm_modeled_seconds"]["series"]["op=alltoall"] == 0.75
        assert snap["comm_bytes"]["series"] == {
            "op=alltoall,tier=INTER_NODE": 150.0,
            "op=alltoall,tier=INTRA_NODE": 24.0,
        }


class TestTelemetryIntegration:
    def test_comm_stats_window_starts_empty_and_attaches(self):
        telemetry = RoutingTelemetry(4)
        assert telemetry.comm_stats is None
        stats = CommStats()
        stats.record(_event("alltoall", 0.5, {LinkTier.INTER_NODE: 100.0}))
        telemetry.comm_stats = stats
        assert telemetry.comm_stats.total_bytes == 100.0

    def test_shared_registry_holds_both_publishers(self):
        reg = MetricsRegistry()
        telemetry = RoutingTelemetry(4, metrics=reg)
        stats = CommStats(metrics=reg)
        stats.record(_event("alltoall", 0.5, {LinkTier.INTER_NODE: 100.0}))
        snap = reg.snapshot()
        assert "routing_steps" in snap and "comm_calls" in snap
        assert telemetry.metrics is reg


class TestRecordRoutingRun:
    def test_smoke(self):
        tracer, registry, telemetry = record_routing_run(steps=2, num_ranks=4)
        steps = tracer.named("step")
        assert len(steps) == 2
        assert steps[0].attrs["cache_tier"] == "miss"
        assert telemetry.steps == 2
        assert telemetry.comm_stats is not None and telemetry.comm_stats.events
        snap = registry.snapshot()
        assert snap["routing_steps"]["series"][""] == 2.0
        assert any(name.startswith("comm_") for name in snap)
        # the recording window detached cleanly
        assert not obs.enabled()

    @pytest.mark.parametrize("dispatch,calls", [("flat", 2), ("rbd", 10), ("hier", 18)])
    def test_fused_steps_keep_comm_spans(self, dispatch, calls):
        """Every step — miss and warm alike — shows one comm span per collective.

        Fused steps move no data through the collectives, so their comm
        spans come from ``ExecProgram.replay_comm``: one per derived event,
        with the op, byte totals, per-tier split, modeled seconds and the
        participating ranks the Perfetto per-rank tracks need.
        """
        steps = 3
        tracer, _, telemetry = record_routing_run(
            steps=steps, num_ranks=32, dispatch=dispatch
        )
        assert all(s.attrs["fused"] for s in tracer.named("step"))
        comm = [s for s in tracer.spans if s.category == "comm"]
        events = telemetry.comm_stats.events
        assert len(comm) == len(events) == steps * calls
        for span, event in zip(comm, events):
            assert span.name == span.attrs["op"] == event.op
            assert span.attrs["bytes"] == event.total_bytes
            assert span.attrs["modeled_seconds"] == event.seconds
            assert span.attrs["ranks"] == event.ranks and len(event.ranks) == event.group_size
            assert sum(span.attrs["bytes_by_tier"].values()) == event.total_bytes
        tracks = {
            e["tid"]
            for e in chrome_trace(tracer)["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "comm"
        }
        assert tracks == {COMM_TID_BASE + rank for rank in range(32)}
