"""Tests for the unified observability layer (``repro.obs``)."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    CLOCK_VIRTUAL,
    LatencyHistogram,
    Span,
    Trace,
    global_trace,
    render_rollup,
    reset_global_trace,
    rollup,
    spans_by,
    validate_chrome_trace,
)
from repro.obs.metrics import BIN_FLOOR_S, bin_upper_edge_s, metrics_layout
from repro.runtime.profiler import StageTimings
from repro.serve.telemetry import export_metrics


class TestSpan:
    def test_round_trip(self):
        span = Span(
            "solve", "nls", start_s=1.5, duration_s=0.25, depth=2, track=1,
            attributes={"damping": 1e-4},
        )
        assert span.end_s == pytest.approx(1.75)
        assert Span.from_dict(span.as_dict()) == span

    def test_dict_keys_are_canonical(self):
        keys = set(Span("x").as_dict())
        assert keys == {"name", "cat", "start_s", "dur_s", "depth", "track", "args"}


class TestTrace:
    def test_nesting_depth(self):
        trace = Trace()
        with trace.span("outer"):
            with trace.span("middle"):
                with trace.span("inner"):
                    pass
        by_name = {s.name: s for s in trace.spans}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["inner"].depth == 2
        # Spans are appended on exit: innermost first.
        assert [s.name for s in trace.spans] == ["inner", "middle", "outer"]

    def test_span_yields_live_record(self):
        trace = Trace()
        with trace.span("work", category="test", tag=1) as span:
            span.attributes["late"] = True
        assert span.duration_s >= 0.0
        assert span.attributes == {"tag": 1, "late": True}

    def test_virtual_clock_rejects_measuring(self):
        trace = Trace(clock=CLOCK_VIRTUAL)
        with pytest.raises(ValueError):
            with trace.span("nope"):
                pass

    def test_virtual_spans_pin_track_zero(self):
        trace = Trace(clock=CLOCK_VIRTUAL)

        def record(i):
            trace.add_span("ev", start_s=float(i), duration_s=0.5)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(record, range(16)))
        assert len(trace) == 16
        assert all(s.track == 0 for s in trace.spans)

    def test_thread_safety_and_per_thread_depth(self):
        trace = Trace()
        barrier = threading.Barrier(4)

        def work(_):
            barrier.wait()
            for _ in range(25):
                with trace.span("outer"):
                    with trace.span("inner"):
                        pass

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))
        assert len(trace) == 4 * 25 * 2
        # Nesting stacks are thread-local: every inner span sits at
        # depth 1 no matter how the threads interleaved.
        assert all(s.depth == 1 for s in trace.spans if s.name == "inner")
        assert all(s.depth == 0 for s in trace.spans if s.name == "outer")
        assert len({s.track for s in trace.spans}) <= 4

    def test_absorb_is_atomic_and_shifts_depth(self):
        child = Trace(name="window")
        with child.span("solve", category="nls"):
            pass
        child.add_measured("linearize", category="nls", duration_s=0.5)
        shared = Trace()
        parent = shared.absorb(child, name="window", category="nls",
                               attributes={"frame_id": 3})
        assert parent.attributes == {"frame_id": 3}
        names = [s.name for s in shared.spans]
        assert names[0] == "window"
        assert set(names[1:]) == {"solve", "linearize"}
        child_depths = [s.depth for s in shared.spans[1:]]
        assert all(d >= 1 for d in child_depths)
        # The parent covers its children's extent.
        assert parent.start_s <= min(s.start_s for s in shared.spans[1:])
        assert parent.end_s >= max(s.end_s for s in shared.spans[1:])

    def test_totals(self):
        trace = Trace(clock=CLOCK_VIRTUAL)
        trace.add_span("a", category="x", duration_s=1.0)
        trace.add_span("b", category="x", duration_s=2.0)
        trace.add_span("a", category="y", duration_s=4.0)
        assert trace.totals() == {"x": 3.0, "y": 4.0}
        assert trace.totals(by="name") == {"a": 5.0, "b": 2.0}
        assert trace.totals(by="both") == {"x/a": 1.0, "x/b": 2.0, "y/a": 4.0}

    def test_spans_by_category(self):
        trace = Trace(clock=CLOCK_VIRTUAL)
        trace.add_span("a", category="x")
        trace.add_span("b", category="y")
        assert [s.name for s in spans_by(trace.spans, "y")] == ["b"]


class TestExports:
    def _sample(self):
        trace = Trace(clock=CLOCK_VIRTUAL, name="sample")
        trace.add_span("service", category="serve", start_s=1.0,
                       duration_s=0.25, depth=1, session=0)
        trace.add_span("batch", category="serve", start_s=1.0, duration_s=0.5)
        return trace

    def test_chrome_export_is_schema_valid(self, tmp_path):
        path = self._sample().export_chrome(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        events = data["traceEvents"]
        # Timestamps are normalized to the trace start, in microseconds.
        assert min(e["ts"] for e in events) == 0.0
        assert {e["name"] for e in events} == {"service", "batch"}

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"name": "x", "cat": "c", "ph": "Z",
                                "ts": -1, "dur": 1, "pid": 1, "tid": 0}]}
        problems = validate_chrome_trace(bad)
        assert any("phase" in p for p in problems)
        assert any("ts" in p for p in problems)

    def test_jsonl_round_trip(self, tmp_path):
        trace = self._sample()
        path = trace.export_jsonl(tmp_path / "trace.jsonl")
        loaded = Trace.from_jsonl(path, clock=CLOCK_VIRTUAL)
        assert loaded.spans == trace.spans

    def test_virtual_jsonl_is_byte_stable(self):
        a, b = self._sample(), self._sample()
        assert a.to_jsonl() == b.to_jsonl()


class TestGlobalTrace:
    def test_reset_swaps_instance(self):
        first = global_trace()
        second = reset_global_trace()
        assert first is not second
        assert global_trace() is second


class TestHistogramEdges:
    def test_quantile_zero_returns_smallest_observed_bin(self):
        histogram = LatencyHistogram()
        histogram.record(1.0)  # far above the first bin
        # Pre-fix: rank 0 tripped on the first (empty) bin and reported
        # the bin floor; now q=0 reports the smallest observed sample.
        assert histogram.percentile(0.0) == pytest.approx(1.0)

    def test_quantile_one_is_the_max(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.004):
            histogram.record(value)
        assert histogram.percentile(1.0) == pytest.approx(0.004)

    def test_single_sample_all_quantiles_agree(self):
        histogram = LatencyHistogram()
        histogram.record(0.010)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == histogram.percentile(0.5)

    def test_all_samples_below_floor(self):
        histogram = LatencyHistogram()
        for _ in range(5):
            histogram.record(BIN_FLOOR_S / 10)
        assert histogram.counts[0] == 5
        assert histogram.percentile(0.5) == pytest.approx(BIN_FLOOR_S / 10)
        assert histogram.percentile(0.0) <= BIN_FLOOR_S


class TestMetricsRegistry:
    """The ``OBS_METRICS.json`` layout and its export."""

    def test_export_json_is_canonical(self, tmp_path):
        layout = metrics_layout(
            counters={"b": 1, "a": 2}, gauges={"depth": 7}, histograms={}
        )
        path = export_metrics(layout, tmp_path / "OBS_METRICS.json")
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        # Values are written as floats: an integer count reads "2.0".
        assert '"a": 2.0' in text and '"depth": 7.0' in text


class TestStageTimingsView:
    def test_from_trace_sums_stage_spans(self):
        trace = Trace(clock=CLOCK_VIRTUAL)
        trace.add_span("linearize", category="nls", duration_s=1.0)
        trace.add_span("linearize", category="nls", duration_s=2.0)
        trace.add_span("solve", category="nls", duration_s=0.5)
        trace.add_span("window", category="nls", duration_s=99.0)  # ignored
        timings = StageTimings.from_trace(trace)
        assert timings.linearize_s == pytest.approx(3.0)
        assert timings.solve_s == pytest.approx(0.5)
        assert timings.assemble_s == 0.0
        assert timings.total_s == pytest.approx(3.5)


class TestRollup:
    def test_rollup_orders_by_total(self):
        spans = [
            Span("a", "x", duration_s=1.0),
            Span("b", "x", duration_s=3.0),
            Span("a", "x", duration_s=1.5),
        ]
        rows = rollup(spans)
        assert [(r.category, r.name) for r in rows] == [("x", "b"), ("x", "a")]
        assert rows[1].count == 2
        assert rows[1].mean_s == pytest.approx(1.25)

    def test_render_mentions_names_and_shares(self):
        spans = [Span("solve", "nls", duration_s=0.2)]
        text = render_rollup(spans, title="demo")
        assert "solve" in text and "nls" in text and "100.0%" in text


class TestEngineSpans:
    def test_artifact_fetches_record_provenance(self, tmp_path):
        from repro.engine import Engine
        from repro.engine.stage import Stage

        class Doubler(Stage):
            name = "doubler"
            version = "1"

            def compute(self, config, engine):
                return config * 2

        trace = Trace()
        engine = Engine(use_disk=False, trace=trace)
        stage = Doubler()
        assert engine.run(stage, 21) == 42
        assert engine.run(stage, 21) == 42
        spans = spans_by(trace.spans, "engine")
        assert [s.attributes["source"] for s in spans] == ["computed", "memory"]
        assert all(s.name == "doubler" for s in spans)

    def test_parallel_runs_record_every_fetch(self):
        from repro.engine import Engine
        from repro.engine.stage import Stage

        class Ident(Stage):
            name = "ident"
            version = "1"

            def compute(self, config, engine):
                return config

        trace = Trace()
        engine = Engine(use_disk=False, jobs=4, trace=trace)
        configs = list(range(32))
        assert engine.map(Ident(), configs) == configs
        assert len(spans_by(trace.spans, "engine")) == 32


class TestNlsSpans:
    def test_solver_folds_window_spans_into_shared_trace(self):
        import numpy as np

        from repro.data import make_euroc_sequence
        from repro.slam import EstimatorConfig, SlidingWindowEstimator

        trace = Trace()
        sequence = make_euroc_sequence("MH_01", duration=3.0)
        estimator = SlidingWindowEstimator(
            EstimatorConfig(window_size=4, trace=trace)
        )
        result = estimator.run(sequence)
        windows = [s for s in trace.spans if s.name == "window"]
        assert windows, "expected per-window parent spans"
        assert all("frame_id" in s.attributes for s in windows)
        assert all("iterations" in s.attributes for s in windows)
        # The StageTimings view over the trace reproduces the aggregate
        # the estimator reports (same spans, same sums).
        view = StageTimings.from_trace(trace)
        summary = result.timing_summary()
        assert view.total_s == pytest.approx(summary["total_s"])
        assert view.solve_s == pytest.approx(summary["solve_s"])
        assert np.isfinite(view.total_s)
