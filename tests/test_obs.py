"""Tests for the unified observability layer (``repro.obs``)."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.obs import (
    CLOCK_VIRTUAL,
    LatencyHistogram,
    Span,
    Trace,
    render_rollup,
    rollup,
    spans_by,
    validate_chrome_trace,
)
from repro.obs.metrics import BIN_FLOOR_S, metrics_layout
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
    def test_virtual_spans_pin_track_zero(self):
        trace = Trace(clock=CLOCK_VIRTUAL)

        def record(i):
            trace.add_span("ev", start_s=float(i), duration_s=0.5)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(record, range(16)))
        assert len(trace) == 16
        assert all(s.track == 0 for s in trace.spans)

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


class TestImportFootprint:
    def test_estimator_and_synthesizer_load_no_tracer(self):
        """Only the serving tier records spans; the engine, the solver
        and the synthesizer load no ``repro.obs`` module."""
        code = (
            "import sys\n"
            "import repro.engine, repro.slam.estimator, repro.synth\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["[]"]
