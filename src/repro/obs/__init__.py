"""``repro.obs`` — the unified, dependency-free observability layer.

One tracer for the serving tier, one histogram and one metrics-file
layout:

* :mod:`repro.obs.tracer` — :class:`Span` records appended to a
  thread-safe per-run :class:`Trace` (wall or virtual clock), exported
  as Chrome ``trace_event`` JSON or flat JSONL;
* :mod:`repro.obs.metrics` — the log-binned :class:`LatencyHistogram`
  (the single histogram implementation; the serve tier re-exports it)
  and :func:`~repro.obs.metrics.metrics_layout`, the counters/gauges/
  histograms layout of ``OBS_METRICS.json``;
* ``python -m repro.obs report <trace.jsonl>`` — per-category latency
  rollup; ``validate`` checks a Chrome export, or a JSON artifact
  listed in :data:`repro.obs.validate.ARTIFACTS`, against its schema.

See ``docs/observability.md`` for the full tour.
"""

from repro.obs.metrics import LatencyHistogram
from repro.obs.report import RollupRow, render_rollup, rollup
from repro.obs.tracer import (
    CLOCK_VIRTUAL,
    CLOCK_WALL,
    Span,
    Trace,
    spans_by,
    validate_chrome_trace,
)

__all__ = [
    "CLOCK_VIRTUAL",
    "CLOCK_WALL",
    "LatencyHistogram",
    "RollupRow",
    "Span",
    "Trace",
    "render_rollup",
    "rollup",
    "spans_by",
    "validate_chrome_trace",
]
