"""Log-binned latency histograms and the ``OBS_METRICS.json`` layout.

This is the single home of the fixed-bin log-scale latency histogram
(previously a private implementation inside ``repro.serve.telemetry``;
the serve tier now re-exports it from here). :func:`metrics_layout`
owns the counters/gauges/histograms layout of ``OBS_METRICS.json`` and
of ``SCENARIOS.json``'s ``obs`` section; callers build it from the
final values of a run. Stdlib only.
"""

from __future__ import annotations

import math

# Log-spaced latency bins: 0.05 ms .. ~53 s, 20 bins per decade. Fixed
# edges (rather than adaptive ones) keep histograms mergeable and the
# JSON export stable across runs.
BIN_FLOOR_S = 5e-5
BINS_PER_DECADE = 20
NUM_BINS = 120


def bin_index(seconds: float) -> int:
    if seconds <= BIN_FLOOR_S:
        return 0
    index = int(math.floor(math.log10(seconds / BIN_FLOOR_S) * BINS_PER_DECADE)) + 1
    return min(index, NUM_BINS - 1)


def bin_upper_edge_s(index: int) -> float:
    if index == 0:
        return BIN_FLOOR_S
    return BIN_FLOOR_S * 10.0 ** (index / BINS_PER_DECADE)


class LatencyHistogram:
    """Fixed-bin log-scale histogram with exact count/mean/max tracking.

    Percentiles are reported as the upper edge of the bin containing the
    requested rank — a deterministic, merge-friendly estimate whose
    relative error is bounded by the bin width (~12%).
    """

    def __init__(self) -> None:
        self.counts = [0] * NUM_BINS
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bin_index(seconds)] += 1
        self.total += 1
        self.sum_s += seconds
        self.max_s = max(self.max_s, seconds)

    def percentile(self, q: float) -> float:
        """Latency (seconds) at quantile ``q`` in [0, 1]."""
        if self.total == 0:
            return 0.0
        # Clamp to rank >= 1: ceil(0 * total) is 0, and a rank-0 probe
        # would satisfy ``seen >= rank`` on the very first (possibly
        # empty) bin, reporting the bin floor instead of the smallest
        # observed bin.
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return min(bin_upper_edge_s(index), self.max_s)
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (fixed bins make this exact
        for counts/max and exact-in-float for the mean). Returns self."""
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum_s += other.sum_s
        self.max_s = max(self.max_s, other.max_s)
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild a histogram from its :meth:`as_dict` export.

        The sparse bin dump carries the full distribution, so merged
        fleet percentiles computed from per-shard exports are as good as
        ones computed from the live histograms.
        """
        histogram = cls()
        for index, count in data.get("bins", {}).items():
            histogram.counts[int(index)] = int(count)
        histogram.total = int(data.get("count", 0))
        histogram.sum_s = float(data.get("mean_ms", 0.0)) * histogram.total / 1e3
        histogram.max_s = float(data.get("max_ms", 0.0)) / 1e3
        return histogram

    def as_dict(self) -> dict:
        return {
            "count": self.total,
            "mean_ms": self.mean_s * 1e3,
            "max_ms": self.max_s * 1e3,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p95_ms": self.percentile(0.95) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            # Sparse bin dump (index -> count) so two runs can be diffed
            # bin by bin, not just at the summary percentiles.
            "bins": {str(i): c for i, c in enumerate(self.counts) if c},
        }


def metrics_layout(counters: dict, gauges: dict, histograms: dict) -> dict:
    """The canonical ``OBS_METRICS.json`` layout.

    Counter and gauge values are written as floats; ``histograms`` maps
    each name to a :meth:`LatencyHistogram.as_dict` export, kept as is.
    Dumped with sorted keys, two deterministic runs agree iff their
    files are byte-identical.
    """
    return {
        "counters": {name: float(value) for name, value in counters.items()},
        "gauges": {name: float(value) for name, value in gauges.items()},
        "histograms": histograms,
    }
