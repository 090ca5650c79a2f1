"""Tests for the per-window workload statistics."""

import pytest

from repro.data.stats import WindowStats, sequence_stats


class TestWindowStats:
    def test_paper_parameter_names(self):
        stats = WindowStats(
            num_features=100, avg_observations=4.0, num_keyframes=10, num_marginalized=12
        )
        assert stats.a == 100
        assert stats.no == 4.0
        assert stats.b == 10
        assert stats.am == 12
        assert stats.k == 15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WindowStats(
                num_features=-1, avg_observations=0, num_keyframes=0, num_marginalized=0
            )

    def test_sequence_stats_aggregation(self):
        per_window = [
            WindowStats(100, 4.0, 10, 10),
            WindowStats(200, 6.0, 10, 20),
        ]
        agg = sequence_stats(per_window)
        assert agg["mean_features"] == pytest.approx(150.0)
        assert agg["max_features"] == pytest.approx(200.0)
        assert agg["mean_marginalized"] == pytest.approx(15.0)

    def test_sequence_stats_empty(self):
        agg = sequence_stats([])
        assert agg["mean_features"] == 0.0
