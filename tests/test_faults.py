"""Fault injection: every layer degrades gracefully, never crashes.

One test per injector, asserting the contract of
:mod:`repro.testing.faults`: faulted inputs end in recovery or a typed
:class:`repro.errors.ReproError` — any other exception propagates out
of :func:`graceful_outcome` and fails the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_euroc_sequence
from repro.data.stats import WindowStats
from repro.engine.engine import Engine
from repro.engine.stages import ESTIMATOR
from repro.errors import ConfigurationError, DataError, SolverError
from repro.runtime.controller import replay_windows
from repro.runtime.profiler import IterationTable
from repro.slam import EstimatorConfig, SlidingWindowEstimator
from repro.slam.nls import LMConfig, levenberg_marquardt
from repro.testing.faults import (
    corrupt_cache_artifacts,
    graceful_outcome,
    inject_imu_gap,
    inject_nan_tracks,
    inject_track_dropout,
    make_degenerate_window,
)
from tests.test_engine import short_request


@pytest.fixture(scope="module")
def sequence():
    return make_euroc_sequence("MH_01", duration=4.0)


def run_estimator(seq):
    return SlidingWindowEstimator(EstimatorConfig(window_size=5)).run(seq)


class TestNanTracks:
    def test_estimator_survives_nan_pixels(self, sequence):
        faulted = inject_nan_tracks(sequence, fraction=0.3, seed=3)
        outcome = graceful_outcome(lambda: run_estimator(faulted))
        assert outcome.recovered
        result = outcome.result
        assert result.num_windows == sequence.num_keyframes - 1
        assert all(np.isfinite(w.final_cost) for w in result.windows)
        assert all(np.all(np.isfinite(p)) for p in result.estimated_positions)

    def test_injection_is_deterministic_and_nonmutating(self, sequence):
        a = inject_nan_tracks(sequence, fraction=0.3, seed=3)
        b = inject_nan_tracks(sequence, fraction=0.3, seed=3)
        nan_a = [
            fid for obs in a.observations
            for fid in obs.ids[~np.isfinite(obs.pixels).all(axis=1)].tolist()
        ]
        nan_b = [
            fid for obs in b.observations
            for fid in obs.ids[~np.isfinite(obs.pixels).all(axis=1)].tolist()
        ]
        assert nan_a == nan_b and nan_a
        # the shared original must be untouched
        assert all(np.all(np.isfinite(obs.pixels)) for obs in sequence.observations)

    def test_bad_fraction_rejected(self, sequence):
        with pytest.raises(ConfigurationError):
            inject_nan_tracks(sequence, fraction=1.5)


class TestTrackDropout:
    def test_estimator_survives_heavy_dropout(self, sequence):
        faulted = inject_track_dropout(sequence, fraction=0.8, seed=7)
        outcome = graceful_outcome(lambda: run_estimator(faulted))
        assert outcome.recovered
        assert all(np.isfinite(w.final_cost) for w in outcome.result.windows)

    def test_total_dropout_still_graceful(self, sequence):
        faulted = inject_track_dropout(sequence, fraction=1.0, seed=7)
        assert all(obs.num_features == 0 for obs in faulted.observations)
        outcome = graceful_outcome(lambda: run_estimator(faulted))
        assert outcome.recovered


class TestImuGap:
    def test_gap_raises_typed_data_error(self, sequence):
        faulted = inject_imu_gap(sequence, segment_index=2)
        outcome = graceful_outcome(lambda: run_estimator(faulted))
        assert not outcome.recovered
        assert isinstance(outcome.error, DataError)
        assert "IMU gap" in str(outcome.error)
        assert "keyframes 2 and 3" in str(outcome.error)

    def test_bad_segment_index_rejected(self, sequence):
        with pytest.raises(ConfigurationError):
            inject_imu_gap(sequence, segment_index=10**6)


class TestDegenerateWindow:
    def test_singular_cholesky_raises_typed_solver_error(self):
        """The raw kernel surfaces rank deficiency as SolverError; the
        solve() wrapper recovers via its jitter — both are graceful."""
        from repro.linalg.cholesky import cholesky_evaluate_update
        from repro.linalg.schur import d_type_schur
        from repro.linalg.plan import U_FLOOR

        problem = make_degenerate_window(seed=0)
        system = problem.build_linear_system()
        u = np.maximum(system.u_diag, U_FLOOR)
        reduced, _ = d_type_schur(
            system.v_block, system.w_block, u, b_x=system.b_x, b_y=system.b_y
        )
        with pytest.raises(SolverError, match="pivot"):
            cholesky_evaluate_update(reduced)
        outcome = graceful_outcome(lambda: system.solve(damping=0.0))
        assert outcome.recovered
        assert all(np.all(np.isfinite(part)) for part in outcome.result)

    def test_lm_survives_rank_deficiency(self):
        problem = make_degenerate_window(seed=1)
        outcome = graceful_outcome(
            lambda: levenberg_marquardt(problem, LMConfig(max_iterations=4))
        )
        assert outcome.recovered
        assert np.isfinite(outcome.result.final_cost)
        assert outcome.result.final_cost <= outcome.result.initial_cost


class TestCorruptedCache:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "empty"])
    def test_engine_recomputes_through_corruption(self, tmp_path, mode):
        request = short_request()
        warm = Engine(cache_dir=tmp_path)
        reference = warm.run(ESTIMATOR, request)
        assert warm.stats.stores == 1

        corrupted = corrupt_cache_artifacts(tmp_path, mode=mode)
        assert corrupted == 1

        cold = Engine(cache_dir=tmp_path)
        outcome = graceful_outcome(lambda: cold.run(ESTIMATOR, request))
        assert outcome.recovered
        # The corrupt blob is treated as a miss: the run is recomputed.
        assert cold.stats.by_stage[ESTIMATOR.name]["computed"] == 1
        assert cold.cache_counters()["corrupt_blob_misses"] == 1
        assert np.array_equal(
            np.array(outcome.result.estimated_positions),
            np.array(reference.estimated_positions),
        )

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            corrupt_cache_artifacts(tmp_path, mode="bitflip-everything")


class TestRuntimeControllerDegradation:
    def test_controller_survives_starved_windows(self):
        from repro.engine.stages import design_reconfiguration

        stats = [
            WindowStats(
                num_features=features,
                avg_observations=0.0 if not features else 2.0,
                num_keyframes=2,
                num_marginalized=0,
            )
            for features in (0, 1, 0, 3)
        ]
        replay = graceful_outcome(
            lambda: replay_windows(
                stats, IterationTable(), design_reconfiguration("High-Perf")
            )
        )
        assert replay.recovered
        assert len(replay.result.decisions) == len(stats)
        for decision in replay.result.decisions:
            assert np.isfinite(decision.energy_j)
            assert decision.energy_j >= 0.0
        assert replay.result.total_energy_j >= 0.0
