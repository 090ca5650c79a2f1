"""Tests for the degenerate-regime scenario subsystem (``repro.scenarios``)
and the oracle x scenario x design-point conformance matrix.

The load-bearing properties:

* scenario specs are frozen, validated, and deterministic — the same
  spec replays the same regime choices, window problems, stats series,
  and sequence configs byte for byte;
* every regime's window problems solve without an uncaught exception
  (the PR 3 graceful-degradation contract extended to realistic
  degenerate inputs);
* ``faults.make_degenerate_window`` is the zero-baseline limit of the
  tunnel drought builder — one code path, draw-for-draw identical;
* the scenario matrix passes clean, fails under ``--perturb`` (the
  anti-vacuity self-test), and emits a ``SCENARIOS.json`` that
  ``python -m repro.obs validate`` accepts;
* scenario-tagged serve profiles trigger DEGRADE and SHED from realistic
  inputs with zero errors, and repeat runs are byte-identical.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios import (
    DEGENERATE_REGIMES,
    REGIMES,
    SCENARIOS,
    ScenarioSpec,
    available_scenarios,
    make_drought_window,
    make_scenario_stats_series,
    make_scenario_window,
    mixture,
    pure,
    resolve_scenario,
    scenario_sequence_config,
)
from repro.slam.nls import LMConfig, levenberg_marquardt
from repro.testing.faults import graceful_outcome, make_degenerate_window
from repro.testing.strategies import (
    mixture_scenarios,
    pure_scenarios,
    scenario_specs,
)


class TestScenarioSpec:
    def test_registry_covers_all_regimes(self):
        assert set(REGIMES) <= set(available_scenarios())
        assert "mixed" in available_scenarios()
        for name in available_scenarios():
            assert resolve_scenario(name).label()

    def test_resolve_passes_specs_through(self):
        spec = pure("tunnel", severity=0.5, seed=3)
        assert resolve_scenario(spec) is spec

    def test_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="tunnel"):
            resolve_scenario("tunel")

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="empty", components=())
        with pytest.raises(ConfigurationError):
            pure("wormhole")
        with pytest.raises(ConfigurationError):
            mixture({"tunnel": 0.0, "highway": 1.0})
        with pytest.raises(ConfigurationError):
            pure("tunnel", severity=0.0)
        with pytest.raises(ConfigurationError):
            pure("tunnel", severity=1.5)

    def test_pure_spec_is_constant(self):
        spec = pure("aggressive", seed=9)
        assert not spec.is_mixture
        assert {spec.regime_at(i) for i in range(20)} == {"aggressive"}

    def test_mixture_is_deterministic_and_seeded(self):
        spec = mixture({"tunnel": 1.0, "highway": 1.0}, seed=4)
        draws = [spec.regime_at(i) for i in range(40)]
        assert draws == [spec.regime_at(i) for i in range(40)]
        assert set(draws) == {"tunnel", "highway"}
        other = mixture({"tunnel": 1.0, "highway": 1.0}, seed=5)
        assert draws != [other.regime_at(i) for i in range(40)]


class TestScenarioWindows:
    def test_drought_is_the_faults_degenerate_window(self):
        """Satellite: one code path — the faults injector delegates here."""
        for seed in (0, 2, 17):
            a = make_degenerate_window(seed=seed, num_keyframes=3, num_features=8)
            b = make_drought_window(seed=seed, num_keyframes=3, num_features=8)
            assert len(a.visual_factors) == len(b.visual_factors)
            for fa, fb in zip(a.visual_factors, b.visual_factors):
                assert np.array_equal(fa.bearing, fb.bearing)
                assert np.array_equal(fa.pixel, fb.pixel)
            assert a.inv_depths == b.inv_depths
            assert not b.imu_factors and not b.priors

    def test_conditioned_drought_is_solvable(self):
        window = make_drought_window(seed=1, baseline=0.2, conditioned=True)
        assert window.imu_factors and window.priors
        result = levenberg_marquardt(window, LMConfig(max_iterations=5))
        assert np.isfinite(result.final_cost)

    def test_every_registered_scenario_solves(self):
        for name in SCENARIOS:
            window = make_scenario_window(name, seed=3)
            result = levenberg_marquardt(window, LMConfig(max_iterations=4))
            assert np.isfinite(result.final_cost), name

    def test_windows_are_deterministic(self):
        for name in ("tunnel", "loop_closure", "mixed"):
            a = make_scenario_window(name, seed=7)
            b = make_scenario_window(name, seed=7)
            assert len(a.visual_factors) == len(b.visual_factors)
            for fa, fb in zip(a.visual_factors, b.visual_factors):
                assert np.array_equal(fa.bearing, fb.bearing)
                assert np.array_equal(fa.pixel, fb.pixel)

    def test_regimes_reshape_the_feature_count(self):
        nominal = make_scenario_window("nominal", seed=5, num_features=12)
        tunnel = make_scenario_window("tunnel", seed=5, num_features=12)
        loop = make_scenario_window("loop_closure", seed=5, num_features=12)
        n_feats = len({f.feature_id for f in nominal.visual_factors})
        t_feats = len({f.feature_id for f in tunnel.visual_factors})
        l_feats = len({f.feature_id for f in loop.visual_factors})
        assert t_feats < n_feats < l_feats


class TestScenarioStatsSeries:
    def test_tunnel_decays_toward_zero(self):
        series = make_scenario_stats_series("tunnel", seed=0, num_windows=10)
        features = [stats.num_features for stats, _ in series]
        assert features[0] > 4 * max(features[-1], 1)
        assert all(f >= 0 for f in features)

    def test_loop_closure_spikes(self):
        series = make_scenario_stats_series("loop_closure", seed=0, num_windows=12)
        features = [stats.num_features for stats, _ in series]
        spikes = [features[i] for i in range(len(features)) if i % 4 == 3]
        baseline = [features[i] for i in range(len(features)) if i % 4 != 3]
        assert min(spikes) > max(baseline)

    def test_series_is_deterministic(self):
        a = make_scenario_stats_series("mixed", seed=3, num_windows=8)
        b = make_scenario_stats_series("mixed", seed=3, num_windows=8)
        assert [(s.num_features, i) for s, i in a] == [
            (s.num_features, i) for s, i in b
        ]


class TestScenarioSequences:
    def test_every_regime_yields_a_valid_config(self):
        for name in available_scenarios():
            config = scenario_sequence_config(name, session_id=0, duration=2.0)
            assert config.duration == 2.0
            assert config.imu_rate >= 2 * config.keyframe_rate

    def test_sessions_explore_the_regime(self):
        a = scenario_sequence_config("tunnel", session_id=0)
        b = scenario_sequence_config("tunnel", session_id=1)
        assert a.seed != b.seed
        assert a.name != b.name

    def test_estimator_survives_a_tunnel_recording(self):
        from repro.data.sequences import make_sequence
        from repro.slam import EstimatorConfig, SlidingWindowEstimator

        config = scenario_sequence_config("tunnel", session_id=0, duration=2.5)
        sequence = make_sequence(config)
        result = SlidingWindowEstimator(EstimatorConfig(window_size=6)).run(sequence)
        assert result.num_windows == sequence.num_keyframes - 1
        assert all(np.isfinite(w.final_cost) for w in result.windows)


class TestScenarioMatrix:
    def test_quick_matrix_passes_and_validates(self, tmp_path):
        from repro.obs.validate import validate_scenario_report
        from repro.testing.scenario_matrix import run_scenario_matrix

        run = run_scenario_matrix(
            scenarios=("tunnel", "highway"),
            oracle_names=("functional",),
            quick=True,
        )
        assert run.passed
        assert len(run.cells) == 4  # 2 scenarios x 2 design points
        path = run.write_json(tmp_path / "SCENARIOS.json")
        data = json.loads(path.read_text())
        assert validate_scenario_report(data) == []
        assert data["scenarios"] == ["highway", "tunnel"]
        assert data["design_points"] == ["dp-large", "dp-small"]

    def test_perturbed_matrix_fails(self):
        from repro.testing.scenario_matrix import run_scenario_matrix

        run = run_scenario_matrix(
            scenarios=("tunnel",),
            oracle_names=("functional",),
            quick=True,
            perturb="functional",
        )
        assert not run.passed
        assert run.num_mismatches > 0

    def test_unknown_scenario_rejected(self):
        from repro.testing.scenario_matrix import run_scenario_matrix

        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_scenario_matrix(scenarios=("wormhole",))

    def test_cli_scenarios_flag(self, tmp_path):
        from repro.testing.__main__ import main

        output = tmp_path / "SCENARIOS.json"
        code = main(
            [
                "--scenarios",
                "--quick",
                "--oracle",
                "functional",
                "--scenario",
                "tunnel",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.is_file()

    def test_cli_scenario_requires_scenarios_flag(self, capsys):
        from repro.testing.__main__ import main

        assert main(["--scenario", "tunnel"]) == 2
        assert "--scenarios" in capsys.readouterr().err

    def test_obs_validate_dispatches_on_schema(self, tmp_path):
        from repro.obs.__main__ import main as obs_main
        from repro.testing.scenario_matrix import run_scenario_matrix

        run = run_scenario_matrix(
            scenarios=("tunnel",), oracle_names=("functional",), quick=True
        )
        path = run.write_json(tmp_path / "SCENARIOS.json")
        assert obs_main(["validate", str(path)]) == 0

        data = json.loads(path.read_text())
        data["passed"] = not data["passed"]  # contradict the cells
        path.write_text(json.dumps(data))
        assert obs_main(["validate", str(path)]) == 1


class TestScenarioServe:
    def test_scenario_profiles_registered(self):
        from repro.serve.loadgen import available_profiles, resolve_profile

        for name in (
            "scenario-tunnel",
            "scenario-loop-closure",
            "scenario-aggressive",
            "scenario-highway",
        ):
            assert name in available_profiles()
            assert resolve_profile(name).scenario in REGIMES

    def test_per_field_validation_names_the_field(self):
        from dataclasses import replace

        from repro.serve.loadgen import PROFILES

        base = PROFILES["smoke"]
        for field, bad in (
            ("rate_hz", 0.0),
            ("think_time_s", -0.5),
            ("duration_s", 0.0),
            ("sequence_duration_s", -1.0),
            ("deadline_s", 0.0),
            ("num_sessions", 0),
            ("num_instances", 0),
            ("max_queue", 0),
            ("batch_size", 0),
            ("max_pending_per_session", 0),
        ):
            with pytest.raises(ConfigurationError, match=field):
                replace(base, **{field: bad})

    def test_scenario_field_validated_with_did_you_mean(self):
        from dataclasses import replace

        from repro.serve.loadgen import PROFILES

        with pytest.raises(ConfigurationError, match="tunnel"):
            replace(PROFILES["smoke"], scenario="tunel")

    def test_scenario_profile_replaces_the_catalog(self):
        from repro.serve.loadgen import PROFILES, session_sequence_config

        profile = PROFILES["scenario-tunnel"]
        config = session_sequence_config(profile, 0)
        assert config.name.startswith("scn-tunnel-")
        assert config.duration == profile.sequence_duration_s
        catalog = session_sequence_config(PROFILES["smoke"], 0)
        assert not catalog.name.startswith("scn-")

    def test_tunnel_profile_degrades_and_sheds_without_errors(self):
        """The acceptance criterion: realistic degenerate inputs drive
        the scheduler into DEGRADE and SHED with zero errors."""
        from repro.engine import Engine
        from repro.serve.loadgen import resolve_profile
        from repro.serve.service import LocalizationService

        report = LocalizationService(
            resolve_profile("scenario-tunnel"), engine=Engine(use_disk=False)
        ).run()
        totals = report.metrics["totals"]
        assert totals["windows_degraded"] >= 1
        assert totals["windows_shed"] >= 1
        assert totals["errors"] == 0

    def test_scenario_serve_repeats_are_byte_identical(self, tmp_path):
        from repro.engine import Engine
        from repro.serve.loadgen import LoadProfile
        from repro.serve.service import LocalizationService

        profile = LoadProfile(
            name="tunnel-mini",
            num_sessions=3,
            num_instances=1,
            rate_hz=40.0,
            duration_s=0.5,
            sequence_duration_s=2.0,
            max_queue=2,
            backpressure=1,
            deadline_s=0.02,
            max_pending_per_session=1,
            scenario="tunnel",
            seed=5,
        )
        first = LocalizationService(profile, engine=Engine(use_disk=False)).run()
        second = LocalizationService(profile, engine=Engine(use_disk=False)).run()
        a = first.write_metrics(tmp_path / "a.json")
        b = second.write_metrics(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()


class TestScenarioProperties:
    @given(mixture_scenarios())
    def test_mixtures_stay_within_their_components(self, spec):
        members = {regime for regime, _ in spec.components}
        draws = [spec.regime_at(i) for i in range(24)]
        assert set(draws) <= members
        assert draws == [spec.regime_at(i) for i in range(24)]

    @given(pure_scenarios(), st.integers(min_value=0, max_value=60))
    def test_windows_solve_or_fail_typed(self, spec, seed):
        window = make_scenario_window(spec, seed, num_keyframes=3, num_features=6)
        outcome = graceful_outcome(
            lambda: levenberg_marquardt(window, LMConfig(max_iterations=3))
        )
        if outcome.recovered:
            assert np.isfinite(outcome.result.final_cost)
        else:
            assert outcome.error is not None

    @given(scenario_specs(), st.integers(min_value=0, max_value=40))
    def test_stats_series_shape_is_valid(self, spec, seed):
        series = make_scenario_stats_series(spec, seed, num_windows=6)
        assert len(series) == 6
        for stats, iterations in series:
            assert stats.num_features >= 0
            assert stats.num_keyframes >= 1
            assert 1 <= iterations <= 6

    @given(scenario_specs(), st.integers(min_value=0, max_value=12))
    def test_sequence_configs_always_construct(self, spec, session_id):
        config = scenario_sequence_config(spec, session_id, duration=2.0)
        assert config.imu_rate >= 2 * config.keyframe_rate
        again = scenario_sequence_config(spec, session_id, duration=2.0)
        assert config == again


def test_degenerate_regimes_are_a_subset_of_regimes():
    assert set(DEGENERATE_REGIMES) < set(REGIMES)
    assert "nominal" not in DEGENERATE_REGIMES
