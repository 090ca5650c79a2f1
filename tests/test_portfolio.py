"""Tests for the fleet-portfolio tier (``repro.portfolio``).

The load-bearing properties:

* forecasts are canonical: weights normalize, mixtures flatten to a
  per-regime mix summing to 1, resolution has did-you-mean;
* the solver always returns a deployable fleet (counts sum to the
  instance budget, configs within the cap) and reduces *exactly* to
  single-config synthesis for a pure regime — the pinned differential
  against ``synthesize`` under either objective;
* partial-reconfiguration charges are zero on self-swap, symmetric, and
  strictly positive across distinct configs, and a drift swap needs more
  than the model's improvement margin;
* the serve integration stays bit-deterministic (repeat runs and the
  process backend reproduce ``SERVE_METRICS.json`` byte for byte) and
  the per-config counters sum exactly to the run totals.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given

from repro.data.stats import WindowStats
from repro.engine import Engine
from repro.errors import ConfigurationError, InfeasibleDesignError
from repro.hw.config import HardwareConfig
from repro.hw.latency import window_latency_seconds
from repro.obs.validate import validate_portfolio_report
from repro.portfolio import (
    DEFAULT_RECONFIG_MODEL,
    PartialReconfigModel,
    PortfolioObjective,
    PortfolioSpec,
    TrafficForecast,
    available_forecasts,
    default_portfolio_spec,
    drift_candidate,
    forecast,
    reconfig_distance,
    regime_demands,
    regime_design_spec,
    regime_sizing_workload,
    resolve_forecast,
    solve_portfolio,
)
from repro.portfolio.__main__ import portfolio_report
from repro.scenarios import REGIMES
from repro.serve import LoadProfile
from repro.serve.service import LocalizationService
from repro.synth import DesignSpec, Objective, synthesize
from repro.testing.strategies import portfolio_specs, traffic_forecasts


def portfolio_profile(**overrides):
    # Session count and seed pin the 2-config "mixed" solve (the same
    # fleet shape the portfolio-mixed profile deploys), at a short
    # horizon so the suite stays fast.
    base = dict(
        name="portfolio-mini",
        num_sessions=8,
        num_instances=2,
        rate_hz=4.0,
        duration_s=2.0,
        sequence_duration_s=2.0,
        scenario="mixed",
        portfolio="mixed",
        seed=0,
    )
    base.update(overrides)
    return LoadProfile(**base)


def run_service(profile, backend="thread"):
    service = LocalizationService(
        profile, engine=Engine(use_disk=False), backend=backend
    )
    return service.run()


# ----------------------------------------------------------------------
# Forecasts
# ----------------------------------------------------------------------


class TestTrafficForecast:
    @given(traffic_forecasts())
    def test_weights_normalize_and_mix_sums_to_one(self, fc):
        assert sum(fc.normalized_weights()) == pytest.approx(1.0)
        mix = fc.regime_mix()
        assert sum(weight for _, weight in mix) == pytest.approx(1.0)
        regimes = [regime for regime, _ in mix]
        assert regimes == sorted(regimes)
        assert set(regimes) <= set(REGIMES)

    def test_named_forecasts_cover_scenarios(self):
        names = available_forecasts()
        assert "mixed" in names and "tunnel-heavy" in names
        assert resolve_forecast("tunnel").is_pure
        assert not resolve_forecast("mixed").is_pure

    def test_resolve_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            resolve_forecast("mixd")
        spec = forecast({"tunnel": 1.0})
        assert resolve_forecast(spec) is spec

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficForecast(name="empty", components=())
        with pytest.raises(ConfigurationError):
            forecast({"tunnel": -1.0})
        with pytest.raises(ConfigurationError):
            forecast({"nope": 1.0})
        with pytest.raises(ConfigurationError):
            forecast({"tunnel": 1.0}, num_sessions=0)

    def test_sizing_workload_is_deterministic(self):
        assert regime_sizing_workload("tunnel", 3) == regime_sizing_workload(
            "tunnel", 3
        )
        stats, iterations = regime_sizing_workload("loop_closure", 0)
        assert isinstance(stats, WindowStats)
        assert iterations >= 1


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------


class TestSolver:
    @given(portfolio_specs())
    def test_solution_respects_the_budget(self, spec):
        solution = solve_portfolio(spec)
        assert solution.num_instances == spec.num_instances
        assert 1 <= solution.num_configs <= spec.max_configs
        config_ids = {entry.config_id for entry in solution.entries}
        assert {cid for _, cid in solution.assignment} <= config_ids
        assert len(solution.instance_configs()) == spec.num_instances
        assert solution.provisioned_power_w == pytest.approx(
            sum(entry.power_w * entry.count for entry in solution.entries)
        )
        for entry in solution.entries:
            assert entry.count >= 1
            assert entry.utilization >= 0.0

    def test_pure_regime_single_config_reduces_to_minimize_power(self):
        """The pinned differential: a portfolio of one is synthesis."""
        candidate = DesignSpec(latency_budget_s=0.020)
        fc = resolve_forecast("tunnel")
        spec = PortfolioSpec(
            forecast=fc, candidates=(candidate,), num_instances=2, max_configs=1
        )
        solution = solve_portfolio(spec)
        (demand,) = regime_demands(fc)
        outcome = synthesize(regime_design_spec(candidate, demand))
        (entry,) = solution.entries
        assert entry.config == outcome.config
        assert entry.count == 2
        assert solution.assignment == (("tunnel", outcome.config.label),)

    def test_pure_regime_latency_objective_reduces_to_minimize_latency(self):
        candidate = DesignSpec(latency_budget_s=0.033, objective=Objective.LATENCY)
        fc = resolve_forecast("highway")
        spec = PortfolioSpec(
            forecast=fc,
            candidates=(candidate,),
            num_instances=1,
            max_configs=1,
            objective=PortfolioObjective.LATENCY,
        )
        solution = solve_portfolio(spec)
        (demand,) = regime_demands(fc)
        outcome = synthesize(regime_design_spec(candidate, demand))
        assert solution.entries[0].config == outcome.config
        assert solution.expected_latency_s == pytest.approx(
            window_latency_seconds(
                demand.stats, outcome.config, demand.iterations
            )
        )

    def test_more_configs_never_hurt_the_objective(self):
        narrow = default_portfolio_spec("mixed", num_instances=4, max_configs=1)
        wide = default_portfolio_spec("mixed", num_instances=4, max_configs=2)
        single = solve_portfolio(narrow)
        mixed = solve_portfolio(wide)
        assert (
            mixed.expected_energy_per_window_j
            <= single.expected_energy_per_window_j
        )

    def test_solve_is_deterministic(self):
        spec = default_portfolio_spec("tunnel-heavy", num_instances=3)
        assert solve_portfolio(spec).as_dict() == solve_portfolio(spec).as_dict()

    def test_infeasible_candidates_raise(self):
        impossible = DesignSpec(latency_budget_s=1e-9)
        spec = PortfolioSpec(
            forecast=resolve_forecast("tunnel"),
            candidates=(impossible,),
            num_instances=1,
            max_configs=1,
        )
        with pytest.raises(InfeasibleDesignError):
            solve_portfolio(spec)

    def test_spec_validation(self):
        fc = resolve_forecast("tunnel")
        candidates = (DesignSpec(latency_budget_s=0.020),)
        with pytest.raises(ConfigurationError):
            PortfolioSpec(forecast=fc, candidates=())
        with pytest.raises(ConfigurationError):
            PortfolioSpec(forecast=fc, candidates=candidates, num_instances=0)
        with pytest.raises(ConfigurationError):
            PortfolioSpec(forecast=fc, candidates=candidates, max_configs=0)
        with pytest.raises(ConfigurationError):
            PortfolioSpec(
                forecast=fc, candidates=candidates, latency_slo_s=0.0
            )

    def test_report_is_schema_valid(self):
        solution = solve_portfolio(default_portfolio_spec("mixed", num_instances=4))
        assert validate_portfolio_report(portfolio_report(solution)) == []


# ----------------------------------------------------------------------
# Partial reconfiguration
# ----------------------------------------------------------------------


class TestReconfig:
    def test_self_swap_is_free(self):
        config = HardwareConfig(8, 8, 16)
        charge = DEFAULT_RECONFIG_MODEL.swap_cost(config, config)
        assert charge.seconds == 0.0 and charge.joules == 0.0
        assert reconfig_distance(config, config) == 0

    def test_cost_is_symmetric_and_positive(self):
        a, b = HardwareConfig(2, 2, 4), HardwareConfig(16, 8, 24)
        forward = DEFAULT_RECONFIG_MODEL.swap_cost(a, b)
        backward = DEFAULT_RECONFIG_MODEL.swap_cost(b, a)
        assert forward == backward
        assert forward.seconds > 0 and forward.joules > 0
        assert reconfig_distance(a, b) == reconfig_distance(b, a) > 0

    def test_cost_grows_with_distance(self):
        base = HardwareConfig(4, 4, 8)
        near, far = HardwareConfig(5, 4, 8), HardwareConfig(20, 16, 96)
        model = PartialReconfigModel()
        assert model.swap_cost(base, far).seconds > model.swap_cost(
            base, near
        ).seconds

    def test_drift_candidate_respects_margin(self):
        a, b = HardwareConfig(2, 2, 4), HardwareConfig(4, 1, 6)
        services = {a.label: 1.0, b.label: 0.97}
        assert drift_candidate(a, (a, b), services, 0.05) is None
        services = {a.label: 1.0, b.label: 0.90}
        assert drift_candidate(a, (a, b), services, 0.05) == b
        assert drift_candidate(b, (a, b), services, 0.05) is None

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            PartialReconfigModel(base_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            PartialReconfigModel(improvement_margin=1.0)


# ----------------------------------------------------------------------
# Serve integration
# ----------------------------------------------------------------------


class TestServeIntegration:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            portfolio_profile(portfolio="mixd")
        with pytest.raises(ConfigurationError, match="nothing to swap"):
            portfolio_profile(portfolio="", reconfig_after=2)

    def test_portfolio_pool_is_heterogeneous_and_recorded(self):
        report = run_service(portfolio_profile(num_instances=4))
        metrics = report.metrics
        assert metrics["portfolio"]["name"] == "mixed"
        deployed = {inst["config_id"] for inst in metrics["instances"]}
        solved = {e["config_id"] for e in metrics["portfolio"]["entries"]}
        assert deployed == solved
        assert len(deployed) >= 2
        assert metrics["totals"]["errors"] == 0

    def test_metrics_byte_identical_across_repeats_and_backends(self):
        profile = portfolio_profile()
        first = json.dumps(run_service(profile).metrics, sort_keys=True)
        again = json.dumps(run_service(profile).metrics, sort_keys=True)
        process = json.dumps(
            run_service(profile, backend="process").metrics, sort_keys=True
        )
        assert first == again == process

    def test_per_config_counters_sum_to_totals(self):
        metrics = run_service(portfolio_profile(num_instances=4)).metrics
        configs = metrics["configs"]
        assert configs, "a portfolio run must break out per-config counters"
        assert sum(c["windows_served"] for c in configs) == (
            metrics["totals"]["windows_served"]
        )
        assert sum(c["energy_j"] for c in configs) == pytest.approx(
            metrics["totals"]["energy_j"], rel=1e-12
        )
        assert sum(c["reconfig_energy_j"] for c in configs) == pytest.approx(
            metrics["totals"]["reconfig_energy_j"], rel=1e-12
        )

    def test_fifo_route_still_tracks_configs(self):
        """Idle-instance dispatch (the former ``fifo`` route, now the only
        one) attributes every window to a config on the default 2-instance
        pool too."""
        metrics = run_service(portfolio_profile()).metrics
        assert sum(c["windows_served"] for c in metrics["configs"]) == (
            metrics["totals"]["windows_served"]
        )

    def test_forced_drift_reconfigures_and_charges_the_swap(self):
        """A sustained one-sided batch must trigger a partial swap."""
        service = LocalizationService(
            portfolio_profile(num_instances=4, reconfig_after=1),
            engine=Engine(use_disk=False),
        )
        service.prepare()
        assert len(service.portfolio_configs) >= 2
        small = min(service.portfolio_configs, key=HardwareConfig.as_tuple)
        instance = next(i for i in service.pool if i.config == small)
        stats, iterations = regime_sizing_workload("highway", 0)
        batch = [
            (
                SimpleNamespace(iterations=iterations),
                SimpleNamespace(stats=stats),
            )
        ] * 3
        before = instance.free_at
        service._maybe_reconfigure(instance, batch)
        assert instance.config != small
        assert instance.reconfigurations == 1
        assert instance.free_at > before
        assert service.telemetry.reconfigurations == 1
        swapped = service.telemetry.configs[instance.config_id]
        assert swapped.reconfig_energy_j > 0
        assert swapped.reconfig_seconds == pytest.approx(
            instance.free_at - before
        )

    def test_reconfig_run_is_deterministic(self):
        profile = portfolio_profile(reconfig_after=2)
        first = json.dumps(run_service(profile).metrics, sort_keys=True)
        again = json.dumps(run_service(profile).metrics, sort_keys=True)
        assert first == again

    def test_drift_reconfiguration_pays_on_a_small_mixed_pool(self):
        """The dispatcher swaps drifting instances between batches, and on
        a 2-instance mixed pool in closed loop that lowers p99 and energy.

        Queue bounds are opened to the session count so neither run sheds
        or degrades; 0.4 s is the shortest recording and horizon (0.1 s
        steps) at which both figures still drop.
        """

        def run(reconfig_after):
            return run_service(
                portfolio_profile(
                    arrival="closed",
                    duration_s=0.4,
                    sequence_duration_s=0.4,
                    max_queue=8,
                    backpressure=8,
                    reconfig_after=reconfig_after,
                )
            )

        def energy_j(report):
            totals = report.metrics["totals"]
            return totals["energy_j"] + totals["reconfig_energy_j"]

        static, swapping = run(0), run(1)
        assert static.metrics["totals"]["reconfigurations"] == 0
        assert swapping.metrics["totals"]["reconfigurations"] >= 1
        assert any(s.name == "partial_reconfig" for s in swapping.trace.spans)
        assert (
            swapping.metrics["latency_ms"]["p99_ms"]
            < static.metrics["latency_ms"]["p99_ms"]
        )
        assert energy_j(swapping) < energy_j(static)


class TestCli:
    """python -m repro.portfolio, in-process like the other CLI tests."""

    def test_list_exits_zero(self, capsys):
        from repro.portfolio.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in available_forecasts():
            assert name in out

    def test_solve_exports_a_validatable_report(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main
        from repro.portfolio.__main__ import main

        path = tmp_path / "PORTFOLIO.json"
        assert main(["mixed", "--instances", "2", "--output", str(path)]) == 0
        report = json.loads(path.read_text())
        assert validate_portfolio_report(report) == []
        assert obs_main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid portfolio report" in out

    def test_unknown_forecast_exits_two(self, capsys):
        from repro.portfolio.__main__ import main

        assert main(["no-such-forecast"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_instance_budget_exits_two(self, capsys):
        from repro.portfolio.__main__ import main

        assert main(["mixed", "--instances", "0"]) == 2
        assert "error:" in capsys.readouterr().err
