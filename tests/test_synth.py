"""Tests for the synthesizer: optimization, Pareto frontier, DSE."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError, InfeasibleDesignError
from repro.hw import DEFAULT_POWER_MODEL, DEFAULT_RESOURCE_MODEL, HardwareConfig
from repro.hw.fpga import KINTEX7_160T, VIRTEX7_690T, ZC706
from repro.hw.latency import window_latency_seconds
from repro.synth import (
    DesignSpec,
    Objective,
    biggest_fit_design,
    design_space_metrics,
    exhaustive_search,
    exhaustive_flow_years,
    high_perf_design,
    low_power_design,
    pareto_frontier,
    perturb_and_validate,
    synthesize,
)


class TestDesignSpec:
    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            DesignSpec(latency_budget_s=0.0)
        with pytest.raises(ConfigurationError):
            DesignSpec(resource_budget=1.5)
        with pytest.raises(ConfigurationError):
            DesignSpec(iterations=0)


class TestOptimizers:
    def test_solution_meets_constraints(self):
        spec = DesignSpec(latency_budget_s=0.025)
        outcome = exhaustive_search(spec)
        assert outcome.latency_s <= spec.latency_budget_s + 1e-12
        assert DEFAULT_RESOURCE_MODEL.fits(outcome.config, spec.platform)

    def test_tighter_budget_needs_more_power(self):
        loose = exhaustive_search(DesignSpec(latency_budget_s=0.060))
        tight = exhaustive_search(DesignSpec(latency_budget_s=0.020))
        assert tight.power_w > loose.power_w

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleDesignError):
            exhaustive_search(DesignSpec(latency_budget_s=0.001))

    def test_latency_infeasibility_names_no_latency_budget(self):
        """Equ. 12 ignores the latency budget, so its error names only
        the platform and the resource budget."""
        spec = DesignSpec(resource_budget=0.05, objective=Objective.LATENCY)
        with pytest.raises(InfeasibleDesignError) as refused:
            exhaustive_search(spec)
        message = str(refused.value)
        assert "latency" not in message and "20.0 ms" not in message
        assert "5%" in message and spec.platform.name in message

    def test_minimize_latency_ignores_budget(self):
        spec = DesignSpec(latency_budget_s=0.5, objective=Objective.LATENCY)
        result = synthesize(spec)
        assert result.latency_s < 0.025  # near the feasible floor
        assert DEFAULT_RESOURCE_MODEL.fits(result.config, spec.platform)
        tight = synthesize(DesignSpec(latency_budget_s=1e-6, objective=Objective.LATENCY))
        assert tight.config == result.config

    def test_solve_is_fast(self):
        """Sec. 7.3: design identification takes seconds, not years."""
        outcome = exhaustive_search(DesignSpec())
        assert outcome.solve_seconds < 3.0


class TestNamedDesigns:
    def test_high_perf_meets_20ms(self):
        result = high_perf_design()
        assert result.latency_s <= 0.020 + 1e-12
        assert result.power_w > low_power_design().power_w

    def test_low_power_meets_33ms(self):
        result = low_power_design()
        assert result.latency_s <= 0.033 + 1e-12

    def test_high_perf_uses_more_resources(self):
        """Tbl. 2's qualitative content: High-Perf > Low-Power on every
        resource, with roughly a 2 W power gap."""
        hp, lp = high_perf_design(), low_power_design()
        for kind in hp.utilization:
            assert hp.utilization[kind] > lp.utilization[kind]
        assert 1.0 < hp.power_w - lp.power_w < 3.0

    def test_biggest_fit_ranks_boards(self):
        """Sec. 7.7: a bigger FPGA admits a faster design."""
        kintex = biggest_fit_design(KINTEX7_160T)
        zc706 = biggest_fit_design(ZC706)
        virtex = biggest_fit_design(VIRTEX7_690T)
        assert virtex.latency_s <= zc706.latency_s <= kintex.latency_s

    def test_emit_verilog(self):
        files = high_perf_design().emit_verilog()
        assert "archytas_top.v" in files
        top = files["archytas_top.v"]
        assert "module archytas_top" in top
        assert "cfg_nd_active" in top  # the run-time reconfig interface


class TestPareto:
    @pytest.fixture(scope="class")
    def frontier(self):
        return pareto_frontier()

    def test_frontier_nonempty_and_sorted(self, frontier):
        assert len(frontier) >= 5
        latencies = [p.latency_s for p in frontier]
        assert latencies == sorted(latencies)

    def test_frontier_is_non_dominated(self, frontier):
        for p in frontier:
            for q in frontier:
                if q is not p:
                    assert not (
                        q.latency_s <= p.latency_s and q.power_w < p.power_w
                    )

    def test_power_decreases_along_frontier(self, frontier):
        powers = [p.power_w for p in frontier]
        assert all(b <= a for a, b in zip(powers, powers[1:]))

    def test_frontier_spans_paper_ranges(self, frontier):
        """Sec. 7.2: the generated designs cover a several-x performance
        range and ~2x power range."""
        lat_ratio = frontier[-1].latency_s / frontier[0].latency_s
        pow_ratio = frontier[0].power_w / frontier[-1].power_w
        assert lat_ratio > 2.0
        assert pow_ratio > 1.4

    def test_perturbation_validation(self, frontier):
        """Fig. 14: perturbed designs are Pareto-dominated by the frontier."""
        perturbed, all_dominated = perturb_and_validate(frontier)
        assert len(perturbed) > 0
        assert all_dominated


class TestDse:
    def test_exhaustive_flow_estimate(self):
        """Sec. 7.3: ~90k designs x 1.5 h ~= 15 years."""
        years = exhaustive_flow_years()
        assert years == pytest.approx(15.4, abs=0.5)

    def test_metrics(self):
        metrics = design_space_metrics()
        assert metrics.num_designs == 90_000
        assert metrics.generator_seconds < 3.0
        assert metrics.speed_ratio > 1e6


class TestSearchEquivalence:
    """Differential sweep: the broadcast grid solver against the scalar
    models, point by point.

    ``exhaustive_search`` scores the (clipped) space as one broadcast
    latency grid and picks its argmin by relative band, then tiebreak
    metric, then lexicographic (nd, nm, s) order. The reference scores
    every point of the same clipped space with ``window_latency_seconds``,
    ``DEFAULT_POWER_MODEL.power`` and ``DEFAULT_RESOURCE_MODEL.fits`` in
    a plain loop and applies the same selection rule.
    """

    BOUND = HardwareConfig(10, 10, 24)

    def _random_spec(self, rng, objective):
        from repro.data.stats import WindowStats

        stats = WindowStats(
            num_features=int(rng.integers(40, 400)),
            avg_observations=float(rng.uniform(2.0, 6.0)),
            num_keyframes=int(rng.integers(4, 12)),
            num_marginalized=int(rng.integers(5, 60)),
        )
        spec = DesignSpec(
            latency_budget_s=1.0,
            workload=stats,
            iterations=int(rng.integers(1, 7)),
            resource_budget=float(rng.uniform(0.6, 1.0)),
            objective=Objective.LATENCY,
        )
        if objective is Objective.LATENCY:
            return spec
        # POWER needs a satisfiable budget: derive one from the latency
        # optimum of the same workload in the same clipped space.
        floor = exhaustive_search(spec, upper_bound=self.BOUND).latency_s
        return DesignSpec(
            latency_budget_s=floor * float(rng.uniform(1.05, 3.0)),
            workload=stats,
            iterations=spec.iterations,
            resource_budget=spec.resource_budget,
            objective=Objective.POWER,
        )

    def _reference(self, spec):
        """The scalar-model optimum's config, by the grid's selection rule."""
        points = []
        for knobs in itertools.product(
            *(range(1, bound + 1) for bound in self.BOUND.as_tuple())
        ):
            config = HardwareConfig(*knobs)
            if not DEFAULT_RESOURCE_MODEL.fits(config, spec.platform, spec.resource_budget):
                continue
            latency = window_latency_seconds(
                spec.workload, config, spec.iterations, spec.platform
            )
            power = DEFAULT_POWER_MODEL.power(config)
            if spec.objective is Objective.LATENCY:
                points.append((latency, power, config))
            elif latency <= spec.latency_budget_s:
                points.append((power, latency, config))
        best = min(score for score, _, _ in points)
        _, _, config = min(
            (p for p in points if p[0] <= best * (1 + 1e-12)),
            key=lambda p: (p[1], p[2].as_tuple()),
        )
        return config

    @pytest.mark.parametrize("objective", [Objective.LATENCY, Objective.POWER])
    def test_randomized_sweep_agrees(self, objective):
        rng = np.random.default_rng(20260806)
        for _ in range(20):
            spec = self._random_spec(rng, objective)
            outcome = exhaustive_search(spec, upper_bound=self.BOUND)
            config = self._reference(spec)
            assert outcome.config == config, f"grid and scalar models disagree on {spec}"
            assert outcome.power_w == pytest.approx(
                DEFAULT_POWER_MODEL.power(config), rel=1e-12
            )
            assert outcome.latency_s == pytest.approx(
                window_latency_seconds(
                    spec.workload, config, spec.iterations, spec.platform
                ),
                rel=1e-12,
            )

    def test_tiebreak_picks_smallest_latency_on_a_power_plateau(self, monkeypatch):
        # No seeded spec tells the tiebreak rule from taking the
        # lexicographically first in-band point. A flat power grid puts
        # every feasible point in the band: the rule must pick the
        # fastest point, where lexicographic order would give (1, 1, 1).
        from repro.synth import NAMED_DESIGN_SPECS, optimizer

        monkeypatch.setattr(
            optimizer,
            "_power_grid",
            lambda nd, nm, s: np.ones((nd.size, nm.size, s.size)),
        )
        spec = dataclasses.replace(
            NAMED_DESIGN_SPECS["High-Perf"],
            objective=Objective.POWER,
            latency_budget_s=1.0,
        )
        outcome = exhaustive_search(spec, upper_bound=self.BOUND)
        assert outcome.config == HardwareConfig(10, 10, 24)
        assert outcome.power_w == 1.0

    def test_solve_seconds_come_from_spans(self):
        outcome = exhaustive_search(DesignSpec(latency_budget_s=0.033))
        assert outcome.solve_seconds > 0.0


class TestSpecFieldPreservation:
    """Every DesignSpec field reaches the solve (a hand-copied spec
    constructor once silently reset the fields it didn't enumerate)."""

    def _custom_spec(self):
        from repro.data.stats import WindowStats

        return DesignSpec(
            latency_budget_s=0.040,
            platform=KINTEX7_160T,
            resource_budget=0.85,
            workload=WindowStats(
                num_features=150,
                avg_observations=4.0,
                num_keyframes=9,
                num_marginalized=30,
            ),
            iterations=3,
            objective=Objective.LATENCY,
        )

    def test_non_default_budget_changes_the_answer(self):
        """Regression guard: the preserved fields actually matter — a
        tight resource budget must steer the solve elsewhere."""
        spec = self._custom_spec()
        a = synthesize(dataclasses.replace(spec, resource_budget=0.85))
        b = synthesize(dataclasses.replace(spec, resource_budget=1.0))
        assert a.spec.resource_budget == 0.85
        assert a.latency_s > b.latency_s
        assert a.config != b.config
