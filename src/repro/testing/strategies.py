"""Shared Hypothesis strategies and the named test profiles.

Test-only module (imports :mod:`hypothesis`, which the library itself
never depends on — keep it out of ``repro.testing.__init__``). The
strategies build the library's own validated specs (scenarios, design
specs, traffic forecasts, portfolios); :func:`seeds` draws the one knob
every deterministic builder of :mod:`repro.testing.workloads` takes.

Profiles: ``dev`` (the default) keeps example counts low so the local
suite stays fast; ``ci`` raises ``max_examples`` and derandomizes —
every CI run executes the identical example sequence, so the gate can
never flake on an unlucky draw. Select with ``HYPOTHESIS_PROFILE=ci``
(loaded by ``tests/conftest.py`` via :func:`register_profiles`).
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.scenarios import DEGENERATE_REGIMES, REGIMES, ScenarioSpec, mixture, pure
from repro.synth.spec import DesignSpec

DEV_PROFILE = "dev"
CI_PROFILE = "ci"


def register_profiles(default: str | None = None) -> None:
    """Register the named profiles and load one.

    The loaded profile is ``HYPOTHESIS_PROFILE`` when set, else
    ``default``, else ``dev``. Idempotent — safe to call from several
    conftests.
    """
    settings.register_profile(
        DEV_PROFILE,
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        CI_PROFILE,
        max_examples=60,
        deadline=None,
        derandomize=True,  # fixed example sequence: no flaky CI draws
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", default or DEV_PROFILE))


# ----------------------------------------------------------------------
# Scalar building blocks
# ----------------------------------------------------------------------

def seeds(max_value: int = 500) -> st.SearchStrategy[int]:
    """Workload seeds — the one knob every deterministic builder takes."""
    return st.integers(min_value=0, max_value=max_value)


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------

def severities() -> st.SearchStrategy[float]:
    """Scenario severities — the spec's (0, 1] contract."""
    return st.floats(min_value=0.05, max_value=1.0)


def pure_scenarios(
    regimes: tuple[str, ...] = REGIMES,
) -> st.SearchStrategy[ScenarioSpec]:
    """Single-regime specs across every named regime."""
    return st.builds(
        pure,
        regime=st.sampled_from(regimes),
        severity=severities(),
        seed=seeds(),
    )


def mixture_scenarios(
    regimes: tuple[str, ...] = DEGENERATE_REGIMES,
) -> st.SearchStrategy[ScenarioSpec]:
    """Seeded mixtures over 2+ degenerate regimes with random weights."""
    weights = st.dictionaries(
        st.sampled_from(regimes),
        st.floats(min_value=0.1, max_value=5.0),
        min_size=2,
        max_size=len(regimes),
    )
    return st.builds(
        mixture,
        components=weights,
        severity=severities(),
        seed=seeds(),
    )


def scenario_specs() -> st.SearchStrategy[ScenarioSpec]:
    """Any valid scenario spec: pure regimes and seeded mixtures."""
    return st.one_of(pure_scenarios(), mixture_scenarios())


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------

def design_specs(
    min_budget_ms: float = 18.0,
    max_budget_ms: float = 120.0,
    min_resource_budget: float = 0.5,
) -> st.SearchStrategy[DesignSpec]:
    """Feasible-ish synthesis constraints (the optimizer-contract range)."""
    return st.builds(
        DesignSpec,
        latency_budget_s=st.floats(
            min_value=min_budget_ms / 1e3, max_value=max_budget_ms / 1e3
        ),
        resource_budget=st.floats(min_value=min_resource_budget, max_value=1.0),
    )


# ----------------------------------------------------------------------
# Portfolio forecasts and specs
# ----------------------------------------------------------------------

def traffic_forecasts(
    max_components: int = 3,
) -> st.SearchStrategy:
    """Randomized traffic forecasts over the named scenarios.

    Component weights draw from a wide positive range so the
    normalization property (weights sum to 1 after
    :meth:`~repro.portfolio.TrafficForecast.normalized_weights`) is
    exercised far from the already-normalized fixed point.
    """
    from repro.portfolio import forecast

    scenario_names = tuple(REGIMES) + ("mixed",)
    components = st.dictionaries(
        st.sampled_from(scenario_names),
        st.floats(min_value=0.05, max_value=20.0),
        min_size=1,
        max_size=max_components,
    )
    return st.builds(
        forecast,
        components,
        name=st.just("prop"),
        num_sessions=st.integers(min_value=1, max_value=16),
        rate_hz=st.floats(min_value=0.5, max_value=20.0),
        seed=seeds(),
    )


def portfolio_specs(
    max_instances: int = 4,
) -> st.SearchStrategy:
    """Randomized solvable portfolio specs (small, CI-sized fleets)."""
    from repro.portfolio import PortfolioObjective, PortfolioSpec, default_candidates

    return st.builds(
        PortfolioSpec,
        forecast=traffic_forecasts(),
        candidates=st.just(default_candidates()),
        num_instances=st.integers(min_value=1, max_value=max_instances),
        max_configs=st.integers(min_value=1, max_value=max_instances),
        objective=st.sampled_from(PortfolioObjective),
        latency_slo_s=st.floats(min_value=0.02, max_value=0.2),
        sizing_windows=st.just(8),
        max_features=st.just(120),
    )
