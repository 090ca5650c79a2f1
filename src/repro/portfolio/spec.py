"""Portfolio specifications: traffic forecasts and fleet-synthesis specs.

Archytas synthesizes one accelerator for one robot; the CICC 2022
follow-up makes that accelerator runtime-reconfigurable. At datacenter
scale the same question becomes a *fleet planning* problem: given a
forecast of the traffic mix a serving tier will face (how much tunnel
crawling, how many loop closures, ...), which *portfolio* of synthesized
design points should the fixed instance budget be split across?

Two frozen specs describe that problem:

* :class:`TrafficForecast` — a weighted mixture of named
  :mod:`repro.scenarios` specs plus the arrival-rate / session-count
  knobs of the offered load. Resolution is by name with did-you-mean,
  exactly like :func:`repro.scenarios.resolve_scenario`.
* :class:`PortfolioSpec` — the candidate :class:`~repro.synth.spec.DesignSpec`
  grid the solver may synthesize from, the fleet resource budget
  (instance count, distinct-config cap), and the objective:
  latency-SLO-constrained energy or energy-constrained latency.

Both are pure data: a spec plus its seed fully determines the solved
portfolio, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.scenarios import (
    SCENARIOS,
    make_scenario_stats_series,
    pure,
    resolve_scenario,
)
from repro.synth.spec import NAMED_DESIGN_SPECS, DesignSpec
from repro.utils.validation import lookup


class PortfolioObjective(Enum):
    """What the portfolio solver minimizes across the forecast mix."""

    ENERGY = "energy"  # min expected J/window s.t. latency SLO + capacity
    LATENCY = "latency"  # min expected latency s.t. capacity (+ power budget)


@dataclass(frozen=True)
class TrafficForecast:
    """A frozen, validated forecast of the serving tier's traffic mix.

    Attributes:
        name: presentation name (registry key for named forecasts).
        components: ``(scenario_name, weight)`` pairs. Each scenario must
            resolve through :data:`repro.scenarios.SCENARIOS`; a scenario
            that is itself a mixture (e.g. ``"mixed"``) contributes its
            regime weights scaled by the component weight.
        num_sessions: concurrent robot sessions the fleet will carry.
        rate_hz: per-session window arrival rate.
        seed: folded into the sizing-workload draws, so two solves of
            the same forecast see identical regime workloads.
    """

    name: str
    components: tuple[tuple[str, float], ...]
    num_sessions: int = 8
    rate_hz: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError(
                f"forecast {self.name!r} needs at least one scenario component"
            )
        for scenario, weight in self.components:
            resolve_scenario(scenario)  # raises with did-you-mean
            if not weight > 0.0:
                raise ConfigurationError(
                    f"forecast {self.name!r}: component {scenario!r} weight "
                    f"must be positive, got {weight}"
                )
        if self.num_sessions < 1:
            raise ConfigurationError(
                f"num_sessions must be >= 1, got {self.num_sessions}"
            )
        if not self.rate_hz > 0:
            raise ConfigurationError(f"rate_hz must be positive, got {self.rate_hz}")

    def normalized_weights(self) -> tuple[float, ...]:
        """Component weights scaled to sum to 1 (in component order)."""
        total = sum(weight for _, weight in self.components)
        return tuple(weight / total for _, weight in self.components)

    def regime_mix(self) -> tuple[tuple[str, float], ...]:
        """The forecast flattened to normalized per-regime weights.

        Scenario components that are themselves mixtures contribute each
        of their regimes scaled by the component weight; the result is
        aggregated by regime and sorted by regime name, so the mix is a
        canonical form independent of how the components were written.
        """
        accumulated: dict[str, float] = {}
        for (scenario, weight), normalized in zip(
            self.components, self.normalized_weights()
        ):
            spec = resolve_scenario(scenario)
            inner_total = sum(w for _, w in spec.components)
            for regime, inner_weight in spec.components:
                share = normalized * inner_weight / inner_total
                accumulated[regime] = accumulated.get(regime, 0.0) + share
        return tuple(sorted(accumulated.items()))

    @property
    def is_pure(self) -> bool:
        """True when the forecast collapses to a single regime."""
        return len(self.regime_mix()) == 1

    @property
    def offered_load_wps(self) -> float:
        """Aggregate offered window rate across all sessions."""
        return self.num_sessions * self.rate_hz

    def label(self) -> str:
        parts = "+".join(scenario for scenario, _ in self.components)
        return (
            f"{self.name}({parts}, sessions={self.num_sessions}, "
            f"rate={self.rate_hz:g}Hz)"
        )


def forecast(
    components: dict[str, float] | tuple[tuple[str, float], ...],
    name: str = "custom",
    num_sessions: int = 8,
    rate_hz: float = 4.0,
    seed: int = 0,
) -> TrafficForecast:
    """A forecast over named scenarios with the given weights."""
    if isinstance(components, dict):
        components = tuple(sorted(components.items()))
    return TrafficForecast(
        name=name,
        components=tuple(components),
        num_sessions=num_sessions,
        rate_hz=rate_hz,
        seed=seed,
    )


# Named forecasts the CLI/serve tier resolve by string: one per named
# scenario (pure pass-through, including the canonical "mixed" blend)
# plus a skewed blend that stresses the allocation logic.
FORECASTS: dict[str, TrafficForecast] = {
    **{
        name: TrafficForecast(name=name, components=((name, 1.0),))
        for name in sorted(SCENARIOS)
    },
    "tunnel-heavy": forecast(
        {"tunnel": 3.0, "loop_closure": 1.0}, name="tunnel-heavy"
    ),
}


def available_forecasts() -> list[str]:
    """All registered forecast names, sorted."""
    return sorted(FORECASTS)


def resolve_forecast(forecast: str | TrafficForecast) -> TrafficForecast:
    """Look up a named forecast (pass-through for specs), with
    did-you-mean on typos."""
    if isinstance(forecast, TrafficForecast):
        return forecast
    return lookup("traffic forecast", forecast, FORECASTS)


# ----------------------------------------------------------------------
# Regime demands: the solver's per-regime workload characterization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeDemand:
    """One regime's share of the forecast, with its sizing workload."""

    regime: str
    weight: float  # normalized share of offered windows
    stats: WindowStats  # representative per-window workload
    iterations: int  # representative NLS iteration count
    offered_wps: float  # weight * aggregate offered rate


def regime_sizing_workload(
    regime: str, seed: int, num_windows: int = 32, max_features: int = 200
) -> tuple[WindowStats, int]:
    """The deterministic sizing workload of one regime.

    The per-window mean of the regime's seeded stats series — the same
    series the trace/latency oracles replay — rounded back to a valid
    :class:`WindowStats`. A mean (not a max) because the portfolio sizes
    for the *expected* mix; tail windows queue or trigger drift swaps.
    """
    series = make_scenario_stats_series(
        pure(regime), seed, num_windows=num_windows, max_features=max_features
    )
    count = len(series)
    features = max(1, round(sum(s.num_features for s, _ in series) / count))
    keyframes = max(1, round(sum(s.num_keyframes for s, _ in series) / count))
    avg_obs = sum(s.avg_observations for s, _ in series) / count
    marginalized = min(
        features, round(sum(s.num_marginalized for s, _ in series) / count)
    )
    iterations = max(1, round(sum(it for _, it in series) / count))
    stats = WindowStats(
        num_features=features,
        avg_observations=avg_obs,
        num_keyframes=keyframes,
        num_marginalized=marginalized,
        num_observations=round(avg_obs * features),
    )
    return stats, iterations


def regime_demands(
    forecast: TrafficForecast, num_windows: int = 32, max_features: int = 200
) -> tuple[RegimeDemand, ...]:
    """Flatten a forecast into per-regime demands with sizing workloads."""
    demands = []
    for regime, weight in forecast.regime_mix():
        stats, iterations = regime_sizing_workload(
            regime, forecast.seed, num_windows=num_windows, max_features=max_features
        )
        demands.append(
            RegimeDemand(
                regime=regime,
                weight=weight,
                stats=stats,
                iterations=iterations,
                offered_wps=weight * forecast.offered_load_wps,
            )
        )
    return tuple(demands)


# ----------------------------------------------------------------------
# The portfolio spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PortfolioSpec:
    """Constraints of one fleet-synthesis solve.

    Attributes:
        forecast: the traffic mix being planned for.
        candidates: the :class:`DesignSpec` grid the solver synthesizes
            per-regime candidate configs from (each spec's latency
            budget / objective applies to its own synthesis runs).
        num_instances: the fleet's instance budget — every solution
            allocates exactly this many instances.
        max_configs: distinct configs the portfolio may mix (1 reduces
            the solve to single-config synthesis).
        objective: ENERGY (min expected J/window subject to the latency
            SLO) or LATENCY (min expected latency subject to capacity
            and, optionally, the provisioned power budget).
        latency_slo_s: per-window service-latency SLO each regime's
            assigned config should meet (ENERGY objective).
        power_budget_w: cap on provisioned fleet power (LATENCY
            objective); 0 means unbounded.
        sizing_windows / max_features: scale of the per-regime sizing
            series (kept in the spec so the solve is replayable).
    """

    forecast: TrafficForecast
    candidates: tuple[DesignSpec, ...]
    num_instances: int = 2
    max_configs: int = 2
    objective: PortfolioObjective = PortfolioObjective.ENERGY
    latency_slo_s: float = 0.050
    power_budget_w: float = 0.0
    sizing_windows: int = 32
    max_features: int = 200

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ConfigurationError("a portfolio needs at least one candidate spec")
        if self.num_instances < 1:
            raise ConfigurationError(
                f"num_instances must be >= 1, got {self.num_instances}"
            )
        if self.max_configs < 1:
            raise ConfigurationError(
                f"max_configs must be >= 1, got {self.max_configs}"
            )
        if not self.latency_slo_s > 0:
            raise ConfigurationError(
                f"latency_slo_s must be positive, got {self.latency_slo_s}"
            )
        if self.power_budget_w < 0:
            raise ConfigurationError(
                f"power_budget_w must be >= 0, got {self.power_budget_w}"
            )
        if self.sizing_windows < 1 or self.max_features < 1:
            raise ConfigurationError(
                "sizing_windows and max_features must be >= 1"
            )


def default_candidates() -> tuple[DesignSpec, ...]:
    """The default candidate grid: the specs of the named Tbl. 2 designs.

    High-Perf (20 ms budget) then Low-Power (33 ms), read from
    :data:`repro.synth.spec.NAMED_DESIGN_SPECS`.
    """
    return tuple(NAMED_DESIGN_SPECS.values())


def default_portfolio_spec(
    forecast: str | TrafficForecast,
    num_instances: int = 2,
    max_configs: int = 0,
    objective: PortfolioObjective = PortfolioObjective.ENERGY,
    latency_slo_s: float = 0.050,
    power_budget_w: float = 0.0,
) -> PortfolioSpec:
    """The spec the serve tier and CLI solve when given only a forecast.

    ``max_configs=0`` defaults to ``min(num_instances, 3)`` — enough
    diversity to cover a mixed forecast without exploding enumeration.
    """
    resolved = resolve_forecast(forecast)
    if max_configs < 1:
        max_configs = min(num_instances, 3)
    return PortfolioSpec(
        forecast=resolved,
        candidates=default_candidates(),
        num_instances=num_instances,
        max_configs=max_configs,
        objective=objective,
        latency_slo_s=latency_slo_s,
        power_budget_w=power_budget_w,
    )
