"""The portfolio solver: from a traffic forecast to a fleet allocation.

``solve_portfolio`` runs in two stages, both exact and deterministic:

1. **Candidate synthesis.** Every candidate :class:`DesignSpec` is
   re-targeted at every regime's sizing workload
   (:func:`regime_design_spec`) and solved with the existing
   :func:`repro.synth.exhaustive_search` — the portfolio only ever mixes
   configs that are themselves optimal for *some* (budget, regime) pair,
   which keeps the candidate set tiny (#candidates x #regimes upper
   bound) without giving up optimality over the grid the spec describes.

2. **Allocation.** A small integer program solved by pruned
   enumeration: choose up to ``max_configs`` distinct configs and split
   ``num_instances`` among them, assigning each regime to its best
   config in the chosen subset. Scores are compared inside the same
   ``1e-12`` relative band the synthesizer uses, with the same
   smallest-tiebreak-then-lexicographic-first resolution, so the result
   is independent of enumeration incidentals and bit-stable across
   platforms.

When the forecast is a pure regime and the spec admits one config, the
solve reduces *exactly* to single-config synthesis: the portfolio's only
entry is ``synthesize(regime_design_spec(candidate, demand)).config``,
under either objective of the candidate. A pinned differential test
holds this equality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from time import perf_counter

from repro.errors import InfeasibleDesignError
from repro.hw.config import HardwareConfig
from repro.hw.latency import window_latency_seconds
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.portfolio.spec import (
    PortfolioObjective,
    PortfolioSpec,
    RegimeDemand,
    regime_demands,
)
from repro.synth.optimizer import exhaustive_search
from repro.synth.spec import DesignSpec

# The synthesizer's relative tie band (see repro.synth.optimizer): two
# allocation scores within this band are treated as tied and resolved by
# tiebreak metric, then lexicographically. Kept numerically identical so
# portfolio ties behave like synthesis ties.
_TIE_RTOL = 1e-12


def _close(a: float, b: float) -> bool:
    """True when two non-negative scores fall inside the tie band."""
    return abs(a - b) <= _TIE_RTOL * max(abs(a), abs(b))


def regime_design_spec(candidate: DesignSpec, demand: RegimeDemand) -> DesignSpec:
    """A candidate spec re-targeted at one regime's sizing workload.

    Only the workload and iteration count change; the latency budget,
    platform, resource budget and objective stay the candidate's. This
    is the exact spec the pinned single-config differential test feeds
    to :func:`repro.synth.synthesize`.
    """
    return replace(candidate, workload=demand.stats, iterations=demand.iterations)


@dataclass(frozen=True)
class PortfolioEntry:
    """One config in the solved portfolio and its share of the fleet."""

    config: HardwareConfig
    count: int
    power_w: float  # per-instance provisioned power
    utilization: float  # offered work / capacity of this config group
    assigned_regimes: tuple[str, ...]

    @property
    def config_id(self) -> str:
        return self.config.label

    def as_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "nd": self.config.nd,
            "nm": self.config.nm,
            "s": self.config.s,
            "count": self.count,
            "power_w": self.power_w,
            "utilization": self.utilization,
            "assigned_regimes": list(self.assigned_regimes),
        }


@dataclass(frozen=True)
class PortfolioSolution:
    """The solved fleet: configs, counts, and the regime assignment.

    ``as_dict`` deliberately excludes the timing / enumeration counters
    (``solve_seconds``, ``evaluated_*``) so the dict can embed in
    byte-identical serve metrics exports.
    """

    forecast_name: str
    objective: PortfolioObjective
    entries: tuple[PortfolioEntry, ...]
    assignment: tuple[tuple[str, str], ...]  # (regime, config_id)
    expected_energy_per_window_j: float
    expected_latency_s: float
    provisioned_power_w: float
    slo_met: bool
    evaluated_allocations: int
    evaluated_points: int
    solve_seconds: float

    @property
    def num_instances(self) -> int:
        return sum(entry.count for entry in self.entries)

    @property
    def num_configs(self) -> int:
        return len(self.entries)

    def instance_configs(self) -> tuple[HardwareConfig, ...]:
        """Per-instance configs in deterministic (entry-order) expansion."""
        configs: list[HardwareConfig] = []
        for entry in self.entries:
            configs.extend([entry.config] * entry.count)
        return tuple(configs)

    def as_dict(self) -> dict:
        return {
            "name": self.forecast_name,
            "objective": self.objective.value,
            "entries": [entry.as_dict() for entry in self.entries],
            "assignment": {regime: cid for regime, cid in self.assignment},
            "expected_energy_per_window_j": self.expected_energy_per_window_j,
            "expected_latency_s": self.expected_latency_s,
            "provisioned_power_w": self.provisioned_power_w,
            "slo_met": self.slo_met,
        }

    def render(self) -> str:
        lines = [
            f"portfolio for forecast {self.forecast_name!r} "
            f"(objective={self.objective.value})",
            f"  {'config':<16} {'count':>5} {'power/inst':>11} "
            f"{'util':>6}  regimes",
        ]
        for entry in self.entries:
            lines.append(
                f"  {entry.config_id:<16} {entry.count:>5} "
                f"{entry.power_w:>9.2f} W {entry.utilization:>6.2f}  "
                f"{', '.join(entry.assigned_regimes) or '-'}"
            )
        lines.append(
            f"  expected: {self.expected_latency_s * 1e3:.2f} ms/window, "
            f"{self.expected_energy_per_window_j * 1e3:.2f} mJ/window, "
            f"{self.provisioned_power_w:.2f} W provisioned, "
            f"SLO {'met' if self.slo_met else 'MISSED'}"
        )
        return "\n".join(lines)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ways to write ``total`` as ``parts`` positive integers, in
    lexicographic order."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first, *rest))
    return out


def _assign_regimes(
    configs: tuple[HardwareConfig, ...],
    demands: tuple[RegimeDemand, ...],
    service: dict[tuple[str, str], float],
    energy: dict[tuple[str, str], float],
    spec: PortfolioSpec,
) -> tuple[dict[str, HardwareConfig], float, bool]:
    """Each regime's best config within a subset, count-independent.

    Returns (assignment, mix score, slo met). The per-regime choice
    minimizes energy subject to the latency SLO (ENERGY objective) or
    service time outright (LATENCY objective), resolving ties inside the
    synth band by the opposite metric and then lexicographically —
    regimes that no config can serve inside the SLO fall back to the
    fastest config and mark the solution SLO-missed.
    """
    assignment: dict[str, HardwareConfig] = {}
    score = 0.0
    slo_met = True
    for demand in demands:
        best: HardwareConfig | None = None
        best_primary = best_secondary = float("inf")
        feasible_exists = any(
            service[(c.label, demand.regime)] <= spec.latency_slo_s for c in configs
        )
        if not feasible_exists:
            slo_met = False
        for config in configs:  # configs pre-sorted -> lex-first on ties
            s = service[(config.label, demand.regime)]
            e = energy[(config.label, demand.regime)]
            if spec.objective is PortfolioObjective.ENERGY:
                if feasible_exists and s > spec.latency_slo_s:
                    continue
                primary, secondary = (e, s) if feasible_exists else (s, e)
            else:
                primary, secondary = s, e
            if best is None or (
                not _close(primary, best_primary) and primary < best_primary
            ):
                best, best_primary, best_secondary = config, primary, secondary
            elif _close(primary, best_primary) and (
                not _close(secondary, best_secondary)
                and secondary < best_secondary
            ):
                best, best_primary, best_secondary = config, primary, secondary
        assert best is not None
        assignment[demand.regime] = best
        metric = (
            energy[(best.label, demand.regime)]
            if spec.objective is PortfolioObjective.ENERGY
            else service[(best.label, demand.regime)]
        )
        score += demand.weight * metric
    return assignment, score, slo_met


def solve_portfolio(spec: PortfolioSpec) -> PortfolioSolution:
    """Solve the fleet portfolio for a traffic forecast.

    Raises :class:`InfeasibleDesignError` only when *no* candidate spec
    synthesizes for *any* regime; capacity overload and SLO misses are
    soft (reported through ``utilization`` / ``slo_met``) because a
    fixed instance budget must always yield a deployable fleet.
    """
    tic = perf_counter()
    demands = regime_demands(
        spec.forecast,
        num_windows=spec.sizing_windows,
        max_features=spec.max_features,
    )
    platform = spec.candidates[0].platform

    # Stage 1: per-(candidate, regime) synthesis -> deduped config pool.
    evaluated_points = 0
    pool: set[HardwareConfig] = set()
    for candidate in spec.candidates:
        for demand in demands:
            try:
                outcome = exhaustive_search(regime_design_spec(candidate, demand))
            except InfeasibleDesignError:
                continue
            evaluated_points += outcome.evaluated_points
            pool.add(outcome.config)
    if not pool:
        raise InfeasibleDesignError(
            f"no candidate spec synthesizes for any regime of forecast "
            f"{spec.forecast.name!r}"
        )
    configs = tuple(sorted(pool, key=HardwareConfig.as_tuple))

    # Per-(config, regime) service time and energy on the sizing workload.
    service: dict[tuple[str, str], float] = {}
    energy: dict[tuple[str, str], float] = {}
    for config in configs:
        for demand in demands:
            seconds = window_latency_seconds(
                demand.stats, config, demand.iterations, platform
            )
            service[(config.label, demand.regime)] = seconds
            energy[(config.label, demand.regime)] = (
                seconds * DEFAULT_POWER_MODEL.power(config)
            )

    # Stage 2: pruned enumeration of (subset, composition) allocations.
    max_k = min(spec.max_configs, spec.num_instances, len(configs))
    best_key: tuple | None = None
    best_solution: tuple | None = None
    evaluated_allocations = 0
    for k in range(1, max_k + 1):
        for subset in combinations(configs, k):
            assignment, mix_score, slo_met = _assign_regimes(
                subset, demands, service, energy, spec
            )
            # Subset-level prune: the mix score is count-independent and
            # only the feasibility flags depend on counts, so a subset
            # already worse than a feasible incumbent cannot win.
            if (
                best_key is not None
                and best_key[0] == 0  # incumbent within capacity
                and best_key[1] == 0.0  # incumbent met the SLO everywhere
                and slo_met
                and not _close(mix_score, best_key[2])
                and mix_score > best_key[2]
            ):
                continue
            used = {assignment[d.regime].label for d in demands}
            if len(used) < len(subset):
                # Some config in the subset serves no regime: the subset
                # without it reaches the same assignment and frees its
                # instances for the configs doing the work.
                continue
            for counts in _compositions(spec.num_instances, k):
                evaluated_allocations += 1
                # Offered load per config group -> utilization.
                utilization = {}
                for config, count in zip(subset, counts):
                    offered_s = sum(
                        d.offered_wps * service[(config.label, d.regime)]
                        for d in demands
                        if assignment[d.regime] is config
                    )
                    utilization[config.label] = offered_s / count
                # Idle groups (configs no regime picked) waste instances
                # unless they absorb nothing; penalize via provisioned
                # power, not a hard reject, to keep every budget solvable.
                provisioned = sum(
                    DEFAULT_POWER_MODEL.power(config) * count
                    for config, count in zip(subset, counts)
                )
                overload = max(utilization.values(), default=0.0)
                capacity_violated = 1 if overload > 1.0 + _TIE_RTOL else 0
                power_violated = 1 if (
                    spec.power_budget_w > 0
                    and provisioned > spec.power_budget_w * (1 + _TIE_RTOL)
                ) else 0
                slo_weight = 0.0 if slo_met else 1.0
                key = (
                    capacity_violated + power_violated,
                    slo_weight,
                    mix_score,
                    provisioned,
                    overload,
                    tuple(c.as_tuple() for c in subset),
                    counts,
                )
                if best_key is None or _key_less(key, best_key):
                    best_key = key
                    best_solution = (subset, counts, assignment, mix_score, slo_met)

    assert best_solution is not None
    subset, counts, assignment, mix_score, slo_met = best_solution
    regime_order = tuple(d.regime for d in demands)
    entries = tuple(
        PortfolioEntry(
            config=config,
            count=count,
            power_w=DEFAULT_POWER_MODEL.power(config),
            utilization=sum(
                d.offered_wps * service[(config.label, d.regime)]
                for d in demands
                if assignment[d.regime] is config
            )
            / count,
            assigned_regimes=tuple(
                r for r in regime_order if assignment[r] is config
            ),
        )
        for config, count in zip(subset, counts)
    )
    expected_latency = sum(
        d.weight * service[(assignment[d.regime].label, d.regime)] for d in demands
    )
    expected_energy = sum(
        d.weight * energy[(assignment[d.regime].label, d.regime)] for d in demands
    )
    return PortfolioSolution(
        forecast_name=spec.forecast.name,
        objective=spec.objective,
        entries=entries,
        assignment=tuple(
            (regime, assignment[regime].label) for regime in regime_order
        ),
        expected_energy_per_window_j=expected_energy,
        expected_latency_s=expected_latency,
        provisioned_power_w=sum(e.power_w * e.count for e in entries),
        slo_met=slo_met,
        evaluated_allocations=evaluated_allocations,
        evaluated_points=evaluated_points,
        solve_seconds=perf_counter() - tic,
    )


def _key_less(a: tuple, b: tuple) -> bool:
    """Band-aware lexicographic comparison of allocation keys.

    Float fields tie inside the synth band and fall through to the next
    field; the trailing integer tuples give a total order, so the first
    allocation in enumeration order wins exact ties.
    """
    for x, y in zip(a, b):
        if isinstance(x, float):
            if _close(x, y):
                continue
            return x < y
        if x != y:
            return x < y
    return False
