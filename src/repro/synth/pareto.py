"""Latency-vs-power Pareto frontier exploration (Fig. 14).

``pareto_frontier`` sweeps the latency constraint and keeps the
non-dominated (latency, power) designs. ``perturb_and_validate``
reproduces the paper's best-effort optimality check: slightly vary the
parameters of every frontier design and verify the perturbed points are
Pareto-dominated by the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, InfeasibleDesignError
from repro.hw.config import HardwareConfig, ND_RANGE, NM_RANGE, S_RANGE
from repro.hw.latency import LatencyModel
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.synth.spec import DesignSpec
from repro.synth.synthesizer import synthesize


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier design."""

    config: HardwareConfig
    latency_s: float
    power_w: float


def pareto_frontier(
    spec: DesignSpec | None = None,
    latency_budgets_ms: np.ndarray | None = None,
) -> list[ParetoPoint]:
    """Sweep latency budgets and return the non-dominated designs."""
    spec = spec or DesignSpec()
    if latency_budgets_ms is None:
        latency_budgets_ms = np.linspace(18.0, 100.0, 24)
    points: list[ParetoPoint] = []
    for budget_ms in latency_budgets_ms:
        try:
            result = synthesize(replace(spec, latency_budget_s=budget_ms / 1e3))
        except InfeasibleDesignError:
            continue
        points.append(
            ParetoPoint(result.config, result.latency_s, result.power_w)
        )
    return _non_dominated(points)


def _non_dominated(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Filter to the Pareto-optimal subset (lower latency, lower power)."""
    unique = {p.config.as_tuple(): p for p in points}
    frontier = []
    for p in unique.values():
        dominated = any(
            (q.latency_s <= p.latency_s and q.power_w < p.power_w)
            or (q.latency_s < p.latency_s and q.power_w <= p.power_w)
            for q in unique.values()
        )
        if not dominated:
            frontier.append(p)
    return sorted(frontier, key=lambda p: p.latency_s)


def perturb_and_validate(
    frontier: list[ParetoPoint],
    spec: DesignSpec | None = None,
    perturbations: int = 6,
    seed: int = 0,
) -> tuple[list[ParetoPoint], bool]:
    """Fig. 14's validation: perturb each frontier design's knobs and
    check every perturbed design is Pareto-dominated by the frontier.

    Returns (perturbed_points, all_dominated).
    """
    if not frontier:
        raise ConfigurationError("frontier must not be empty")
    spec = spec or DesignSpec()
    latency_model = LatencyModel(spec.workload, spec.iterations, spec.platform)
    rng = np.random.default_rng(seed)

    perturbed: list[ParetoPoint] = []
    for point in frontier:
        for _ in range(perturbations):
            delta = rng.integers(-3, 4, size=3)
            candidate = HardwareConfig(
                int(np.clip(point.config.nd + delta[0], *ND_RANGE)),
                int(np.clip(point.config.nm + delta[1], *NM_RANGE)),
                int(np.clip(point.config.s + delta[2], *S_RANGE)),
            )
            if candidate.as_tuple() == point.config.as_tuple():
                continue
            perturbed.append(
                ParetoPoint(
                    candidate,
                    latency_model.seconds(candidate),
                    DEFAULT_POWER_MODEL.power(candidate),
                )
            )

    def dominated(p: ParetoPoint) -> bool:
        # Dominated by a sampled frontier point, or (because the frontier
        # is sampled at discrete budgets) by the optimal design the
        # generator produces when asked for exactly p's latency.
        if any(
            q.latency_s <= p.latency_s + 1e-12 and q.power_w <= p.power_w + 1e-12
            for q in frontier
        ):
            return True
        optimal = synthesize(replace(spec, latency_budget_s=p.latency_s + 1e-12))
        return optimal.power_w <= p.power_w + 1e-12

    return perturbed, all(dominated(p) for p in perturbed)
