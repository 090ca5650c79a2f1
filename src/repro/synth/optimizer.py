"""Exact solvers for the synthesis optimization (Equ. 11 / Equ. 12).

The latency model is separable in the three knobs — the nd term, the nm
term and the s term contribute additively (with a max against the fixed
Jacobian latency) — so the full 90,000-point grid can be evaluated with
three small vectors and broadcasting. ``exhaustive_search`` does exactly
that in milliseconds and is provably optimal; ``pruned_search`` is a
coordinate sweep with monotonicity pruning that reaches the same answer
while touching a fraction of the space (kept for comparison and as the
analogue of the paper's convex solve).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.errors import InfeasibleDesignError
from repro.hw.config import HardwareConfig, ND_RANGE, NM_RANGE, S_RANGE
from repro.hw.fpga import RESOURCE_KINDS
from repro.hw.latency import (
    backsub_latency,
    cholesky_latency,
    dschur_feature_latency,
    jacobian_feature_latency,
    mschur_latency,
)
from repro.hw.power import DEFAULT_POWER_MODEL, PowerModel
from repro.hw.resources import DEFAULT_RESOURCE_MODEL, ResourceModel
from repro.synth.spec import DesignSpec, Objective

# Shared tie-breaking semantics for both solvers: every feasible point
# whose score lies within this relative band of the global minimum is a
# candidate, and the candidate with the smallest tiebreak metric wins
# (first in lexicographic (nd, nm, s) order on a tiebreak tie). The
# pruned sweep previously used an absolute 1e-15 window with
# first-seen-wins, which could disagree with the exhaustive grid on
# plateaus of the latency surface.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one optimization solve."""

    config: HardwareConfig
    power_w: float
    latency_s: float
    solve_seconds: float
    evaluated_points: int


def _latency_grid(
    spec: DesignSpec, upper_bound: HardwareConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized latency over the (possibly bounded) design space.

    Returns (nd_values, nm_values, s_values, latency_seconds) where the
    latency array has shape (len(nd), len(nm), len(s)). ``upper_bound``
    clips each knob's range — the Equ. 18 constraint that a run-time
    reconfiguration must fit inside the static design.
    """
    stats = spec.workload
    nd_max = upper_bound.nd if upper_bound else ND_RANGE[1]
    nm_max = upper_bound.nm if upper_bound else NM_RANGE[1]
    s_max = upper_bound.s if upper_bound else S_RANGE[1]
    nd_values = np.arange(ND_RANGE[0], nd_max + 1)
    nm_values = np.arange(NM_RANGE[0], nm_max + 1)
    s_values = np.arange(S_RANGE[0], s_max + 1)

    a = max(stats.num_features, 1)
    am = max(stats.num_marginalized, 1)
    q = stats.state_size * max(stats.num_keyframes, 1)
    jac = jacobian_feature_latency(stats.avg_observations)
    sub = backsub_latency(stats)

    dschur = np.array(
        [dschur_feature_latency(stats.avg_observations, int(nd)) for nd in nd_values]
    )
    chol = np.array([cholesky_latency(q, int(s)) for s in s_values])
    mschur = np.array([mschur_latency(stats, int(nm)) for nm in nm_values])
    per_feature = np.maximum(jac, dschur)  # (nd,)

    # Equ. 13: Iter * L_NLS + L_marg, broadcast over the three axes.
    nls = (
        spec.iterations * (a * per_feature[:, None] + chol[None, :] + sub)
    )  # (nd, s)
    marg_nd = am * jac + am * dschur  # (nd,)
    cycles = (
        nls[:, None, :]
        + marg_nd[:, None, None]
        + chol[None, None, :]
        + mschur[None, :, None]
    )  # (nd, nm, s)
    return nd_values, nm_values, s_values, cycles / spec.platform.frequency_hz


def _feasibility_grid(
    spec: DesignSpec,
    nd_values: np.ndarray,
    nm_values: np.ndarray,
    s_values: np.ndarray,
    resource_model: ResourceModel,
) -> np.ndarray:
    """Boolean (nd, nm, s) grid of resource feasibility (Equ. 16)."""
    feasible = np.ones(
        (nd_values.size, nm_values.size, s_values.size), dtype=bool
    )
    for kind in RESOURCE_KINDS:
        linear = getattr(resource_model, kind)
        usage = (
            linear.base
            + linear.per_nd * nd_values[:, None, None]
            + linear.per_nm * nm_values[None, :, None]
            + linear.per_s * s_values[None, None, :]
        )
        feasible &= usage <= spec.resource_budget * spec.platform.capacity(kind)
    return feasible


def _power_grid(
    nd_values: np.ndarray,
    nm_values: np.ndarray,
    s_values: np.ndarray,
    power_model: PowerModel,
) -> np.ndarray:
    return (
        power_model.base
        + power_model.per_nd * nd_values[:, None, None]
        + power_model.per_nm * nm_values[None, :, None]
        + power_model.per_s * s_values[None, None, :]
    )


def exhaustive_search(
    spec: DesignSpec,
    resource_model: ResourceModel = DEFAULT_RESOURCE_MODEL,
    power_model: PowerModel = DEFAULT_POWER_MODEL,
    upper_bound: HardwareConfig | None = None,
) -> SearchOutcome:
    """Evaluate the entire (possibly bounded) space; return the optimum."""
    started = perf_counter()
    nd_values, nm_values, s_values, latency = _latency_grid(spec, upper_bound)
    feasible = _feasibility_grid(
        spec, nd_values, nm_values, s_values, resource_model
    )
    power = _power_grid(nd_values, nm_values, s_values, power_model)

    if spec.objective is Objective.POWER:
        feasible &= latency <= spec.latency_budget_s
        score = np.where(feasible, power, np.inf)
        tiebreak = latency
    else:
        score = np.where(feasible, latency, np.inf)
        tiebreak = power

    if not np.isfinite(score).any():
        raise InfeasibleDesignError(
            f"no (nd, nm, s) meets latency <= "
            f"{spec.latency_budget_s * 1e3:.1f} ms "
            f"within the resources of {spec.platform.name}"
        )
    # Among in-band points prefer the smallest tiebreak metric; the
    # stable sort makes the lexicographically first (nd, nm, s) win
    # on exact tiebreak ties — the same total order pruned_search
    # maintains incrementally.
    best = np.min(score)
    candidates = np.argwhere(score <= best * (1 + _TIE_RTOL))
    order = np.argsort(
        [tiebreak[tuple(c)] for c in candidates], kind="stable"
    )
    i, j, k = candidates[order[0]]
    config = HardwareConfig(
        int(nd_values[i]), int(nm_values[j]), int(s_values[k])
    )
    return SearchOutcome(
        config=config,
        power_w=float(power[i, j, k]),
        latency_s=float(latency[i, j, k]),
        solve_seconds=perf_counter() - started,
        evaluated_points=int(score.size),
    )


def pruned_search(
    spec: DesignSpec,
    resource_model: ResourceModel = DEFAULT_RESOURCE_MODEL,
    power_model: PowerModel = DEFAULT_POWER_MODEL,
) -> SearchOutcome:
    """Monotonicity-pruned search reaching the same optimum.

    For the POWER objective: power is strictly increasing in every knob,
    so knobs are swept in increasing-power order and a (nd, nm) pair is
    abandoned as soon as its cheapest completion already exceeds the
    incumbent band.

    Tie-breaking matches :func:`exhaustive_search` exactly: a running
    candidate set keeps every feasible point within ``_TIE_RTOL`` of the
    current best score (filtered whenever the minimum drops), and the
    winner is the candidate with the smallest tiebreak metric,
    lexicographically first (nd, nm, s) on a tie — the incremental form
    of the exhaustive band + stable argsort.
    """
    started = perf_counter()
    nd_values, nm_values, s_values, latency = _latency_grid(spec)
    feasible = _feasibility_grid(
        spec, nd_values, nm_values, s_values, resource_model
    )

    min_score = np.inf
    # In-band (score, tiebreak, power, latency, config) tuples in
    # sweep (= lexicographic) order.
    candidates: list[tuple[float, float, float, float, HardwareConfig]] = []
    touched = 0
    minimize_power_objective = spec.objective is Objective.POWER

    def band() -> float:
        return min_score * (1 + _TIE_RTOL)

    for i, nd in enumerate(nd_values):
        # Cheapest possible completion of this nd.
        floor = power_model.power(
            HardwareConfig(int(nd), int(nm_values[0]), int(s_values[0]))
        )
        if minimize_power_objective and floor > band():
            break  # nd only grows from here; all further power floors do too
        for j, nm in enumerate(nm_values):
            floor = power_model.power(
                HardwareConfig(int(nd), int(nm), int(s_values[0]))
            )
            if minimize_power_objective and floor > band():
                break
            for k, s in enumerate(s_values):
                touched += 1
                config = HardwareConfig(int(nd), int(nm), int(s))
                power = power_model.power(config)
                if minimize_power_objective and power > band():
                    break  # s only grows power further
                if not feasible[i, j, k]:
                    continue
                lat = latency[i, j, k]
                if minimize_power_objective:
                    if lat > spec.latency_budget_s:
                        continue
                    score, tiebreak = power, lat
                else:
                    score, tiebreak = lat, power
                if score < min_score:
                    min_score = score
                    candidates = [
                        c for c in candidates if c[0] <= band()
                    ]
                if score <= band():
                    candidates.append((score, tiebreak, power, lat, config))

    if not candidates:
        raise InfeasibleDesignError(
            f"no (nd, nm, s) meets the constraints on {spec.platform.name}"
        )
    winner = candidates[0]
    for candidate in candidates[1:]:
        if candidate[1] < winner[1]:  # strict: first-seen wins ties
            winner = candidate
    return SearchOutcome(
        config=winner[4],
        power_w=winner[2],
        latency_s=winner[3],
        solve_seconds=perf_counter() - started,
        evaluated_points=touched,
    )


def minimize_power(spec: DesignSpec, **kwargs) -> SearchOutcome:
    """Equ. 11: min power subject to latency and resource constraints."""
    # dataclasses.replace keeps every other field — the old hand-copied
    # constructor silently reset any field it didn't enumerate.
    if spec.objective is not Objective.POWER:
        spec = replace(spec, objective=Objective.POWER)
    return exhaustive_search(spec, **kwargs)


def minimize_latency(spec: DesignSpec, **kwargs) -> SearchOutcome:
    """Equ. 12: min latency subject to resource constraints only."""
    spec = replace(
        spec,
        latency_budget_s=max(spec.latency_budget_s, 1e-9),
        objective=Objective.LATENCY,
    )
    return exhaustive_search(spec, **kwargs)
