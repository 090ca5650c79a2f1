"""Mixed-integer solve via continuous relaxation (the YALMIP analogue).

The paper formulates synthesis as 3-variable mixed-integer convex
programming and solves it near-optimally with YALMIP in milliseconds.
Our primary solver is the exact grid search (strictly stronger), but
this module reproduces the paper's *approach*: relax the integrality,
solve the continuous program with SciPy's SLSQP, then round to the
neighboring lattice points and locally repair. Tests verify the relaxed
solve lands within a small optimality gap of the exact optimum — the
"near-optimal" behaviour the paper reports.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from time import perf_counter
from types import ModuleType

import numpy as np

from repro.errors import InfeasibleDesignError
from repro.hw.config import HardwareConfig, ND_RANGE, NM_RANGE, S_RANGE
from repro.hw.fpga import RESOURCE_KINDS
from repro.hw.latency import (
    CYCLES_PER_MAC,
    backsub_latency,
    cholesky_latency,
    dschur_feature_latency,
    jacobian_feature_latency,
    window_latency_seconds,
)
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.hw.resources import DEFAULT_RESOURCE_MODEL
from repro.synth.optimizer import SearchOutcome
from repro.synth.spec import DesignSpec


class _ContinuousLatency:
    """A continuous surrogate of the latency model.

    The nd and nm terms of Equ. 9-10 are already smooth in the real
    knobs; the s term (Equ. 7) is piecewise, so it is linearly
    interpolated over the integer grid — the standard relaxation of a
    tabulated integer response.
    """

    def __init__(self, spec: DesignSpec) -> None:
        stats = spec.workload
        self._spec = spec
        self._a = max(stats.num_features, 1)
        self._am = max(stats.num_marginalized, 1)
        self._jac = jacobian_feature_latency(stats.avg_observations)
        self._sub = backsub_latency(stats)
        self._no = stats.avg_observations
        q = stats.state_size * max(stats.num_keyframes, 1)
        self._s_grid = np.arange(S_RANGE[0], S_RANGE[1] + 1, dtype=float)
        self._chol = np.array([cholesky_latency(q, int(s)) for s in self._s_grid])

    def seconds(self, x: np.ndarray) -> float:
        nd, nm, s = x
        dschur = dschur_feature_latency(self._no, 1) / max(nd, 1e-6)
        chol = float(np.interp(s, self._s_grid, self._chol))
        per_feature = max(self._jac, dschur)
        nls = self._a * per_feature + chol + self._sub
        # Continuous Equ. 10: inline with real-valued nm.
        stats = self._spec.workload
        am, b = self._am, max(stats.num_keyframes, 2)
        bk = (15.0 + am) / max(nm, 1e-6)
        keep = 6.0 * (b - 1) + 9.0
        mschur = CYCLES_PER_MAC * (
            15.0 * am + am * am + bk * (15.0 + am) * keep + bk * keep * keep
        )
        marg = self._am * self._jac + self._am * dschur + chol + mschur
        cycles = self._spec.iterations * nls + marg
        return cycles / self._spec.platform.frequency_hz


def relaxation_search(spec: DesignSpec) -> SearchOutcome:
    """Solve Equ. 11 by continuous relaxation + rounding + local repair."""
    # Loaded here, outside the timed solve, not at module import:
    # scipy.optimize brings scipy.sparse, .spatial and .special with it
    # (~20 MiB RSS in every process), and only this solver uses it.
    from scipy import optimize

    started = perf_counter()
    outcome = _solve(spec, optimize)
    return replace(outcome, solve_seconds=perf_counter() - started)


def _solve(spec: DesignSpec, optimize: ModuleType) -> SearchOutcome:
    latency = _ContinuousLatency(spec)

    def power_of(x: np.ndarray) -> float:
        return (
            DEFAULT_POWER_MODEL.base
            + DEFAULT_POWER_MODEL.per_nd * x[0]
            + DEFAULT_POWER_MODEL.per_nm * x[1]
            + DEFAULT_POWER_MODEL.per_s * x[2]
        )

    def resource_slack(x: np.ndarray) -> np.ndarray:
        config_like = x
        slacks = []
        for kind in RESOURCE_KINDS:
            linear = getattr(DEFAULT_RESOURCE_MODEL, kind)
            usage = (
                linear.base
                + linear.per_nd * config_like[0]
                + linear.per_nm * config_like[1]
                + linear.per_s * config_like[2]
            )
            slacks.append(
                spec.resource_budget * spec.platform.capacity(kind) - usage
            )
        return np.array(slacks)

    bounds = [
        (float(ND_RANGE[0]), float(ND_RANGE[1])),
        (float(NM_RANGE[0]), float(NM_RANGE[1])),
        (float(S_RANGE[0]), float(S_RANGE[1])),
    ]
    constraints = [
        optimize.NonlinearConstraint(
            lambda x: spec.latency_budget_s - latency.seconds(x), 0.0, np.inf
        ),
        optimize.NonlinearConstraint(resource_slack, 0.0, np.inf),
    ]
    x0 = np.array([b[1] for b in bounds])  # start feasible-in-latency
    solution = optimize.minimize(
        power_of,
        x0,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-10},
    )

    # Round to the neighboring lattice and locally repair: among the 27
    # integer neighbours (then an expanding ring if none is feasible),
    # pick the min-power feasible point.
    def feasible(config: HardwareConfig) -> bool:
        if not DEFAULT_RESOURCE_MODEL.fits(
            config, spec.platform, spec.resource_budget
        ):
            return False
        return (
            window_latency_seconds(
                spec.workload, config, spec.iterations, spec.platform
            )
            <= spec.latency_budget_s
        )

    center = solution.x
    best: HardwareConfig | None = None
    best_power = np.inf
    for radius in (1, 2, 4, 8):
        offsets = range(-radius, radius + 1)
        for d_nd, d_nm, d_s in itertools.product(offsets, offsets, offsets):
            nd = int(np.clip(round(center[0]) + d_nd, *ND_RANGE))
            nm = int(np.clip(round(center[1]) + d_nm, *NM_RANGE))
            s = int(np.clip(round(center[2]) + d_s, *S_RANGE))
            config = HardwareConfig(nd, nm, s)
            power = DEFAULT_POWER_MODEL.power(config)
            if power < best_power and feasible(config):
                best, best_power = config, power
        if best is not None:
            break
    if best is None:
        raise InfeasibleDesignError(
            "relaxation rounding found no feasible integer design"
        )
    return SearchOutcome(
        config=best,
        power_w=best_power,
        latency_s=window_latency_seconds(
            spec.workload, best, spec.iterations, spec.platform
        ),
        solve_seconds=0.0,  # stamped by the caller
        evaluated_points=int(solution.nit),
    )
