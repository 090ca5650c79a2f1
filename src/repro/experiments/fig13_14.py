"""Fig. 13 (knob sweeps) and Fig. 14 (Pareto frontier + validation)."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.hw import (
    DEFAULT_RESOURCE_MODEL,
    HardwareConfig,
    LatencyModel,
    ZC706,
)
from repro.hw.config import ND_RANGE, NM_RANGE, S_RANGE
from repro.synth import pareto_frontier, perturb_and_validate

# The fixed values the other two knobs hold during a sweep (mid-range,
# like the paper's per-knob studies).
_SWEEP_BASE = HardwareConfig(nd=15, nm=12, s=40)


def _sweep(knob: str, values: list[int]) -> ExperimentResult:
    latency = LatencyModel()
    result = ExperimentResult(
        experiment_id=f"fig13{knob}",
        title=f"Impact of {knob} on resources and execution time",
        columns=[knob, "time_ms", "lut_pct", "ff_pct", "bram_pct", "dsp_pct"],
    )
    for value in values:
        config = HardwareConfig(
            nd=value if knob == "nd" else _SWEEP_BASE.nd,
            nm=value if knob == "nm" else _SWEEP_BASE.nm,
            s=value if knob == "s" else _SWEEP_BASE.s,
        )
        utilization = DEFAULT_RESOURCE_MODEL.utilization(config, ZC706)
        result.rows.append(
            [
                value,
                latency.seconds(config) * 1e3,
                100 * utilization["lut"],
                100 * utilization["ff"],
                100 * utilization["bram"],
                100 * utilization["dsp"],
            ]
        )
    return result


def run_fig13a() -> ExperimentResult:
    return _sweep("nd", list(range(ND_RANGE[0], ND_RANGE[1] + 1, 2)))


def run_fig13b() -> ExperimentResult:
    return _sweep("nm", list(range(NM_RANGE[0], NM_RANGE[1] + 1, 2)))


def run_fig13c() -> ExperimentResult:
    return _sweep("s", list(range(S_RANGE[0], S_RANGE[1] + 1, 8)))


def run_fig14() -> ExperimentResult:
    """The latency-vs-power Pareto frontier plus perturbation check."""
    frontier = pareto_frontier()
    result = ExperimentResult(
        experiment_id="fig14",
        title="Latency-vs-power Pareto-optimal designs (power objective)",
        columns=["latency_ms", "power_w", "nd", "nm", "s"],
    )
    for point in frontier:
        result.rows.append(
            [
                point.latency_s * 1e3,
                point.power_w,
                point.config.nd,
                point.config.nm,
                point.config.s,
            ]
        )
    perturbed, all_dominated = perturb_and_validate(frontier)
    result.notes = (
        f"{len(perturbed)} perturbed designs generated; all Pareto-dominated "
        f"by generator output: {all_dominated} (paper's validity check)."
    )
    return result
