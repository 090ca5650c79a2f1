"""Sec. 7.3 / 7.5 / 7.7 experiments: generator efficiency, prior
accelerators, other FPGAs and other algorithms."""

from __future__ import annotations

from repro.baselines import (
    ARM_A57,
    HLS_CHOLESKY,
    INTEL_COMET_LAKE,
    PRIOR_ACCELERATORS,
)
from repro.apps import curve_fitting_workload, pose_estimation_workload
from repro.experiments.common import ExperimentResult
from repro.hw import REFERENCE_WORKLOAD
from repro.hw.fpga import KINTEX7_160T, VIRTEX7_690T, ZC706
from repro.hw.latency import cholesky_latency, nls_iteration_latency
from repro.synth import (
    DesignSpec,
    Objective,
    biggest_fit_design,
    design_space_metrics,
    high_perf_design,
    synthesize,
)


def run_sec73() -> ExperimentResult:
    """Generator efficiency: seconds against the 15-year exhaustive flow."""
    metrics = design_space_metrics()
    result = ExperimentResult(
        experiment_id="sec73",
        title="Hardware generator efficiency (Sec. 7.3)",
        columns=["quantity", "value"],
    )
    result.rows = [
        ["design space points", metrics.num_designs],
        ["exhaustive FPGA-flow estimate (years)", round(metrics.exhaustive_flow_years, 1)],
        ["our generator (seconds)", round(metrics.generator_seconds, 4)],
        ["speed ratio", f"{metrics.speed_ratio:.2e}"],
    ]
    result.notes = "Paper: ~90,000 designs, ~15 years exhaustive, ~3 s generator."
    return result


def run_sec75() -> ExperimentResult:
    """Comparison with prior accelerators and the HLS Cholesky."""
    hp = high_perf_design()
    t_iter = nls_iteration_latency(REFERENCE_WORKLOAD, hp.config) / ZC706.frequency_hz
    e_iter = t_iter * hp.power_w
    result = ExperimentResult(
        experiment_id="sec75",
        title="High-Perf vs prior localization accelerators (per NLS iteration)",
        columns=["system", "speedup_x", "energy_ratio_x", "marginalization"],
    )
    for accel in PRIOR_ACCELERATORS.values():
        result.rows.append(
            [
                accel.name,
                round(accel.speedup_of(t_iter), 1),
                round(accel.energy_reduction_of(e_iter), 2),
                "yes" if accel.supports_marginalization else "no",
            ]
        )
    m = 225
    hls_slowdown = HLS_CHOLESKY.slowdown_vs(
        cholesky_latency(m, hp.config.s), ZC706.frequency_hz, m
    )
    result.rows.append(
        [
            "hand-HLS Cholesky (module-level)",
            round(hls_slowdown, 1),
            round(1.0 / HLS_CHOLESKY.resource_factor, 2),
            "n/a",
        ]
    )
    result.notes = (
        "energy_ratio < 1 means the comparator uses less energy (PISCES is "
        "a low-power design; Archytas is 5.4x faster at ~3x its energy). "
        "Paper: pi-BA 137x/132x, BAX 9x/44% less energy, Zhang >20x, "
        "PISCES 5.4x faster/3x energy, HLS 16.4x slower."
    )
    return result


def run_sec77_fpgas() -> ExperimentResult:
    """Other FPGA boards: biggest-fit designs and their CPU ratios."""
    result = ExperimentResult(
        experiment_id="sec77a",
        title="Biggest-fit designs on other FPGAs (EuRoC-scale workload)",
        columns=[
            "board",
            "nd",
            "nm",
            "s",
            "latency_ms",
            "speedup_intel",
            "energy_red_intel",
            "speedup_arm",
            "energy_red_arm",
        ],
    )
    t_intel = INTEL_COMET_LAKE.window_time(REFERENCE_WORKLOAD)
    t_arm = ARM_A57.window_time(REFERENCE_WORKLOAD)
    for board in (KINTEX7_160T, ZC706, VIRTEX7_690T):
        design = biggest_fit_design(board)
        e_acc = design.latency_s * design.power_w
        result.rows.append(
            [
                board.name.split()[1],
                design.config.nd,
                design.config.nm,
                design.config.s,
                design.latency_s * 1e3,
                round(t_intel / design.latency_s, 1),
                round(t_intel * INTEL_COMET_LAKE.power_w / e_acc, 1),
                round(t_arm / design.latency_s, 1),
                round(t_arm * ARM_A57.power_w / e_acc, 1),
            ]
        )
    result.notes = (
        "Bigger boards admit faster designs (paper: Kintex 6.6x, Virtex "
        "10.2x over Intel; energy reductions grow with board size)."
    )
    return result


def run_sec77_apps() -> ExperimentResult:
    """Other MAP algorithms: curve fitting (planning) and pose estimation
    (AR), each with a generated accelerator vs the Intel baseline."""
    result = ExperimentResult(
        experiment_id="sec77b",
        title="Archytas on non-SLAM MAP workloads (vs Intel)",
        columns=["application", "nd", "nm", "s", "latency_ms", "speedup_x", "energy_red_x"],
    )
    for name, (stats, iterations) in (
        ("curve fitting (planning)", curve_fitting_workload()),
        ("pose estimation (AR)", pose_estimation_workload()),
    ):
        spec = DesignSpec(workload=stats, iterations=iterations, objective=Objective.LATENCY)
        fastest = synthesize(spec)
        # Report the knee design: for these small workloads the latency-
        # resource curve is flat past small configurations, so the
        # fastest-within-5% point is the meaningful design.
        knee = synthesize(
            DesignSpec(
                workload=stats,
                iterations=iterations,
                latency_budget_s=fastest.latency_s * 1.05,
            )
        )
        t_cpu = INTEL_COMET_LAKE.window_time(stats, iterations)
        result.rows.append(
            [
                name,
                knee.config.nd,
                knee.config.nm,
                knee.config.s,
                knee.latency_s * 1e3,
                round(t_cpu / knee.latency_s, 1),
                round(t_cpu * INTEL_COMET_LAKE.power_w / (knee.latency_s * knee.power_w), 1),
            ]
        )
    result.notes = (
        "Paper: curve fitting 8.5x / 257x, pose estimation 7.0x / 124.8x. "
        "Shape to check: both accelerate well; curve fitting gains more."
    )
    return result
