"""Trace-driven co-simulation: replay an estimator run on a design.

Feeds every window of a real estimator run — its actual feature counts,
observation statistics, and iteration counts — through the cycle-level
:class:`~repro.hw.sim.accelerator.AcceleratorSim`, producing the
per-window latency/energy series the on-vehicle deployment would see and
a comparison against the closed-form model (the validation role Vivado
timing played for the paper). :func:`simulate_windows` is the one entry
point; it takes tens of milliseconds over a full recording, so callers
run it on the engine's cached estimator run rather than caching it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.config import HardwareConfig
from repro.hw.fpga import FpgaPlatform, ZC706
from repro.hw.latency import window_latency_cycles
from repro.hw.sim.accelerator import AcceleratorSim


@dataclass
class TraceSimulation:
    """Per-window co-simulation results over one estimator run."""

    seconds: list[float] = field(default_factory=list)
    energies_j: list[float] = field(default_factory=list)
    simulated_cycles: list[float] = field(default_factory=list)
    analytical_cycles: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds))

    @property
    def total_energy_j(self) -> float:
        return float(sum(self.energies_j))

    @property
    def worst_case_seconds(self) -> float:
        return float(max(self.seconds)) if self.seconds else 0.0

    def model_agreement(self) -> float:
        """Mean |simulated - analytical| / analytical over the trace.

        Windows whose analytical cycle count is zero (degenerate
        workloads the closed-form model prices at nothing) are excluded
        rather than allowed to poison the mean with a division by zero.
        """
        sim = np.asarray(self.simulated_cycles)
        model = np.asarray(self.analytical_cycles)
        defined = model != 0.0
        if not defined.any():
            return 0.0
        return float(
            np.mean(np.abs(sim[defined] - model[defined]) / model[defined])
        )


def simulate_windows(
    workloads,
    config: HardwareConfig,
    platform: FpgaPlatform = ZC706,
    seed: int = 0,
) -> TraceSimulation:
    """Replay a series of per-window workloads on a design.

    ``workloads`` is an iterable of ``(WindowStats, iterations)`` pairs;
    for a :class:`~repro.slam.estimator.RunResult` that is
    ``[(w.stats, w.iterations) for w in run.windows]``, the iteration
    count the estimator actually spent (so the run-time system's
    decisions flow straight into the hardware timing). Each window gets
    a seeded observation-count draw. Windows with no features are
    skipped but still advance the per-window seed, so a trace keeps its
    draws regardless of how many warm-up windows precede it.
    """
    sim = AcceleratorSim(config, platform)
    trace = TraceSimulation()
    for index, (stats, iterations) in enumerate(workloads):
        if stats.num_features < 1:
            continue
        iterations = max(iterations, 1)
        execution = sim.run_window(
            stats, iterations=iterations, seed=seed + index
        )
        trace.seconds.append(execution.seconds)
        trace.energies_j.append(execution.energy_j)
        trace.simulated_cycles.append(execution.total_cycles)
        trace.analytical_cycles.append(
            window_latency_cycles(stats, config, iterations)
        )
    return trace

