"""Drone localization on a EuRoC-like sequence, with dynamic optimization.

The full on-vehicle story of Fig. 1:
  1. synthesize a High-Perf accelerator for the ZC706;
  2. run the MAP estimator over a synthetic EuRoC Machine-Hall sequence
     (the work the accelerator would execute per window);
  3. enable the Sec. 6 run-time system — feature-count lookup table,
     2-bit saturating counter, memoized clock-gated configurations —
     and compare energy with and without it.

The sequence, the design and the estimator run flow through the
execution engine, so a second invocation reads the cached artifacts
instead of recomputing them; the controller replay is milliseconds of
table lookups over the run and is simply recomputed.

Run: python examples/drone_euroc.py
Set REPRO_EXAMPLE_DURATION to shorten the sequence (e.g. smoke tests).
"""

import os

import numpy as np

from repro.engine import (
    ESTIMATOR,
    EstimatorRequest,
    PolicySpec,
    SEQUENCE,
    design_reconfiguration,
    get_engine,
    named_design,
    sequence_config,
)
from repro.runtime import IterationTable, replay_windows
from repro.slam import EstimatorConfig, absolute_trajectory_error


def main() -> None:
    duration = float(os.environ.get("REPRO_EXAMPLE_DURATION", "12.0"))
    engine = get_engine()
    config = sequence_config("euroc", "MH_03", duration)
    sequence = engine.run(SEQUENCE, config)
    print(f"sequence MH_03: {sequence.num_keyframes} keyframes, "
          f"{int(sequence.feature_counts().sum())} feature observations")

    # The static accelerator design.
    design = named_design("High-Perf", engine)
    print(f"accelerator: nd={design.config.nd} nm={design.config.nm} "
          f"s={design.config.s} @ {design.power_w:.2f} W")

    # Run the estimator with the run-time iteration policy installed.
    request = EstimatorRequest(
        sequence=config,
        estimator=EstimatorConfig(window_size=8),
        policy=PolicySpec(design="High-Perf"),
    )
    run = engine.run(ESTIMATOR, request)

    ate = absolute_trajectory_error(
        np.array(run.estimated_positions), np.array(run.true_positions)
    )
    print(f"\nestimation: {run.num_windows} windows, ATE = {ate * 100:.1f} cm")
    print(f"feature counts: min {min(run.feature_counts)}, "
          f"max {max(run.feature_counts)}")

    # Replay the workload through the controller for energy accounting.
    replay = replay_windows(
        [w.stats for w in run.windows],
        IterationTable(),
        design_reconfiguration("High-Perf", engine),
    )
    print(f"\nrun-time optimization:")
    print(f"  static energy  : {replay.total_static_energy_j * 1e3:.1f} mJ")
    print(f"  dynamic energy : {replay.total_energy_j * 1e3:.1f} mJ")
    print(f"  saving         : {100 * replay.energy_saving:.1f}%")
    print(f"  reconfigurations: {replay.num_reconfigurations} "
          f"(host passes 3 numbers to the FPGA each time)")
    iterations = [d.applied_iterations for d in replay.decisions]
    print(f"  iteration counts: mean {np.mean(iterations):.1f}, "
          f"histogram {np.bincount(iterations, minlength=7)[1:].tolist()}")
    print(f"\n{engine.stats_line()}")


if __name__ == "__main__":
    main()
