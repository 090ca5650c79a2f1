"""Baselines: CPU software, prior accelerators, and HLS comparators.

* :mod:`cpu` — calibrated execution/power models of the paper's two
  software baselines (12-core Intel Comet Lake, quad-core Arm
  Cortex-A57 on Jetson TX1) running the multithreaded, vectorized
  ceres-style implementation.
* :mod:`ceres` — a dense-normal-equations LM solver used as a
  functional reference (the "generic solver" our structured path must
  numerically match).
* :mod:`accelerators` — comparator models of the prior localization
  accelerators of Sec. 7.5 (pi-BA, BAX, Zhang et al., PISCES).
* :mod:`hls` — the hand-written Vivado-HLS Cholesky comparator.
"""

from repro.baselines.cpu import (
    CpuPlatform,
    INTEL_COMET_LAKE,
    ARM_A57,
)
from repro.baselines.ceres import dense_lm_solve
from repro.baselines.accelerators import (
    PriorAccelerator,
    PI_BA,
    BAX,
    ZHANG_RSS17,
    PISCES,
    PRIOR_ACCELERATORS,
)
from repro.baselines.hls import HlsCholesky, HLS_CHOLESKY

__all__ = [
    "CpuPlatform",
    "INTEL_COMET_LAKE",
    "ARM_A57",
    "dense_lm_solve",
    "PriorAccelerator",
    "PI_BA",
    "BAX",
    "ZHANG_RSS17",
    "PISCES",
    "PRIOR_ACCELERATORS",
    "HlsCholesky",
    "HLS_CHOLESKY",
]
