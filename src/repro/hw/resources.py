"""The linear resource model (Equ. 16).

Res(nd, nm, s) = R0 + nd Rd + nm Rm + s Rs, independently for each of
the four FPGA resource types (LUT, FF, BRAM, DSP). A design fits only if
*every* resource type fits — exceeding even one means the design cannot
be instantiated.

The default coefficients are calibrated against the paper's Tbl. 2: the
High-Perf (nd=28, nm=19, s=97) and Low-Power (nd=21, nm=8, s=34) designs
reproduce the published utilization numbers on the ZC706 to within a few
percent, and the per-knob sensitivities follow Fig. 13 (s dominates DSP
demand; DSP is the scarcest resource).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.hw.fpga import RESOURCE_KINDS, FpgaPlatform


@dataclass(frozen=True)
class LinearResource:
    """One resource type's (R0, Rd, Rm, Rs) coefficients."""

    base: float
    per_nd: float
    per_nm: float
    per_s: float

    def evaluate(self, config: HardwareConfig) -> float:
        return (
            self.base
            + self.per_nd * config.nd
            + self.per_nm * config.nm
            + self.per_s * config.s
        )


@dataclass(frozen=True)
class ResourceModel:
    """Per-resource linear models plus fit/fit-check helpers."""

    lut: LinearResource
    ff: LinearResource
    bram: LinearResource
    dsp: LinearResource

    def usage(self, config: HardwareConfig) -> dict[str, float]:
        return {kind: getattr(self, kind).evaluate(config) for kind in RESOURCE_KINDS}

    def utilization(self, config: HardwareConfig, platform: FpgaPlatform) -> dict[str, float]:
        """Fraction of each resource consumed on the given platform."""
        usage = self.usage(config)
        return {kind: usage[kind] / platform.capacity(kind) for kind in RESOURCE_KINDS}

    def fits(self, config: HardwareConfig, platform: FpgaPlatform,
             budget: float = 1.0) -> bool:
        """True if every resource stays within ``budget`` x capacity."""
        return all(u <= budget for u in self.utilization(config, platform).values())

    def binding_resource(self, config: HardwareConfig, platform: FpgaPlatform) -> str:
        """The resource type with the highest utilization (the limiter)."""
        utilization = self.utilization(config, platform)
        return max(utilization, key=utilization.get)


# Calibration targets (paper Tbl. 2, ZC706):
#   High-Perf (28, 19, 97): LUT 136432, FF 163006, BRAM 255.5, DSP 849
#   Low-Power (21,  8, 34): LUT  95777, FF 126670, BRAM 146.0, DSP 442
# Two designs under-determine four coefficients per resource; the spare
# freedom is fixed by Fig. 13's sensitivities (s moves DSP/BRAM hardest,
# nd and nm move LUT/FF comparably per MAC).
DEFAULT_RESOURCE_MODEL = ResourceModel(
    lut=LinearResource(base=51_000, per_nd=900, per_nm=750, per_s=475),
    ff=LinearResource(base=82_500, per_nd=1_100, per_nm=950, per_s=525),
    bram=LinearResource(base=78.0, per_nd=1.6, per_nm=1.4, per_s=1.10),
    dsp=LinearResource(base=100.0, per_nd=6.0, per_nm=5.0, per_s=4.9),
)


def fit_linear_model(
    configs: list[HardwareConfig], values: list[float]
) -> LinearResource:
    """Least-squares fit of (R0, Rd, Rm, Rs) to measured samples.

    This is the offline regression the paper uses to adapt the model to
    a new FPGA platform without measuring individual blocks.
    """
    if len(configs) < 4:
        raise ConfigurationError("need at least 4 samples to fit 4 coefficients")
    if len(configs) != len(values):
        raise ConfigurationError("configs and values must have equal length")
    design = np.array([[1.0, c.nd, c.nm, c.s] for c in configs])
    target = np.asarray(values, dtype=float)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    return LinearResource(*[float(x) for x in coeffs])
