"""End-to-end synthesis: spec in, concrete accelerator out.

``synthesize`` solves the spec's constrained optimization, Equ. 11 or
Equ. 12 as its objective says, packages the chosen (nd, nm, s) with its
predicted latency/power/utilization, and can emit the synthesizable
Verilog for the design. ``high_perf_design`` and ``low_power_design``
synthesize the two named designs of Tbl. 2
(:data:`~repro.synth.spec.NAMED_DESIGN_SPECS`); ``biggest_fit_design``
is the Sec. 7.7 flow that packs the largest design a given board can
hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.config import HardwareConfig
from repro.hw.fpga import FpgaPlatform
from repro.hw.resources import DEFAULT_RESOURCE_MODEL
from repro.synth.optimizer import exhaustive_search
from repro.synth.spec import NAMED_DESIGN_SPECS, DesignSpec, Objective


@dataclass(frozen=True)
class SynthesisResult:
    """A concrete accelerator design and its predicted characteristics."""

    config: HardwareConfig
    spec: DesignSpec
    latency_s: float
    power_w: float
    utilization: dict[str, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    evaluated_points: int = 0

    @property
    def binding_resource(self) -> str:
        return max(self.utilization, key=self.utilization.get)

    def emit_verilog(self) -> dict[str, str]:
        """Generate the synthesizable Verilog for this design."""
        from repro.hw.rtl import emit_design

        return emit_design(self.config, self.spec.platform)


def synthesize(spec: DesignSpec) -> SynthesisResult:
    """Solve the spec's optimization and return the chosen design."""
    outcome = exhaustive_search(spec)
    return SynthesisResult(
        config=outcome.config,
        spec=spec,
        latency_s=outcome.latency_s,
        power_w=outcome.power_w,
        utilization=DEFAULT_RESOURCE_MODEL.utilization(outcome.config, spec.platform),
        solve_seconds=outcome.solve_seconds,
        evaluated_points=outcome.evaluated_points,
    )


def high_perf_design() -> SynthesisResult:
    """The Tbl. 2 High-Perf design: min power under a 20 ms budget."""
    return synthesize(NAMED_DESIGN_SPECS["High-Perf"])


def low_power_design() -> SynthesisResult:
    """The Tbl. 2 Low-Power design: min power under a 33 ms budget."""
    return synthesize(NAMED_DESIGN_SPECS["Low-Power"])


def biggest_fit_design(platform: FpgaPlatform) -> SynthesisResult:
    """Sec. 7.7: the fastest design that fits the given board (Equ. 12)."""
    return synthesize(DesignSpec(platform=platform, objective=Objective.LATENCY))
