"""Design-space exploration bookkeeping (Sec. 7.3).

Quantifies the generator-efficiency claims: the ~90,000-point space, the
15-year cost of pushing every point through the FPGA synthesis/layout
flow, and the seconds our generator takes instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.hw.config import design_space_size
from repro.synth.spec import DesignSpec
from repro.synth.synthesizer import synthesize

# The paper reports ~1.5 hours per Vivado synthesis + layout run.
FPGA_FLOW_HOURS_PER_DESIGN = 1.5


@dataclass(frozen=True)
class DesignSpaceMetrics:
    """Summary numbers for the Sec. 7.3 comparison."""

    num_designs: int
    exhaustive_flow_years: float
    generator_seconds: float
    speed_ratio: float


def exhaustive_flow_years(num_designs: int | None = None) -> float:
    """Wall-clock years to push every design through the FPGA flow."""
    n = num_designs if num_designs is not None else design_space_size()
    return n * FPGA_FLOW_HOURS_PER_DESIGN / (24 * 365)


def generator_seconds(spec: DesignSpec | None = None, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for one full synthesis solve."""
    spec = spec or DesignSpec()
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        synthesize(spec)
        best = min(best, perf_counter() - started)
    return best


def design_space_metrics(spec: DesignSpec | None = None) -> DesignSpaceMetrics:
    """The full Sec. 7.3 comparison in one call."""
    n = design_space_size()
    years = exhaustive_flow_years(n)
    seconds = generator_seconds(spec)
    return DesignSpaceMetrics(
        num_designs=n,
        exhaustive_flow_years=years,
        generator_seconds=seconds,
        speed_ratio=years * 365 * 24 * 3600 / max(seconds, 1e-9),
    )
