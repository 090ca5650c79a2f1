"""The hardware synthesizer (Sec. 5).

Given a latency constraint, a resource budget (an FPGA platform), and a
workload, the synthesizer solves the constrained optimization of Equ. 11
(minimize power) or Equ. 12 (minimize latency) over the (nd, nm, s)
design space, then emits the concrete accelerator (the RTL of
:mod:`repro.hw.rtl`). :func:`synthesize` is the one entry point for
both objectives; the spec's ``objective`` picks the equation. The
solver is exact: it evaluates the whole 90,000-point space as
vectorized grids in milliseconds (:func:`exhaustive_search`), strictly
stronger than the paper's near-optimal mixed-integer convex solve.
:func:`relaxation_search` (the paper's relax-and-round approach,
near-optimal) is the comparison solver. :data:`NAMED_DESIGN_SPECS`
holds the specs of Tbl. 2's named designs.
"""

from repro.synth.spec import NAMED_DESIGN_SPECS, DesignSpec, Objective
from repro.synth.relaxation import relaxation_search
from repro.synth.optimizer import exhaustive_search
from repro.synth.synthesizer import (
    SynthesisResult,
    synthesize,
    high_perf_design,
    low_power_design,
    biggest_fit_design,
)
from repro.synth.pareto import ParetoPoint, pareto_frontier, perturb_and_validate
from repro.synth.dse import (
    design_space_metrics,
    exhaustive_flow_years,
    generator_seconds,
)

__all__ = [
    "DesignSpec",
    "NAMED_DESIGN_SPECS",
    "Objective",
    "exhaustive_search",
    "relaxation_search",
    "SynthesisResult",
    "synthesize",
    "high_perf_design",
    "low_power_design",
    "biggest_fit_design",
    "ParetoPoint",
    "pareto_frontier",
    "perturb_and_validate",
    "design_space_metrics",
    "exhaustive_flow_years",
    "generator_seconds",
]
