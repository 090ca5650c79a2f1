"""Design specifications: what the user hands the synthesizer.

A :class:`DesignSpec` fixes the constraints of Equ. 11/12 — the latency
target, the FPGA resource budget, the workload the latency model is
evaluated on, and the optimization objective. :data:`NAMED_DESIGN_SPECS`
holds the specs of the two named designs of Tbl. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.hw.fpga import FpgaPlatform, ZC706
from repro.hw.latency import REFERENCE_WORKLOAD


class Objective(Enum):
    """What the synthesizer minimizes."""

    POWER = "power"  # Equ. 11: min power s.t. latency + resources
    LATENCY = "latency"  # Equ. 12: min latency s.t. resources


@dataclass(frozen=True)
class DesignSpec:
    """Constraints of one synthesis run.

    Attributes:
        latency_budget_s: L* — per-window latency bound [s]. Ignored
            when the objective is LATENCY.
        platform: the FPGA whose capacities form R*.
        resource_budget: fraction of each capacity usable (<= 1.0);
            below 1.0 leaves headroom for routing congestion.
        workload: window statistics the latency model is evaluated on.
        iterations: the NLS iteration count Iter the static design must
            accommodate (the paper caps it at 6).
        objective: POWER (Equ. 11) or LATENCY (Equ. 12).
    """

    latency_budget_s: float = 0.020
    platform: FpgaPlatform = ZC706
    resource_budget: float = 1.0
    workload: WindowStats = REFERENCE_WORKLOAD
    iterations: int = 6
    objective: Objective = Objective.POWER

    def __post_init__(self) -> None:
        if self.objective is Objective.POWER and self.latency_budget_s <= 0:
            raise ConfigurationError("latency_budget_s must be positive")
        if not 0 < self.resource_budget <= 1.0:
            raise ConfigurationError("resource_budget must be in (0, 1]")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")


#: Tbl. 2's named designs: minimum power on the ZC706 under a 20 ms
#: (High-Perf) and a 33 ms (Low-Power) per-window budget.
NAMED_DESIGN_SPECS: dict[str, DesignSpec] = {
    "High-Perf": DesignSpec(latency_budget_s=0.020),
    "Low-Power": DesignSpec(latency_budget_s=0.033),
}
