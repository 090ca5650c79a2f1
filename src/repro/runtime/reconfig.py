"""The memoized per-Iter reconfiguration table (Equ. 18).

For each possible iteration count the run-time system needs a hardware
configuration that (a) still meets the latency budget at that Iter and
(b) fits inside the static design (componentwise smaller knobs), so it
can be reached by clock gating alone — no FPGA reprogramming. Since
there are only six Iter values, Equ. 18 is solved exhaustively offline
and the results memoized; at run time selecting a configuration is a
table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InfeasibleDesignError
from repro.hw.config import HardwareConfig
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.runtime.profiler import MAX_ITERATIONS
from repro.synth.optimizer import exhaustive_search
from repro.synth.spec import DesignSpec, Objective


@dataclass(frozen=True)
class ReconfigurationTable:
    """Iter -> (gated hardware configuration, gated power)."""

    static_config: HardwareConfig
    entries: dict[int, HardwareConfig]
    powers: dict[int, float]

    def lookup(self, iterations: int) -> HardwareConfig:
        """The configuration to clock-gate down to for this Iter."""
        capped = max(1, min(iterations, max(self.entries)))
        return self.entries[capped]

    def gated_power(self, iterations: int) -> float:
        capped = max(1, min(iterations, max(self.powers)))
        return self.powers[capped]


def build_reconfiguration_table(
    static_config: HardwareConfig, spec: DesignSpec
) -> ReconfigurationTable:
    """Solve Equ. 18 for every Iter value and memoize the results.

    min Power(nd, nm, s)
    s.t. Lat(nd, nm, s; Iter) <= L*,  nd <= nd*, nm <= nm*, s <= s*.
    """
    entries: dict[int, HardwareConfig] = {}
    powers: dict[int, float] = {}
    for iterations in range(1, MAX_ITERATIONS + 1):
        iter_spec = replace(spec, iterations=iterations, objective=Objective.POWER)
        try:
            outcome = exhaustive_search(iter_spec, upper_bound=static_config)
            config = outcome.config
        except InfeasibleDesignError:
            # Even the full static design misses the budget at this Iter
            # (can happen for Iter == max on a tight budget): fall back
            # to the static configuration, i.e. no gating.
            config = static_config
        entries[iterations] = config
        powers[iterations] = DEFAULT_POWER_MODEL.gated_power(static_config, config)
    return ReconfigurationTable(
        static_config=static_config, entries=entries, powers=powers
    )
