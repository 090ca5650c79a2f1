"""The run-time system (Sec. 6): dynamic accelerator re-optimization.

The static design is provisioned for the worst case (Iter capped at 6).
At run time, the sensing front-end's feature count is mapped to the
iteration count actually needed (an offline-profiled lookup table), a
2-bit saturating counter smooths the decision, and a memoized table of
per-Iter hardware configurations (each solved offline via Equ. 18)
selects how much of the fabric to clock-gate. The host passes exactly
three numbers to the FPGA per window, so the mechanism has effectively
zero run-time overhead.
"""

from repro.runtime.profiler import IterationTable, build_iteration_table, profile_accuracy_vs_iterations
from repro.runtime.counter import TwoBitSaturatingCounter
from repro.runtime.reconfig import ReconfigurationTable, build_reconfiguration_table
from repro.runtime.controller import (
    ReplayResult,
    RuntimeController,
    WindowDecision,
    replay_windows,
)

__all__ = [
    "IterationTable",
    "build_iteration_table",
    "profile_accuracy_vs_iterations",
    "TwoBitSaturatingCounter",
    "ReconfigurationTable",
    "build_reconfiguration_table",
    "ReplayResult",
    "RuntimeController",
    "WindowDecision",
    "replay_windows",
]
