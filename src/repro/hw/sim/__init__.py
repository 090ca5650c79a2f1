"""Cycle-level discrete-event simulation of the accelerator template.

The analytical models of :mod:`repro.hw.latency` are closed forms; this
package *simulates* the same hardware at event granularity — the
Evaluate/Update rounds of Fig. 10, the feature-stationary Jacobian
pipeline with its FIFO (Sec. 4.2), and the per-feature D-type Schur
pipeline — and serves as the validation the paper obtained from Vivado
timing. Each simulator tracks when its own units fall free, so none
needs an event queue. Tests assert the analytical forms match the
simulated cycles.
"""

from repro.hw.sim.cholesky_pipe import CholeskyTimeline, simulate_cholesky
from repro.hw.sim.jacobian_pipe import JacobianPipeline, simulate_jacobian_pipeline
from repro.hw.sim.accelerator import AcceleratorSim, WindowExecution
from repro.hw.sim.trace import TraceSimulation, simulate_windows

__all__ = [
    "CholeskyTimeline",
    "simulate_cholesky",
    "JacobianPipeline",
    "simulate_jacobian_pipeline",
    "AcceleratorSim",
    "WindowExecution",
    "TraceSimulation",
    "simulate_windows",
]
