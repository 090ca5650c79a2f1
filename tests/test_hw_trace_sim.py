"""Tests for trace-driven co-simulation and the relaxation solver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data import make_euroc_sequence
from repro.hw import HardwareConfig
from repro.hw.sim.trace import simulate_windows
from repro.slam import EstimatorConfig, SlidingWindowEstimator
from repro.synth import DesignSpec, exhaustive_search
from repro.synth.relaxation import relaxation_search


@pytest.fixture(scope="module")
def short_run():
    sequence = make_euroc_sequence("MH_01", duration=5.0)
    return SlidingWindowEstimator(EstimatorConfig(window_size=6)).run(sequence)


@pytest.fixture(scope="module")
def workloads(short_run):
    """The run's windows as co-simulation input: the stats and the
    iteration count the estimator actually spent."""
    return [(w.stats, w.iterations) for w in short_run.windows]


class TestTraceSimulation:
    def test_one_sample_per_window(self, short_run, workloads):
        trace = simulate_windows(workloads, HardwareConfig(20, 10, 30))
        assert len(trace.seconds) == short_run.num_windows
        assert trace.total_seconds > 0
        assert trace.total_energy_j > 0

    def test_simulation_tracks_analytical_model(self, workloads):
        trace = simulate_windows(workloads, HardwareConfig(20, 10, 30))
        assert trace.model_agreement() < 0.35

    def test_bigger_design_faster_on_trace(self, workloads):
        small = simulate_windows(workloads, HardwareConfig(2, 2, 2))
        big = simulate_windows(workloads, HardwareConfig(30, 25, 60))
        assert big.total_seconds < small.total_seconds

    def test_worst_case_bounded_by_total(self, workloads):
        trace = simulate_windows(workloads, HardwareConfig(16, 8, 24))
        assert trace.worst_case_seconds <= trace.total_seconds

    def test_deterministic_given_seed(self, workloads):
        a = simulate_windows(workloads, HardwareConfig(16, 8, 24), seed=3)
        b = simulate_windows(workloads, HardwareConfig(16, 8, 24), seed=3)
        assert a.simulated_cycles == b.simulated_cycles

    def test_model_agreement_empty_trace(self):
        from repro.hw.sim.trace import TraceSimulation

        assert TraceSimulation().model_agreement() == 0.0

    def test_model_agreement_skips_zero_model_windows(self):
        from repro.hw.sim.trace import TraceSimulation

        trace = TraceSimulation(
            simulated_cycles=[110.0, 50.0],
            analytical_cycles=[100.0, 0.0],
        )
        # The zero-model window must not divide-by-zero the mean.
        assert trace.model_agreement() == pytest.approx(0.1)
        all_zero = TraceSimulation(
            simulated_cycles=[50.0], analytical_cycles=[0.0]
        )
        assert all_zero.model_agreement() == 0.0


class TestRelaxationSolver:
    @pytest.mark.parametrize("budget_ms", [20.0, 33.0, 60.0])
    def test_near_optimal(self, budget_ms):
        """The paper's YALMIP solve is 'near-optimal'; our relaxation
        must stay within a few percent of the exact optimum."""
        spec = DesignSpec(latency_budget_s=budget_ms / 1e3)
        exact = exhaustive_search(spec)
        relaxed = relaxation_search(spec)
        assert relaxed.latency_s <= spec.latency_budget_s + 1e-9
        gap = (relaxed.power_w - exact.power_w) / exact.power_w
        assert gap < 0.08

    def test_solution_is_feasible(self):
        from repro.hw import DEFAULT_RESOURCE_MODEL

        spec = DesignSpec(latency_budget_s=0.025)
        outcome = relaxation_search(spec)
        assert DEFAULT_RESOURCE_MODEL.fits(outcome.config, spec.platform)

    def test_fast(self):
        spec = DesignSpec(latency_budget_s=0.030)
        outcome = relaxation_search(spec)
        assert outcome.solve_seconds < 3.0

    def test_scipy_optimize_loads_only_with_the_solver(self):
        """Serving, the estimator and the engine leave scipy.optimize (and
        the scipy.sparse/.spatial/.special it brings) out of every process;
        the relaxation solver loads it on first use. Solving never imports
        scipy.linalg: the plan loads only its LAPACK binding."""
        code = (
            "import sys\n"
            "import repro.serve, repro.slam.estimator, repro.engine\n"
            "from repro.linalg.plan import SolverPlan\n"
            "from repro.synth import DesignSpec, relaxation_search\n"
            "from repro.testing.workloads import make_random_window\n"
            "system = make_random_window(0).build_linear_system()\n"
            "system.solve(damping=1e-4, plan=SolverPlan(\n"
            "    len(system.u_diag), len(system.b_y)))\n"
            "print('scipy.linalg' in sys.modules)\n"
            "print('scipy.optimize' in sys.modules)\n"
            "relaxation_search(DesignSpec(latency_budget_s=0.030))\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["False", "False", "True"]
