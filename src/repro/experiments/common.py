"""Shared experiment infrastructure: result containers, engine-backed
run access, and table formatting.

All shared artifacts (sequences, estimator runs, synthesis solves) flow
through the :mod:`repro.engine` execution engine, so repeated experiment
and benchmark invocations hit the in-process memo, and estimator runs
also the on-disk artifact cache, instead of re-running the estimator.
The runtime controller's replay is recomputed from the cached run: it
is milliseconds of table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.sequences import Sequence
from repro.data.stats import WindowStats
from repro.engine import (
    ESTIMATOR,
    SEQUENCE,
    EstimatorRequest,
    PolicySpec,
    design_reconfiguration,
    get_engine,
    sequence_config,
)
from repro.runtime.controller import ReplayResult, replay_windows
from repro.runtime.profiler import IterationTable
from repro.slam.estimator import EstimatorConfig, RunResult
from repro.slam.nls import LMConfig

# Trace lengths used by the experiments: long enough for stable
# statistics, short enough that the full harness runs in minutes.
EUROC_DURATION_S = 14.0
KITTI_DURATION_S = 24.0
EUROC_TRACES = ("MH_01", "MH_03")
KITTI_TRACES = ("00", "05")


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        table = format_table(self.columns, self.rows)
        parts = [f"== {self.experiment_id}: {self.title} ==", table]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


def format_table(columns: list[str], rows: list[list]) -> str:
    """Plain-text aligned table."""

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)


def estimator_request(
    kind: str,
    name: str,
    duration: float,
    window_size: int = 8,
    iteration_cap: int = 6,
    policy: PolicySpec | None = None,
) -> EstimatorRequest:
    """The engine request for one of the harness's standard runs."""
    return EstimatorRequest(
        sequence=sequence_config(kind, name, duration),
        estimator=EstimatorConfig(
            window_size=window_size,
            lm=LMConfig(max_iterations=iteration_cap),
        ),
        policy=policy,
    )


def get_sequence(kind: str, name: str, duration: float) -> Sequence:
    """Deterministic catalog sequence, via the engine's memo."""
    return get_engine().run(SEQUENCE, sequence_config(kind, name, duration))


def get_run(
    kind: str,
    name: str,
    duration: float,
    window_size: int = 8,
    iteration_cap: int = 6,
) -> RunResult:
    """Static-cap estimator run, via the engine cache (these dominate
    the harness's wall clock)."""
    return get_engine().run(
        ESTIMATOR, estimator_request(kind, name, duration, window_size, iteration_cap)
    )


def get_dynamic_run(
    kind: str, name: str, duration: float, design_name: str
) -> tuple[RunResult, ReplayResult]:
    """Estimator run with the run-time iteration policy installed, plus
    the controller replay for the energy bookkeeping (identical
    decisions: same feature counts, same table)."""
    engine = get_engine()
    request = estimator_request(
        kind, name, duration, policy=PolicySpec(design=design_name)
    )
    run = engine.run(ESTIMATOR, request)
    replay = replay_windows(
        run_window_stats(run),
        IterationTable(),
        design_reconfiguration(design_name, engine),
    )
    return run, replay


def run_window_stats(run: RunResult) -> list[WindowStats]:
    """Per-window workload statistics of a cached run."""
    return [w.stats for w in run.windows]
