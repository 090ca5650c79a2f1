"""The oracle x scenario x design-point conformance matrix.

The SLAMBench lesson (and the reconfigurable-accelerator follow-up's):
a claim holds only where it was *measured*, so every degenerate regime
must be exercised against every oracle at more than one hardware design
point, and every cell must be reported. This module extends the
oracle x workload matrix of :mod:`repro.testing.conformance` along the
scenario and configuration axes and emits the per-cell
``SCENARIOS.json`` artifact the CI ``scenario-matrix`` job gates on
(validated by ``python -m repro.obs validate``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.metrics import LatencyHistogram, metrics_layout
from repro.obs.validate import SCENARIO_SCHEMA_PREFIX
from repro.scenarios import available_scenarios, resolve_scenario
from repro.testing.conformance import run_conformance
from repro.testing.oracles import DESIGN_POINTS, ConformanceWorkload, OracleReport

SCENARIO_MATRIX_SCHEMA = SCENARIO_SCHEMA_PREFIX + "v1"

# The default scenario axis: all four degenerate regimes plus the
# seeded mixture. "nominal" stays the classic matrix's job.
DEFAULT_MATRIX_SCENARIOS: tuple[str, ...] = (
    "tunnel",
    "loop_closure",
    "aggressive",
    "highway",
    "mixed",
)


def matrix_workloads(
    scenarios: tuple[str, ...] = DEFAULT_MATRIX_SCENARIOS,
    quick: bool = False,
) -> tuple[ConformanceWorkload, ...]:
    """One workload per scenario x design point.

    Scales sit between the classic matrix's "tiny" and "small" shapes
    (``--quick`` shrinks them further for the CI gate); seeds are
    distinct per cell so the design points never see identical draws.
    """
    num_keyframes, num_features, num_windows = (
        (4, 12, 8) if quick else (5, 24, 12)
    )
    workloads = []
    for s_index, scenario in enumerate(scenarios):
        resolve_scenario(scenario)  # fail fast on typos, with did-you-mean
        for d_index, design in enumerate(sorted(DESIGN_POINTS)):
            workloads.append(
                ConformanceWorkload(
                    name=scenario,
                    seed=11 + 17 * s_index + 3 * d_index,
                    num_keyframes=num_keyframes,
                    num_features=num_features,
                    num_windows=num_windows,
                    scenario=scenario,
                    design=design,
                )
            )
    return tuple(workloads)


@dataclass
class ScenarioMatrixRun:
    """All cells of one scenario-matrix run, plus the aggregate verdict."""

    cells: list[tuple[ConformanceWorkload, OracleReport]] = field(
        default_factory=list
    )
    perturbed: str | None = None

    @property
    def passed(self) -> bool:
        return all(report.passed for _, report in self.cells)

    @property
    def num_mismatches(self) -> int:
        return sum(len(report.mismatches) for _, report in self.cells)

    @property
    def total_checks(self) -> int:
        return sum(report.checks for _, report in self.cells)

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_MATRIX_SCHEMA,
            "passed": self.passed,
            "checks": self.total_checks,
            "mismatches": self.num_mismatches,
            "perturbed": self.perturbed,
            "oracles": sorted({report.oracle for _, report in self.cells}),
            "scenarios": sorted({w.scenario for w, _ in self.cells}),
            "design_points": sorted({w.design for w, _ in self.cells}),
            "cells": [
                {
                    "oracle": report.oracle,
                    "scenario": workload.scenario,
                    "design_point": workload.design,
                    "workload": workload.label(),
                    "passed": report.passed,
                    "checks": report.checks,
                    "mismatches": [m.to_dict() for m in report.mismatches],
                    "seconds": report.seconds,
                    "info": report.info,
                }
                for workload, report in self.cells
            ],
            "obs": self._obs(),
        }

    def _obs(self) -> dict:
        """The run's aggregate counters/gauges/histograms for the
        ``obs`` section of ``SCENARIOS.json``."""
        seconds = LatencyHistogram()
        for _, report in self.cells:
            seconds.record(report.seconds)
        return metrics_layout(
            counters={
                "scenario_matrix_cells_total": len(self.cells),
                "scenario_matrix_cells_failed_total": sum(
                    0 if report.passed else 1 for _, report in self.cells
                ),
                "scenario_matrix_checks_total": self.total_checks,
                "scenario_matrix_mismatches_total": self.num_mismatches,
            },
            gauges={"scenario_matrix_passed": 1.0 if self.passed else 0.0},
            histograms={"scenario_matrix_cell_seconds": seconds.as_dict()},
        )

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary_lines(self) -> list[str]:
        lines = []
        for workload, report in self.cells:
            verdict = (
                "ok" if report.passed else f"FAIL ({len(report.mismatches)} mismatches)"
            )
            lines.append(
                f"  {report.oracle:<15} {workload.scenario:<13} "
                f"{workload.design:<9} {report.checks:>3} checks  "
                f"{report.seconds:6.2f}s  {verdict}"
            )
            for mismatch in report.mismatches:
                lines.append(
                    f"      mismatch {mismatch.metric}: expected "
                    f"{mismatch.expected:.6g}, got {mismatch.actual:.6g} "
                    f"(tolerance {mismatch.tolerance:.3g}) {mismatch.detail}"
                )
        verdict = "PASS" if self.passed else "FAIL"
        scenarios = sorted({w.scenario for w, _ in self.cells})
        designs = sorted({w.design for w, _ in self.cells})
        lines.append(
            f"scenario matrix: {verdict} — {self.total_checks} checks, "
            f"{self.num_mismatches} mismatches across {len(self.cells)} cells "
            f"({len(scenarios)} scenarios x {len(designs)} design points x "
            f"{len({r.oracle for _, r in self.cells})} oracles)"
        )
        return lines


def run_scenario_matrix(
    scenarios: tuple[str, ...] | None = None,
    oracle_names: tuple[str, ...] | None = None,
    quick: bool = False,
    perturb: str | None = None,
    perturbation: float = 0.05,
) -> ScenarioMatrixRun:
    """Run every oracle across every scenario x design-point cell.

    :func:`repro.testing.conformance.run_conformance` (same oracle and
    ``--perturb`` validation) over the :func:`matrix_workloads` grid,
    each report paired with its workload.
    """
    chosen = tuple(scenarios) if scenarios else DEFAULT_MATRIX_SCENARIOS
    unknown_scenarios = [s for s in chosen if s not in available_scenarios()]
    if unknown_scenarios:
        raise ConfigurationError(
            f"unknown scenario(s) {unknown_scenarios}; choose from "
            f"{available_scenarios()}"
        )
    workloads = matrix_workloads(chosen, quick=quick)
    run = run_conformance(
        workloads,
        oracle_names=oracle_names,
        perturb=perturb,
        perturbation=perturbation,
    )
    # run_conformance walks its grid oracle first, then workload.
    return ScenarioMatrixRun(
        cells=list(zip(itertools.cycle(workloads), run.reports)),
        perturbed=perturb,
    )
