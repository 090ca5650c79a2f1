"""The conformance matrix: every oracle across every workload scale.

The cells run one after another, oracle first, then workload, and are
deterministic. The aggregate is serializable to the
``CONFORMANCE.json`` artifact the CI gate validates
(``python -m repro.obs validate``) and publishes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.testing.oracles import ORACLES, ConformanceWorkload, OracleReport

CONFORMANCE_SCHEMA = "repro.conformance/v1"

# The standard scales. "tiny" exercises the degenerate-adjacent small
# regime, "small" the typical unit-test size, "fig11" approaches the
# paper's Fig. 11 window shape (hundreds of features, a full window of
# keyframes).
DEFAULT_WORKLOADS: tuple[ConformanceWorkload, ...] = (
    ConformanceWorkload("tiny", seed=7, num_keyframes=3, num_features=6, num_windows=6),
    ConformanceWorkload("small", seed=21, num_keyframes=5, num_features=24, num_windows=12),
    ConformanceWorkload("fig11", seed=42, num_keyframes=10, num_features=120, num_windows=24),
)

# The CI --quick matrix trades the fig11 scale for a second small-shape
# seed so the gate stays fast while still covering three scales.
QUICK_WORKLOADS: tuple[ConformanceWorkload, ...] = (
    ConformanceWorkload("tiny", seed=7, num_keyframes=3, num_features=6, num_windows=6),
    ConformanceWorkload("small", seed=21, num_keyframes=5, num_features=24, num_windows=12),
    ConformanceWorkload("medium", seed=33, num_keyframes=7, num_features=48, num_windows=12),
)


@dataclass
class ConformanceRun:
    """All reports of one matrix run, plus the aggregate verdict."""

    reports: list[OracleReport] = field(default_factory=list)
    perturbed: str | None = None

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports)

    @property
    def num_mismatches(self) -> int:
        return sum(len(report.mismatches) for report in self.reports)

    @property
    def total_checks(self) -> int:
        return sum(report.checks for report in self.reports)

    def to_dict(self) -> dict:
        return {
            "schema": CONFORMANCE_SCHEMA,
            "passed": self.passed,
            "checks": self.total_checks,
            "mismatches": self.num_mismatches,
            "perturbed": self.perturbed,
            "oracles": sorted({report.oracle for report in self.reports}),
            "workloads": sorted({report.workload for report in self.reports}),
            "reports": [report.to_dict() for report in self.reports],
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary_lines(self) -> list[str]:
        lines = []
        for report in self.reports:
            verdict = "ok" if report.passed else f"FAIL ({len(report.mismatches)} mismatches)"
            lines.append(
                f"  {report.oracle:<11} {report.workload:<55} "
                f"{report.checks:>3} checks  {report.seconds:6.2f}s  {verdict}"
            )
            for mismatch in report.mismatches:
                lines.append(
                    f"      mismatch {mismatch.metric}: expected {mismatch.expected:.6g}, "
                    f"got {mismatch.actual:.6g} (tolerance {mismatch.tolerance:.3g}) "
                    f"{mismatch.detail}"
                )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"conformance: {verdict} — {self.total_checks} checks, "
            f"{self.num_mismatches} mismatches across {len(self.reports)} oracle runs"
        )
        return lines


def run_conformance(
    workloads: tuple[ConformanceWorkload, ...] = DEFAULT_WORKLOADS,
    oracle_names: tuple[str, ...] | None = None,
    perturb: str | None = None,
    perturbation: float = 0.05,
) -> ConformanceRun:
    """Run the oracle x workload matrix and collect every report.

    Args:
        workloads: the scales to cover.
        oracle_names: subset of :data:`repro.testing.oracles.ORACLES`
            (default: all four).
        perturb: name of one oracle (or ``"all"``) whose inputs are
            deliberately skewed by ``perturbation`` — the matrix must
            then FAIL, which is how the oracles prove they detect
            disagreement.
    """
    names = tuple(oracle_names) if oracle_names else tuple(ORACLES)
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        raise ConfigurationError(
            f"unknown oracle(s) {unknown}; choose from {sorted(ORACLES)}"
        )
    if perturb is not None and perturb != "all" and perturb not in ORACLES:
        raise ConfigurationError(
            f"unknown --perturb target {perturb!r}; choose from "
            f"{sorted(ORACLES) + ['all']}"
        )
    reports = [
        ORACLES[name](
            workload, perturbation=perturbation if perturb in (name, "all") else 0.0
        )
        for name in names
        for workload in workloads
    ]
    return ConformanceRun(reports=reports, perturbed=perturb)
