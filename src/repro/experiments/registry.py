"""The experiment registry and CLI entry point."""

from __future__ import annotations

from collections.abc import Callable

from repro.experiments.common import ExperimentResult
from repro.experiments.fig11_12 import run_fig11, run_fig12
from repro.experiments.fig13_14 import run_fig13a, run_fig13b, run_fig13c, run_fig14
from repro.experiments.fig15_16 import run_fig15, run_fig16, run_tbl2
from repro.experiments.sec3x import run_sec32, run_sec33
from repro.experiments.extensions import (
    run_ext_accuracy_table,
    run_ext_learned_policy,
    run_ext_realtime_margin,
    run_ext_robustness,
    run_ext_window_size,
    run_ext_wordlength,
)
from repro.experiments.sec76 import run_sec76, run_sec76_combined
from repro.experiments.sec7x import (
    run_sec73,
    run_sec75,
    run_sec77_apps,
    run_sec77_fpgas,
)
from repro.utils.validation import lookup

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13a": run_fig13a,
    "fig13b": run_fig13b,
    "fig13c": run_fig13c,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "tbl2": run_tbl2,
    "sec32": run_sec32,
    "sec33": run_sec33,
    "sec73": run_sec73,
    "sec75": run_sec75,
    "sec76": run_sec76,
    "sec76b": run_sec76_combined,
    "sec77a": run_sec77_fpgas,
    "sec77b": run_sec77_apps,
    "ext-learned-policy": run_ext_learned_policy,
    "ext-robustness": run_ext_robustness,
    "ext-wordlength": run_ext_wordlength,
    "ext-realtime": run_ext_realtime_margin,
    "ext-accuracy": run_ext_accuracy_table,
    "ext-window-size": run_ext_window_size,
}


def available_experiments() -> list[str]:
    """All registered experiment ids, sorted."""
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one registered experiment by id."""
    return lookup("experiment", experiment_id, EXPERIMENTS)()


def run_experiments(experiment_ids: list[str]) -> list[ExperimentResult]:
    """Run several experiments, in the requested order.

    Unknown ids are rejected up front, before any work is spent.
    """
    for experiment_id in experiment_ids:
        lookup("experiment", experiment_id, EXPERIMENTS)
    return [run_experiment(experiment_id) for experiment_id in experiment_ids]
