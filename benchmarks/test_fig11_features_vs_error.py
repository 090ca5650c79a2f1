"""Fig. 11: fewer feature points -> higher relative error (KITTI)."""

import numpy as np

from conftest import report, run_once
from repro.experiments.fig11_12 import run_fig11


def test_fig11_features_vs_error(benchmark):
    result = run_once(benchmark, run_fig11)
    report(result)
    counts = np.array(result.column("features"), dtype=float)
    errors = np.array(result.column("relative_error_m"))
    assert len(result.rows) > 30
    # The paper's Fig. 11 relationship: error is higher where features
    # are scarce. Compare the sparse-third vs the rich-third windows
    # (a stable sort: many windows share a feature count at the cuts).
    order = np.argsort(counts, kind="stable")
    sparse = errors[order[: len(order) // 3]]
    rich = errors[order[-len(order) // 3 :]]
    assert sparse.mean() > rich.mean()
    # ... and the two series are negatively correlated overall.
    assert np.corrcoef(counts, errors)[0, 1] < 0.0
    benchmark.extra_info["corr_note"] = result.notes
