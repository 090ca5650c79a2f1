"""The estimator run's array-level codec.

The codec turns a :class:`~repro.slam.estimator.RunResult` into
``(arrays, meta)`` — a flat mapping of numpy arrays plus a small
JSON-safe metadata dict — and back. The cache stores both in a single
``.npz`` blob (see :mod:`repro.engine.cache`).

The round-trip contract is *bit-identity*: every float travels through
float64 arrays (never JSON), so a decoded payload feeds the experiments
the exact numbers the fresh computation would have.
"""

from __future__ import annotations

import numpy as np

from repro.data.stats import WindowStats
from repro.slam.estimator import RunResult, WindowResult
from repro.slam.nls import StageTimings


def _int_array(values) -> np.ndarray:
    return np.asarray(list(values), dtype=np.int64)


def _float_array(values) -> np.ndarray:
    return np.asarray(list(values), dtype=np.float64)


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------

def encode_run_result(run: RunResult) -> tuple[dict[str, np.ndarray], dict]:
    windows = run.windows
    frame_ids = [w.frame_ids for w in windows]
    positions = (
        np.stack(run.estimated_positions)
        if run.estimated_positions
        else np.zeros((0, 3))
    )
    true_positions = (
        np.stack(run.true_positions) if run.true_positions else np.zeros((0, 3))
    )
    arrays = {
        "window_index": _int_array(w.window_index for w in windows),
        "iterations": _int_array(w.iterations for w in windows),
        "accepted_steps": _int_array(w.accepted_steps for w in windows),
        "initial_cost": _float_array(w.initial_cost for w in windows),
        "final_cost": _float_array(w.final_cost for w in windows),
        "newest_position_error": _float_array(
            w.newest_position_error for w in windows
        ),
        "relative_error": _float_array(w.relative_error for w in windows),
        "timing_linearize": _float_array(w.timings.linearize_s for w in windows),
        "timing_assemble": _float_array(w.timings.assemble_s for w in windows),
        "timing_solve": _float_array(w.timings.solve_s for w in windows),
        "timing_update": _float_array(w.timings.update_s for w in windows),
        "timing_schur": _float_array(w.timings.schur_s for w in windows),
        "timing_chol": _float_array(w.timings.chol_s for w in windows),
        "timing_backsub": _float_array(w.timings.backsub_s for w in windows),
        "stats_num_features": _int_array(w.stats.num_features for w in windows),
        "stats_avg_observations": _float_array(
            w.stats.avg_observations for w in windows
        ),
        "stats_num_keyframes": _int_array(w.stats.num_keyframes for w in windows),
        "stats_num_marginalized": _int_array(
            w.stats.num_marginalized for w in windows
        ),
        "stats_state_size": _int_array(w.stats.state_size for w in windows),
        "stats_num_observations": _int_array(
            w.stats.num_observations for w in windows
        ),
        "frame_ids_flat": _int_array(
            fid for window_ids in frame_ids for fid in window_ids
        ),
        "frame_ids_len": _int_array(len(window_ids) for window_ids in frame_ids),
        "estimated_positions": positions,
        "true_positions": true_positions,
        "feature_counts": _int_array(run.feature_counts),
        "iterations_used": _int_array(run.iterations_used),
    }
    return arrays, {}


def decode_run_result(arrays, meta) -> RunResult:
    del meta
    run = RunResult()
    offsets = np.cumsum(np.concatenate([[0], arrays["frame_ids_len"]]))
    flat = arrays["frame_ids_flat"]
    for i in range(len(arrays["window_index"])):
        stats = WindowStats(
            num_features=int(arrays["stats_num_features"][i]),
            avg_observations=float(arrays["stats_avg_observations"][i]),
            num_keyframes=int(arrays["stats_num_keyframes"][i]),
            num_marginalized=int(arrays["stats_num_marginalized"][i]),
            state_size=int(arrays["stats_state_size"][i]),
            num_observations=int(arrays["stats_num_observations"][i]),
        )
        run.windows.append(
            WindowResult(
                window_index=int(arrays["window_index"][i]),
                frame_ids=[int(f) for f in flat[offsets[i]:offsets[i + 1]]],
                stats=stats,
                iterations=int(arrays["iterations"][i]),
                accepted_steps=int(arrays["accepted_steps"][i]),
                initial_cost=float(arrays["initial_cost"][i]),
                final_cost=float(arrays["final_cost"][i]),
                newest_position_error=float(arrays["newest_position_error"][i]),
                relative_error=float(arrays["relative_error"][i]),
                timings=StageTimings(
                    linearize_s=float(arrays["timing_linearize"][i]),
                    assemble_s=float(arrays["timing_assemble"][i]),
                    solve_s=float(arrays["timing_solve"][i]),
                    update_s=float(arrays["timing_update"][i]),
                    # Pre-split artifacts decode with zero sub-phase
                    # timings rather than failing (stage version gates
                    # reuse anyway).
                    schur_s=float(arrays["timing_schur"][i])
                    if "timing_schur" in arrays else 0.0,
                    chol_s=float(arrays["timing_chol"][i])
                    if "timing_chol" in arrays else 0.0,
                    backsub_s=float(arrays["timing_backsub"][i])
                    if "timing_backsub" in arrays else 0.0,
                ),
            )
        )
    run.estimated_positions = [row.copy() for row in arrays["estimated_positions"]]
    run.true_positions = [row.copy() for row in arrays["true_positions"]]
    run.feature_counts = [int(v) for v in arrays["feature_counts"]]
    run.iterations_used = [int(v) for v in arrays["iterations_used"]]
    return run
