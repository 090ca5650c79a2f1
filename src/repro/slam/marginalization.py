"""Marginalization: fold departing variables into a prior (Sec. 3.1/3.2.3).

When the window slides, the oldest keyframe's 15-DoF state and every
feature *anchored* at it are marginalized. Their factors form a
sub-problem whose arrow system comes from the same
:meth:`~repro.slam.problem.WindowProblem.build_linear_system` an LM step
uses. Its joint information is blocked as ``[[M, Lambda^T], [Lambda, A]]``
with the marginalized variables ordered landmarks-first, which makes the
leading sub-block of ``M`` diagonal — the cost-optimal blocking of
Sec. 3.2.3 that lets the hardware reuse the D-type Schur unit inside the
M-type Schur computation. The Schur complement ``Hp = A - Lambda M^-1
Lambda^T`` and ``rp = br - Lambda M^-1 bm`` become the next window's
:class:`~repro.slam.residuals.PriorFactor`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from repro.geometry.navstate import STATE_DIM
from repro.linalg.schur import m_type_schur
from repro.slam.batch import huber_scales_batch
from repro.slam.problem import WindowProblem
from repro.slam.residuals import PriorFactor

# Visual factors whose Huber IRLS scale falls below this are gross
# outliers and stay out of the prior entirely: the prior is never
# re-evaluated, so a baked-in outlier would poison every later window.
_OUTLIER_SCALE = 0.2


@dataclass
class MarginalizationResult:
    """The new prior plus bookkeeping for the estimator."""

    prior: PriorFactor | None
    marginalized_features: list[int]


def marginalize_window(problem: WindowProblem, marg_frame_id: int) -> MarginalizationResult:
    """Marginalize one keyframe (and its anchored features) out of ``problem``.

    Args:
        problem: the optimized window problem (linearized at its current
            estimates — we use the same estimates as linearization point).
        marg_frame_id: keyframe to remove; must be in ``problem.states``.

    Returns:
        A :class:`MarginalizationResult` whose ``prior`` constrains the
        remaining keyframes that shared factors with the departing
        variables (None when nothing couples to them).
    """
    if marg_frame_id not in problem.states:
        raise ValueError(f"keyframe {marg_frame_id} is not in the window")

    visual = [f for f in problem.visual_factors if f.anchor == marg_frame_id]
    marg_features = sorted({f.feature_id for f in visual})
    imu = [f for f in problem.imu_factors if marg_frame_id in (f.frame_i, f.frame_j)]
    priors = [p for p in problem.priors if marg_frame_id in p.frame_ids]

    frames = {marg_frame_id}
    frames.update(f.target for f in visual)
    for f in imu:
        frames.update((f.frame_i, f.frame_j))
    for p in priors:
        frames.update(p.frame_ids)
    if len(frames) == 1:
        # Nothing couples to the departing variables; their information
        # simply leaves the problem.
        return MarginalizationResult(None, marg_features)

    sub = WindowProblem(
        camera=problem.camera,
        states={fid: problem.states[fid] for fid in frames},
        inv_depths={fid: problem.inv_depths[fid] for fid in marg_features},
        visual_factors=visual,
        imu_factors=imu,
        priors=priors,
        huber_delta=problem.huber_delta,
        backend=problem.backend,
    )
    if problem.huber_delta is not None:
        # Rows behind the camera carry no residual; the build culls them
        # whichever way the filter goes.
        _, residuals = sub.visual_residuals()
        inliers = huber_scales_batch(residuals, problem.huber_delta) >= _OUTLIER_SCALE
        sub = replace(sub, visual_factors=list(compress(visual, inliers)))

    # Dense layout [landmarks | frames]; M is the landmarks plus the
    # departing keyframe, A the kept keyframes.
    system = sub.build_linear_system()
    full, rhs = system.dense()
    num_features = system.num_features
    k = num_features + STATE_DIM * system.frame_ids.index(marg_frame_id)
    marg = np.r_[0:num_features, k : k + STATE_DIM]
    keep = np.r_[num_features:k, k + STATE_DIM : full.shape[0]]
    hp, rp = m_type_schur(
        full[np.ix_(keep, keep)],
        full[np.ix_(keep, marg)],
        full[np.ix_(marg, marg)],
        b_m=rhs[marg],
        b_r=rhs[keep],
        m_diagonal_split=num_features,
    )

    # Guard against negative eigenvalues from floating-point cancellation
    # (they would make later windows indefinite).
    eigvals = np.linalg.eigvalsh(hp)
    if eigvals[0] < 0.0:
        hp = hp + (1e-9 - eigvals[0]) * np.eye(hp.shape[0])

    keep_frames = [fid for fid in system.frame_ids if fid != marg_frame_id]
    prior = PriorFactor(
        frame_ids=keep_frames,
        hp=hp,
        rp=rp,
        lin_states=[problem.states[fid] for fid in keep_frames],
    )
    return MarginalizationResult(prior, marg_features)
