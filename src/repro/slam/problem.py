"""Assembly of the windowed MAP problem into the structured linear system.

The normal equations of one Gauss-Newton/LM iteration have the arrow
structure the paper's M-DFG exploits (Sec. 3.2.2):

    [[ U, W^T ],   [ d_lambda ]   =  [ b_x ]
     [ W, V   ]]   [ d_state  ]      [ b_y ]

with ``U`` *diagonal* (one inverse-depth scalar per feature point),
``W`` the feature-to-keyframe coupling, and ``V`` the dense keyframe
block of size ``15 b``. :class:`WindowProblem` owns the factors and the
current estimates; :meth:`WindowProblem.build_linear_system` performs the
linearization (the VJac/IJac work) and block accumulation ("Logics to
Prepare A, b" in Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.errors import SolverError
from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState, STATE_DIM
from repro.linalg.plan import U_FLOOR, SolverPlan, default_plan_cache
from repro.slam.batch import (
    VisualFactorBatch,
    accumulate_visual_batch,
    linearize_visual_batch,
    visual_costs_batch,
    visual_residuals_batch,
)
from repro.slam.residuals import ImuFactor, PriorFactor, VisualFactor

POSE_DOF = 6
MIN_INV_DEPTH = 1e-4
MAX_INV_DEPTH = 1e2
BACKENDS = ("batched", "loop")


@dataclass
class LinearSystem:
    """The structured normal equations of one iteration."""

    u_diag: np.ndarray  # (p,) diagonal landmark block
    w_block: np.ndarray  # (q, p) coupling
    v_block: np.ndarray  # (q, q) keyframe block
    b_x: np.ndarray  # (p,)
    b_y: np.ndarray  # (q,)
    feature_ids: list[int]
    frame_ids: list[int]
    # Wall-clock split of the build that produced this system (seconds):
    # Jacobian/residual evaluation vs block accumulation. Fed into the
    # per-window StageTimings breakdown by the NLS solver.
    linearize_seconds: float = 0.0
    assemble_seconds: float = 0.0

    def solve(
        self,
        damping: float = 0.0,
        plan: SolverPlan | None = None,
        copy: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Schur-eliminate the landmarks and solve for all unknowns.

        This is the exact computation the accelerator's NLS data path
        performs: D-type Schur -> Cholesky -> forward/backward
        substitution -> landmark back-substitution — executed through a
        :class:`repro.linalg.plan.SolverPlan` whose workspace arenas make
        the whole solve allocation-free. Damping is an in-place diagonal
        add inside the plan (no ``np.eye`` materialization), and jitter
        is applied only if the factorization fails.

        Args:
            damping: LM damping added to both diagonal blocks.
            plan: a prebuilt plan matching this system's structure; when
                None the process-wide plan cache supplies one (reused
                across iterations and across every window of the same
                width).
            copy: return owned arrays (default). ``copy=False`` returns
                views into the plan's arenas — valid only until the next
                solve on the same plan; the NLS hot loop uses this.

        Returns:
            (d_lambda, d_state): landmark and keyframe tangent updates.
        """
        if plan is None:
            plan = default_plan_cache().get(self.num_features, self.b_y.shape[0])
        d_lambda, d_state, _ = plan.execute(
            self.u_diag, self.w_block, self.v_block, self.b_x, self.b_y,
            damping=damping,
        )
        if copy:
            return d_lambda.copy(), d_state.copy()
        return d_lambda, d_state

    def dense(self, damping: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """``[[diag(max(u, U_FLOOR) + d), W^T], [W, V + d I]]`` and ``[b_x, b_y]``.

        The one dense materialization of the arrow system, with the floor
        and damping the structured plan applies in place.
        """
        u_damped = np.maximum(self.u_diag, U_FLOOR) + damping
        v_damped = self.v_block + damping * np.eye(self.v_block.shape[0])
        full = np.block([[np.diag(u_damped), self.w_block.T], [self.w_block, v_damped]])
        return full, np.concatenate([self.b_x, self.b_y])

    def solve_dense(self, damping: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Solve the full arrow system densely — the conformance oracle.

        Solves :meth:`dense` with ``numpy.linalg.solve``. Deliberately
        independent of the plan/Schur machinery so the ``plan_solve``
        differential oracle in :mod:`repro.testing` compares two genuinely
        distinct implementations.
        """
        full, rhs = self.dense(damping)
        try:
            solution = np.linalg.solve(full, rhs)
        except np.linalg.LinAlgError as error:
            raise SolverError(f"dense solve failed: {error}") from error
        p = self.num_features
        return solution[:p], solution[p:]

    @property
    def num_features(self) -> int:
        return len(self.feature_ids)

    @property
    def num_frames(self) -> int:
        return len(self.frame_ids)


@dataclass
class WindowProblem:
    """The MAP problem of one sliding window.

    Attributes:
        camera: shared camera intrinsics.
        states: keyframe id -> current 15-DoF state estimate.
        inv_depths: feature id -> current inverse-depth estimate.
        visual_factors / imu_factors / priors: the factor graph.
    """

    camera: PinholeCamera
    states: dict[int, NavState]
    inv_depths: dict[int, float]
    visual_factors: list[VisualFactor] = field(default_factory=list)
    imu_factors: list[ImuFactor] = field(default_factory=list)
    priors: list[PriorFactor] = field(default_factory=list)
    # Optional Huber robust kernel on the visual residuals [px]; None
    # disables it. Implemented as iteratively-reweighted least squares:
    # residuals beyond huber_delta get their weight scaled down by
    # delta / |r|, bounding any single mismatched track's influence.
    huber_delta: float | None = None
    # Linearization backend: "batched" evaluates all visual factors
    # through the structure-of-arrays kernels of repro.slam.batch;
    # "loop" is the per-factor reference oracle.
    backend: str = "batched"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SolverError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        for factor in self.visual_factors:
            if factor.anchor not in self.states or factor.target not in self.states:
                raise SolverError(
                    f"visual factor {factor.feature_id} references unknown keyframes"
                )
            if factor.feature_id not in self.inv_depths:
                raise SolverError(f"no inverse depth for feature {factor.feature_id}")
        for factor in self.imu_factors:
            if factor.frame_i not in self.states or factor.frame_j not in self.states:
                raise SolverError("IMU factor references unknown keyframes")

    # ------------------------------------------------------------------
    # Structure-of-arrays gathers (batched backend)
    # ------------------------------------------------------------------

    def _sorted_ids(self) -> tuple[list[int], list[int]]:
        return sorted(self.states), sorted(self.inv_depths)

    def _visual_batch(self) -> VisualFactorBatch:
        """The window's SoA factor gather, built once and reused.

        The gathered arrays depend only on the factor list and the sorted
        frame/feature id sets, all of which :meth:`stepped` preserves, so
        the cache is carried across LM iterations.
        """
        batch = self.__dict__.get("_batch_cache")
        if batch is None:
            frame_ids, feature_ids = self._sorted_ids()
            batch = VisualFactorBatch.from_factors(
                self.visual_factors,
                {fid: i for i, fid in enumerate(frame_ids)},
                {fid: i for i, fid in enumerate(feature_ids)},
            )
            self.__dict__["_batch_cache"] = batch
        return batch

    def _pose_stacks(self, frame_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Stack the current keyframe poses as (b, 3, 3) / (b, 3) arrays."""
        if not frame_ids:
            return np.zeros((0, 3, 3)), np.zeros((0, 3))
        rotations = np.stack([self.states[fid].rotation for fid in frame_ids])
        translations = np.stack([self.states[fid].position for fid in frame_ids])
        return rotations, translations

    def _inv_depth_vector(self, feature_ids: list[int]) -> np.ndarray:
        return np.fromiter(
            (self.inv_depths[fid] for fid in feature_ids),
            dtype=float,
            count=len(feature_ids),
        )

    # ------------------------------------------------------------------
    # Cost evaluation
    # ------------------------------------------------------------------

    def _huber_scale(self, residual: np.ndarray) -> float:
        """IRLS weight multiplier of the Huber kernel (1 inside delta)."""
        if self.huber_delta is None:
            return 1.0
        norm = float(np.linalg.norm(residual))
        return 1.0 if norm <= self.huber_delta else self.huber_delta / norm

    def _visual_cost(self, residual: np.ndarray, weight: float) -> float:
        """Quadratic or Huber cost of one visual residual."""
        squared = float(residual @ residual)
        if self.huber_delta is None:
            return 0.5 * weight * squared
        norm = np.sqrt(squared)
        delta = self.huber_delta
        if norm <= delta:
            return 0.5 * weight * squared
        return weight * delta * (norm - 0.5 * delta)

    def visual_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """In-front-of-camera mask and residual of every visual factor.

        Rows follow ``visual_factors``; residuals of rows behind the
        camera are meaningless. The backend picks the per-factor loop or
        one batched kernel call.
        """
        if self.backend == "loop":
            valid = np.zeros(len(self.visual_factors), dtype=bool)
            residuals = np.zeros((len(self.visual_factors), 2))
            for i, factor in enumerate(self.visual_factors):
                residual = factor.residual_only(
                    self.camera,
                    self.states[factor.anchor],
                    self.states[factor.target],
                    self.inv_depths[factor.feature_id],
                )
                if residual is not None:
                    valid[i] = True
                    residuals[i] = residual
            return valid, residuals
        frame_ids, feature_ids = self._sorted_ids()
        rotations, translations = self._pose_stacks(frame_ids)
        return visual_residuals_batch(
            self.camera, self._visual_batch(), rotations, translations,
            self._inv_depth_vector(feature_ids),
        )

    def _visual_cost_total(self) -> float:
        """Summed visual cost under the active backend."""
        valid, residuals = self.visual_residuals()
        if self.backend == "loop":
            total = 0.0
            for factor, in_front, residual in zip(self.visual_factors, valid, residuals):
                if in_front:
                    total += self._visual_cost(residual, factor.weight)
            return total
        costs = visual_costs_batch(
            residuals[valid], self._visual_batch().weights[valid], self.huber_delta
        )
        return float(costs.sum())

    def cost(self) -> float:
        """Total MAP objective at the current estimates."""
        total = self._visual_cost_total()
        for factor in self.imu_factors:
            residual = factor.residual_only(
                self.states[factor.frame_i], self.states[factor.frame_j]
            )
            information = factor.information()
            total += 0.5 * float(residual @ information @ residual)
        for prior in self.priors:
            total += prior.cost(self.states)
        return total

    # ------------------------------------------------------------------
    # Linearization and assembly
    # ------------------------------------------------------------------

    def build_linear_system(self) -> LinearSystem:
        """Linearize every factor and accumulate the arrow system.

        The visual factors go through the backend selected at
        construction; IMU and prior factors are few per window and stay
        on the per-factor path under either backend. The returned system
        carries the linearize/assemble wall-clock split.
        """
        frame_ids, feature_ids = self._sorted_ids()
        frame_index = {fid: i for i, fid in enumerate(frame_ids)}
        p = len(feature_ids)
        q = STATE_DIM * len(frame_ids)

        u_diag = np.zeros(p)
        w_block = np.zeros((q, p))
        v_block = np.zeros((q, q))
        b_x = np.zeros(p)
        b_y = np.zeros(q)
        linearize_s = 0.0
        assemble_s = 0.0

        if self.backend == "batched":
            tic = perf_counter()
            batch = self._visual_batch()
            rotations, translations = self._pose_stacks(frame_ids)
            lin = linearize_visual_batch(
                self.camera,
                batch,
                rotations,
                translations,
                self._inv_depth_vector(feature_ids),
                self.huber_delta,
            )
            toc = perf_counter()
            accumulate_visual_batch(lin, batch, u_diag, w_block, v_block, b_x, b_y)
            linearize_s += toc - tic
            assemble_s += perf_counter() - toc
        else:
            feature_index = {fid: i for i, fid in enumerate(feature_ids)}
            for factor in self.visual_factors:
                tic = perf_counter()
                lin = factor.linearize(
                    self.camera,
                    self.states[factor.anchor],
                    self.states[factor.target],
                    self.inv_depths[factor.feature_id],
                )
                toc = perf_counter()
                linearize_s += toc - tic
                if lin is None:
                    continue
                f = feature_index[factor.feature_id]
                h = STATE_DIM * frame_index[factor.anchor]
                j = STATE_DIM * frame_index[factor.target]
                w = lin.weight * self._huber_scale(lin.residual)
                jl = lin.jac_inv_depth  # (2, 1)
                jh = lin.jac_pose_anchor  # (2, 6)
                jt = lin.jac_pose_target  # (2, 6)
                r = lin.residual

                u_diag[f] += w * float((jl.T @ jl).item())
                b_x[f] -= w * float((jl.T @ r).item())

                w_block[h : h + POSE_DOF, f] += w * (jh.T @ jl).ravel()
                w_block[j : j + POSE_DOF, f] += w * (jt.T @ jl).ravel()

                v_block[h : h + POSE_DOF, h : h + POSE_DOF] += w * (jh.T @ jh)
                v_block[j : j + POSE_DOF, j : j + POSE_DOF] += w * (jt.T @ jt)
                cross = w * (jh.T @ jt)
                v_block[h : h + POSE_DOF, j : j + POSE_DOF] += cross
                v_block[j : j + POSE_DOF, h : h + POSE_DOF] += cross.T

                b_y[h : h + POSE_DOF] -= w * (jh.T @ r)
                b_y[j : j + POSE_DOF] -= w * (jt.T @ r)
                assemble_s += perf_counter() - toc

        for factor in self.imu_factors:
            tic = perf_counter()
            lin = factor.linearize(self.states[factor.frame_i], self.states[factor.frame_j])
            toc = perf_counter()
            linearize_s += toc - tic
            i = STATE_DIM * frame_index[factor.frame_i]
            j = STATE_DIM * frame_index[factor.frame_j]
            info = lin.information
            ji, jj, r = lin.jac_i, lin.jac_j, lin.residual
            ji_w = ji.T @ info
            jj_w = jj.T @ info
            v_block[i : i + STATE_DIM, i : i + STATE_DIM] += ji_w @ ji
            v_block[j : j + STATE_DIM, j : j + STATE_DIM] += jj_w @ jj
            cross = ji_w @ jj
            v_block[i : i + STATE_DIM, j : j + STATE_DIM] += cross
            v_block[j : j + STATE_DIM, i : i + STATE_DIM] += cross.T
            b_y[i : i + STATE_DIM] -= ji_w @ r
            b_y[j : j + STATE_DIM] -= jj_w @ r
            assemble_s += perf_counter() - toc

        tic = perf_counter()
        for prior in self.priors:
            h_prior, g_prior = prior.contribution(self.states)
            idx = np.concatenate(
                [
                    STATE_DIM * frame_index[fid] + np.arange(STATE_DIM)
                    for fid in prior.frame_ids
                ]
            )
            v_block[np.ix_(idx, idx)] += h_prior
            b_y[idx] += g_prior
        assemble_s += perf_counter() - tic

        return LinearSystem(
            u_diag=u_diag,
            w_block=w_block,
            v_block=v_block,
            b_x=b_x,
            b_y=b_y,
            feature_ids=feature_ids,
            frame_ids=frame_ids,
            linearize_seconds=linearize_s,
            assemble_seconds=assemble_s,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def stepped(
        self, d_lambda: np.ndarray, d_state: np.ndarray, system: LinearSystem
    ) -> "WindowProblem":
        """Return a copy of the problem with the solution step applied."""
        new_states = dict(self.states)
        for i, fid in enumerate(system.frame_ids):
            delta = d_state[STATE_DIM * i : STATE_DIM * (i + 1)]
            new_states[fid] = new_states[fid].retract(delta)
        clipped = np.clip(
            self._inv_depth_vector(system.feature_ids) + d_lambda,
            MIN_INV_DEPTH,
            MAX_INV_DEPTH,
        )
        new_depths = dict(self.inv_depths)
        new_depths.update(zip(system.feature_ids, clipped.tolist()))
        stepped = WindowProblem(
            camera=self.camera,
            states=new_states,
            inv_depths=new_depths,
            visual_factors=self.visual_factors,
            imu_factors=self.imu_factors,
            priors=self.priors,
            huber_delta=self.huber_delta,
            backend=self.backend,
        )
        # The factor list and the frame/feature id sets are unchanged, so
        # the SoA gather can be carried over to the stepped problem.
        cached = self.__dict__.get("_batch_cache")
        if cached is not None:
            stepped.__dict__["_batch_cache"] = cached
        return stepped
