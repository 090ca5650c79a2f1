"""An MSCKF-style filtering baseline (the Sec. 2.1/2.2 comparison).

The paper targets MAP estimation because, compared to non-linear
filtering, it "is more robust in long-term localization and is more
efficient, as quantified by accuracy per unit of computing time" [72].
To make that comparison runnable we implement the classic Multi-State
Constraint Kalman Filter (Mourikis & Roumeliotis 2007): an error-state
EKF over the current inertial state plus a sliding window of stochastic
pose clones, with visual updates from completed feature tracks after
projecting out the landmark through the left nullspace of its Jacobian.

Error-state conventions match :class:`repro.geometry.navstate.NavState`:
(dp, dtheta, dv, dbg, dba) with dtheta right-multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.sequences import Sequence
from repro.errors import ConfigurationError
from repro.geometry.se3 import SE3
from repro.geometry.so3 import hat, so3_exp
from repro.imu.preintegration import GRAVITY

_IMU_DIM = 15
_CLONE_DIM = 6


@dataclass(frozen=True)
class MsckfConfig:
    """Filter tuning.

    Attributes:
        max_clones: sliding window of stochastic pose clones.
        pixel_sigma: measurement noise std [px].
        chi2_gate: per-track gating threshold multiplier (on the
            normalized innovation); tracks failing it are discarded.
        min_track_length: tracks shorter than this give no update.
    """

    max_clones: int = 8
    pixel_sigma: float = 1.0
    chi2_gate: float = 12.0
    min_track_length: int = 3

    def __post_init__(self) -> None:
        if self.max_clones < 2:
            raise ConfigurationError("need at least 2 clones")
        if self.pixel_sigma <= 0:
            raise ConfigurationError("pixel_sigma must be positive")


@dataclass
class MsckfResult:
    """Per-keyframe outputs of a filter run."""

    estimated_positions: list[np.ndarray] = field(default_factory=list)
    true_positions: list[np.ndarray] = field(default_factory=list)
    position_errors: list[float] = field(default_factory=list)
    updates_applied: int = 0
    tracks_rejected: int = 0
    # Rough arithmetic-operation count, comparable with the MAP
    # estimator's M-DFG cost (covariance propagation + updates).
    operation_count: float = 0.0


class MsckfFilter:
    """The filtering pipeline over a synthetic sequence."""

    def __init__(self, config: MsckfConfig | None = None) -> None:
        self.config = config or MsckfConfig()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, sequence: Sequence, max_keyframes: int | None = None) -> MsckfResult:
        camera = sequence.config.camera
        limit = min(
            sequence.num_keyframes,
            max_keyframes if max_keyframes is not None else sequence.num_keyframes,
        )
        result = MsckfResult()

        # Initialize from the (noisy-bootstrap-free) true initial state;
        # like the MAP estimator's bootstrap but with the filter's own
        # initial covariance.
        state0 = sequence.true_states[0]
        position = state0.position.copy()
        rotation = state0.rotation.copy()
        velocity = state0.velocity.copy()
        bias_gyro = np.zeros(3)
        bias_accel = np.zeros(3)
        covariance = np.diag(
            [1e-4] * 3 + [1e-4] * 3 + [1e-4] * 3 + [1e-5] * 3 + [1e-3] * 3
        )

        clones: list[tuple[int, np.ndarray, np.ndarray]] = []  # (frame, p, R)
        # Track store: feature id -> list of (clone frame id, pixel).
        tracks: dict[int, list[tuple[int, np.ndarray]]] = {}

        noise = sequence.config.imu_noise

        for frame_id in range(limit):
            if frame_id > 0:
                segment = sequence.imu_segments[frame_id - 1]
                sg = max(noise.discrete_gyro_sigma(segment.dt), 1e-5)
                sa = max(noise.discrete_accel_sigma(segment.dt), 1e-4)
                swg = max(noise.discrete_gyro_walk_sigma(segment.dt), 1e-8)
                swa = max(noise.discrete_accel_walk_sigma(segment.dt), 1e-7)
                for gyro, accel in zip(segment.gyro, segment.accel):
                    position, rotation, velocity, covariance = self._propagate(
                        position, rotation, velocity, bias_gyro, bias_accel,
                        covariance, len(clones), gyro, accel, segment.dt,
                        sg, sa, swg, swa,
                    )
                    result.operation_count += (
                        2 * (_IMU_DIM + _CLONE_DIM * len(clones)) ** 2 + 500
                    )

            # Clone the current pose.
            clones.append((frame_id, position.copy(), rotation.copy()))
            covariance = self._augment(covariance)
            result.operation_count += covariance.size

            # Register observations; fire updates for tracks that ended.
            obs = sequence.observations[frame_id]
            ids = obs.ids.tolist()
            current = set(ids)
            ended = [fid for fid in tracks if fid not in current]
            for fid, pixel in zip(ids, obs.pixels):
                tracks.setdefault(fid, []).append((frame_id, pixel))

            updates = []
            for fid in ended:
                track = tracks.pop(fid)
                if len(track) >= self.config.min_track_length:
                    updates.append(track)
            if len(clones) > self.config.max_clones:
                # Tracks still alive but anchored entirely on the oldest
                # clone's era must be used before the clone is dropped.
                oldest = clones[0][0]
                for fid in [f for f, t in tracks.items() if t[0][0] == oldest]:
                    track = tracks.pop(fid)
                    if len(track) >= self.config.min_track_length:
                        updates.append(track)

            for track in updates:
                delta, covariance, ops, accepted = self._update(
                    track, clones, covariance, camera
                )
                result.operation_count += ops
                if not accepted:
                    result.tracks_rejected += 1
                    continue
                result.updates_applied += 1
                position, rotation, velocity, bias_gyro, bias_accel, clones = (
                    self._apply_correction(
                        delta, position, rotation, velocity, bias_gyro,
                        bias_accel, clones,
                    )
                )

            # Marginalize the oldest clone once over budget.
            if len(clones) > self.config.max_clones:
                covariance = self._drop_clone(covariance, 0)
                dropped = clones.pop(0)[0]
                tracks = {
                    fid: [(f, z) for f, z in track if f != dropped]
                    for fid, track in tracks.items()
                }

            truth = sequence.true_states[frame_id]
            result.estimated_positions.append(position.copy())
            result.true_positions.append(truth.position.copy())
            result.position_errors.append(
                float(np.linalg.norm(position - truth.position))
            )
        return result

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(
        self, position, rotation, velocity, bias_gyro, bias_accel, covariance,
        num_clones, gyro, accel, dt, sigma_g, sigma_a, walk_g, walk_a,
    ):
        omega = gyro - bias_gyro
        specific = accel - bias_accel
        accel_world = rotation @ specific + GRAVITY

        new_position = position + velocity * dt + 0.5 * accel_world * dt * dt
        new_velocity = velocity + accel_world * dt
        new_rotation = rotation @ so3_exp(omega * dt)

        # Error-state transition (right-multiplicative dtheta).
        transition = np.eye(_IMU_DIM)
        transition[0:3, 6:9] = dt * np.eye(3)
        transition[0:3, 3:6] = -0.5 * dt * dt * rotation @ hat(specific)
        transition[0:3, 12:15] = -0.5 * dt * dt * rotation
        transition[6:9, 3:6] = -dt * rotation @ hat(specific)
        transition[6:9, 12:15] = -dt * rotation
        transition[3:6, 3:6] = so3_exp(-omega * dt)
        transition[3:6, 9:12] = -dt * np.eye(3)

        noise = np.zeros((_IMU_DIM, _IMU_DIM))
        noise[0:3, 0:3] = (0.5 * dt * dt * sigma_a) ** 2 * np.eye(3)
        noise[3:6, 3:6] = (dt * sigma_g) ** 2 * np.eye(3)
        noise[6:9, 6:9] = (dt * sigma_a) ** 2 * np.eye(3)
        noise[9:12, 9:12] = walk_g**2 * np.eye(3)
        noise[12:15, 12:15] = walk_a**2 * np.eye(3)

        total = _IMU_DIM + _CLONE_DIM * num_clones
        full = np.eye(total)
        full[:_IMU_DIM, :_IMU_DIM] = transition
        covariance = full @ covariance @ full.T
        covariance[:_IMU_DIM, :_IMU_DIM] += noise
        return new_position, new_rotation, new_velocity, covariance

    def _augment(self, covariance: np.ndarray) -> np.ndarray:
        """Stochastic cloning: append the current pose's error sub-state."""
        old = covariance.shape[0]
        jac = np.zeros((_CLONE_DIM, old))
        jac[0:3, 0:3] = np.eye(3)
        jac[3:6, 3:6] = np.eye(3)
        out = np.zeros((old + _CLONE_DIM, old + _CLONE_DIM))
        out[:old, :old] = covariance
        cross = jac @ covariance
        out[old:, :old] = cross
        out[:old, old:] = cross.T
        out[old:, old:] = jac @ covariance @ jac.T
        return out

    def _drop_clone(self, covariance: np.ndarray, clone_index: int) -> np.ndarray:
        start = _IMU_DIM + _CLONE_DIM * clone_index
        keep = np.r_[0:start, start + _CLONE_DIM : covariance.shape[0]]
        return covariance[np.ix_(keep, keep)]

    # ------------------------------------------------------------------
    # Visual update
    # ------------------------------------------------------------------

    def _triangulate(self, track, clone_poses, camera):
        """Linear multi-view triangulation from the clone estimates."""
        rows_a, rows_b = [], []
        for frame_id, pixel in track:
            pose = clone_poses.get(frame_id)
            if pose is None:
                continue
            p_c, r_c = pose
            bearing = np.array(
                [
                    (pixel[0] - camera.cx) / camera.fx,
                    (pixel[1] - camera.cy) / camera.fy,
                    1.0,
                ]
            )
            direction = r_c @ bearing
            skew = hat(direction / np.linalg.norm(direction))
            rows_a.append(skew)
            rows_b.append(skew @ p_c)
        if len(rows_a) < 2:
            return None
        design = np.vstack(rows_a)
        target = np.concatenate(rows_b)
        point, *_ = np.linalg.lstsq(design, target, rcond=None)
        return point

    def _update(self, track, clones, covariance, camera):
        clone_poses = {f: (p, r) for f, p, r in clones}
        clone_order = {f: i for i, (f, _, _) in enumerate(clones)}
        point = self._triangulate(track, clone_poses, camera)
        total = covariance.shape[0]
        if point is None:
            return None, covariance, 100.0, False

        residuals, h_x_rows, h_f_rows = [], [], []
        for frame_id, pixel in track:
            if frame_id not in clone_poses:
                continue
            p_c, r_c = clone_poses[frame_id]
            pose = SE3(r_c, p_c)
            try:
                _, d_pose, d_point = camera.projection_jacobians(pose, point)
                predicted = camera.project(pose, point)
            except ValueError:
                continue
            residuals.append(pixel - predicted)
            row = np.zeros((2, total))
            offset = _IMU_DIM + _CLONE_DIM * clone_order[frame_id]
            row[:, offset : offset + _CLONE_DIM] = d_pose
            h_x_rows.append(row)
            h_f_rows.append(d_point)
        if len(residuals) < 2:
            return None, covariance, 100.0, False

        r = -np.concatenate(residuals)  # residual = h(x) - z convention
        h_x = np.vstack(h_x_rows)
        h_f = np.vstack(h_f_rows)

        # Project out the landmark: left nullspace of H_f via full QR.
        q, _ = np.linalg.qr(h_f, mode="complete")
        nullspace = q[:, 3:]
        r0 = nullspace.T @ r
        h0 = nullspace.T @ h_x
        ops = float(h_x.size * 4 + total * total)

        sigma2 = self.config.pixel_sigma**2
        innovation_cov = h0 @ covariance @ h0.T + sigma2 * np.eye(h0.shape[0])
        try:
            inv_innovation = np.linalg.inv(innovation_cov)
        except np.linalg.LinAlgError:
            return None, covariance, ops, False
        # Chi-square gate (normalized innovation squared per DOF).
        nis = float(r0 @ inv_innovation @ r0) / max(len(r0), 1)
        if nis > self.config.chi2_gate:
            return None, covariance, ops, False

        gain = covariance @ h0.T @ inv_innovation
        delta = gain @ (-r0)
        covariance = (np.eye(total) - gain @ h0) @ covariance
        covariance = 0.5 * (covariance + covariance.T)
        ops += float(gain.size * h0.shape[0] * 2)
        return delta, covariance, ops, True

    def _apply_correction(
        self, delta, position, rotation, velocity, bias_gyro, bias_accel, clones
    ):
        position = position + delta[0:3]
        rotation = rotation @ so3_exp(delta[3:6])
        velocity = velocity + delta[6:9]
        bias_gyro = bias_gyro + delta[9:12]
        bias_accel = bias_accel + delta[12:15]
        new_clones = []
        for i, (frame_id, p_c, r_c) in enumerate(clones):
            offset = _IMU_DIM + _CLONE_DIM * i
            new_clones.append(
                (
                    frame_id,
                    p_c + delta[offset : offset + 3],
                    r_c @ so3_exp(delta[offset + 3 : offset + 6]),
                )
            )
        return position, rotation, velocity, bias_gyro, bias_accel, new_clones
