"""Pinhole camera model with analytic projection Jacobians.

The projection function is the ``P`` of the MAP objective (Equ. 2): it
maps a world point through the keyframe pose into normalized pixel
coordinates. The Jacobians with respect to the pose perturbation and the
landmark position are exactly what the Visual Jacobian (VJac) hardware
unit evaluates per <feature, observation> pair (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.se3 import SE3
from repro.geometry.so3 import hat, hat_batch


@dataclass(frozen=True)
class PinholeCamera:
    """Intrinsics of a pinhole camera.

    Attributes:
        fx, fy: focal lengths in pixels.
        cx, cy: principal point in pixels.
        width, height: image size in pixels, used for visibility tests.
        min_depth: points closer than this (in the camera frame) are
            treated as invisible; also guards the projection Jacobian
            against division by a vanishing depth.
    """

    fx: float = 458.0
    fy: float = 457.0
    cx: float = 367.0
    cy: float = 248.0
    width: int = 752
    height: int = 480
    min_depth: float = 0.05

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigurationError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("image dimensions must be positive")
        if self.min_depth <= 0:
            raise ConfigurationError("min_depth must be positive")

    def project_camera_point(self, point_c: np.ndarray) -> np.ndarray:
        """Project a camera-frame 3D point to pixel coordinates."""
        point_c = np.asarray(point_c, dtype=float).reshape(3)
        z = point_c[2]
        if z < self.min_depth:
            raise ValueError(f"point behind or too close to camera (z={z})")
        u = self.fx * point_c[0] / z + self.cx
        v = self.fy * point_c[1] / z + self.cy
        return np.array([u, v])

    def project(self, pose: SE3, point_w: np.ndarray) -> np.ndarray:
        """Project a world point through a keyframe pose into pixels."""
        return self.project_camera_point(pose.transform_to_body(point_w))

    def is_visible(self, pose: SE3, point_w: np.ndarray) -> bool:
        """True if the world point lands inside the image with z >= min_depth."""
        point_c = pose.transform_to_body(np.asarray(point_w, dtype=float))
        if point_c[2] < self.min_depth:
            return False
        u = self.fx * point_c[0] / point_c[2] + self.cx
        v = self.fy * point_c[1] / point_c[2] + self.cy
        return 0.0 <= u < self.width and 0.0 <= v < self.height

    def projection_jacobians(
        self, pose: SE3, point_w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (residual-space point, d(uv)/d(pose), d(uv)/d(point)).

        The pose Jacobian is with respect to the 6-vector tangent
        (dp world-frame translation, dtheta right-multiplied rotation),
        matching :meth:`repro.geometry.se3.SE3.retract`.
        """
        point_w = np.asarray(point_w, dtype=float).reshape(3)
        point_c = pose.transform_to_body(point_w)
        x, y, z = point_c
        if z < self.min_depth:
            raise ValueError(f"cannot linearize point at depth z={z}")
        inv_z = 1.0 / z
        inv_z2 = inv_z * inv_z
        # d(uv) / d(point_c): the classic 2x3 pinhole Jacobian.
        d_uv_d_pc = np.array(
            [
                [self.fx * inv_z, 0.0, -self.fx * x * inv_z2],
                [0.0, self.fy * inv_z, -self.fy * y * inv_z2],
            ]
        )
        rot_t = pose.rotation.T
        # point_c = R^T (p_w - t); d pc/d t = -R^T; d pc/d theta = hat(pc)
        # (for the right-multiplied rotation update R <- R Exp(dtheta)).
        d_pc_d_pose = np.hstack([-rot_t, hat(point_c)])
        d_uv_d_pose = d_uv_d_pc @ d_pc_d_pose
        d_uv_d_point = d_uv_d_pc @ rot_t
        return point_c, d_uv_d_pose, d_uv_d_point

    # ------------------------------------------------------------------
    # Batched (structure-of-arrays) kernels
    # ------------------------------------------------------------------

    def project_camera_points_batch(self, points_c: np.ndarray) -> np.ndarray:
        """Project camera-frame points ``(n, 3)`` to pixels ``(n, 2)``.

        Unlike :meth:`project_camera_point` this never raises: rows at or
        behind ``min_depth`` still produce (meaningless) numbers — callers
        are expected to cull them through the validity mask returned by
        :meth:`projection_jacobians_batch`. The depth is clamped away from
        zero only to keep the division well defined on culled rows.
        """
        points_c = np.asarray(points_c, dtype=float).reshape(-1, 3)
        z = np.where(np.abs(points_c[:, 2]) > 1e-30, points_c[:, 2], 1e-30)
        out = np.empty((points_c.shape[0], 2))
        out[:, 0] = self.fx * points_c[:, 0] / z + self.cx
        out[:, 1] = self.fy * points_c[:, 1] / z + self.cy
        return out

    def projection_jacobians_batch(
        self, rotations: np.ndarray, points_c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`projection_jacobians` over ``n`` observations.

        Args:
            rotations: ``(n, 3, 3)`` target-pose rotations (body -> world).
            points_c: ``(n, 3)`` the already-transformed camera-frame
                points (``R^T (p_w - t)``; see
                :func:`repro.geometry.se3.transform_to_body_batch`).

        Returns:
            ``(valid, d_uv_d_pose, d_uv_d_point)`` where ``valid`` is the
            ``(n,)`` boolean in-front-of-camera mask (``z >= min_depth``),
            ``d_uv_d_pose`` is ``(n, 2, 6)`` and ``d_uv_d_point`` is
            ``(n, 2, 3)``. Rows failing the mask hold finite garbage and
            must be discarded by the caller — this is the boolean-mask
            form of the per-factor early ``continue``.
        """
        rotations = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
        points_c = np.asarray(points_c, dtype=float).reshape(-1, 3)
        n = points_c.shape[0]
        x, y, z = points_c[:, 0], points_c[:, 1], points_c[:, 2]
        valid = z >= self.min_depth
        safe_z = np.where(np.abs(z) > 1e-30, z, 1e-30)
        inv_z = 1.0 / safe_z
        inv_z2 = inv_z * inv_z
        d_uv_d_pc = np.zeros((n, 2, 3))
        d_uv_d_pc[:, 0, 0] = self.fx * inv_z
        d_uv_d_pc[:, 0, 2] = -self.fx * x * inv_z2
        d_uv_d_pc[:, 1, 1] = self.fy * inv_z
        d_uv_d_pc[:, 1, 2] = -self.fy * y * inv_z2
        # d pc / d pose = [-R^T | hat(pc)], assembled blockwise.
        # d_uv_d_pc @ R^T: contract over pc with R^T[j, k] = R[k, j].
        d_uv_d_point = np.einsum("nij,nkj->nik", d_uv_d_pc, rotations)
        d_uv_d_pose = np.empty((n, 2, 6))
        d_uv_d_pose[:, :, 0:3] = -d_uv_d_point
        d_uv_d_pose[:, :, 3:6] = np.einsum(
            "nij,njk->nik", d_uv_d_pc, hat_batch(points_c)
        )
        return valid, d_uv_d_pose, d_uv_d_point
