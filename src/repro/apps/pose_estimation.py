"""6-DoF pose estimation for Augmented Reality (Sec. 7.7).

The classic PnP refinement workload [52]: given a known 3D model (the
anchor map) and noisy 2D detections in the current camera frame, refine
the camera pose by minimizing reprojection error — again a MAP/NLS
problem, reusing the camera Jacobians of the SLAM substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3
from repro.geometry.so3 import random_rotation
from repro.apps.nls import NlsSolution
from repro.utils.rng import rng_from_seed


@dataclass
class PoseEstimationProblem:
    """One AR frame: model points, detections, and the initial pose."""

    camera: PinholeCamera
    model_points: np.ndarray  # (N, 3) world-frame anchor points
    detections: np.ndarray  # (N, 2) observed pixels
    initial_pose: SE3
    true_pose: SE3 | None = None

    def __post_init__(self) -> None:
        self.model_points = np.asarray(self.model_points, dtype=float).reshape(-1, 3)
        self.detections = np.asarray(self.detections, dtype=float).reshape(-1, 2)
        if len(self.model_points) != len(self.detections):
            raise ConfigurationError("one detection per model point required")
        if len(self.model_points) < 4:
            raise ConfigurationError("PnP needs at least 4 correspondences")


def make_pose_estimation_problem(
    num_points: int = 80,
    pixel_noise: float = 1.0,
    pose_perturbation: float = 0.08,
    seed: int = 0,
) -> PoseEstimationProblem:
    """Synthesize an AR anchor-tracking frame."""
    rng = rng_from_seed(seed)
    camera = PinholeCamera()
    true_pose = SE3(random_rotation(rng), rng.normal(scale=0.5, size=3))
    # Scatter model points in the camera's viewing frustum.
    points_c = np.column_stack(
        [
            rng.uniform(-1.5, 1.5, num_points),
            rng.uniform(-1.0, 1.0, num_points),
            rng.uniform(2.0, 8.0, num_points),
        ]
    )
    points_w = true_pose.transform(points_c)
    detections = np.array(
        [camera.project(true_pose, p) for p in points_w]
    ) + rng.normal(scale=pixel_noise, size=(num_points, 2))
    initial = true_pose.retract(
        np.concatenate(
            [
                rng.normal(scale=pose_perturbation, size=3),
                rng.normal(scale=pose_perturbation, size=3),
            ]
        )
    )
    return PoseEstimationProblem(
        camera=camera,
        model_points=points_w,
        detections=detections,
        initial_pose=initial,
        true_pose=true_pose,
    )


def solve_pose_estimation(
    problem: PoseEstimationProblem, max_iterations: int = 20
) -> tuple[SE3, NlsSolution]:
    """LM over the 6-DoF pose tangent with analytic Jacobians."""
    pose = problem.initial_pose
    damping = 1e-4
    history = []
    iterations = 0
    converged = False

    def cost_of(p: SE3) -> float:
        total = 0.0
        for point, pixel in zip(problem.model_points, problem.detections):
            try:
                r = problem.camera.project(p, point) - pixel
            except ValueError:
                continue
            total += 0.5 * float(r @ r)
        return total

    cost = cost_of(pose)
    history.append(cost)
    for _ in range(max_iterations):
        iterations += 1
        hessian = np.zeros((6, 6))
        gradient = np.zeros(6)
        for point, pixel in zip(problem.model_points, problem.detections):
            try:
                _, jac_pose, _ = problem.camera.projection_jacobians(pose, point)
                r = problem.camera.project(pose, point) - pixel
            except ValueError:
                continue
            hessian += jac_pose.T @ jac_pose
            gradient -= jac_pose.T @ r
        step = np.linalg.solve(hessian + damping * np.eye(6), gradient)
        candidate = pose.retract(step)
        cost_new = cost_of(candidate)
        if cost_new < cost:
            relative = (cost - cost_new) / max(cost, 1e-300)
            pose, cost = candidate, cost_new
            damping = max(damping * 0.3, 1e-12)
            history.append(cost)
            if relative < 1e-10:
                converged = True
                break
        else:
            damping *= 10.0
            history.append(cost)
            if damping > 1e14:
                break
    solution = NlsSolution(
        x=pose.log(), cost=cost, iterations=iterations,
        cost_history=history, converged=converged,
    )
    return pose, solution


def pose_estimation_workload() -> tuple[WindowStats, int]:
    """Workload adapter: one pose, many observations, no landmarks to
    eliminate — so the Jacobian/Schur pipeline dominates."""
    stats = WindowStats(
        num_features=80,
        avg_observations=4.0,
        num_keyframes=3,
        num_marginalized=6,
        num_observations=320,
    )
    return stats, 6
