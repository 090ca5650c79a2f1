"""Generating accelerators for non-SLAM MAP algorithms (Sec. 7.7).

MAP estimation shows up across robotics; this example solves two other
workloads with the library's NLS machinery, then generates an
accelerator for each and compares against the Intel software baseline:

  * smooth curve fitting for motion planning (B-spline smoothing);
  * 6-DoF pose estimation for Augmented Reality (PnP refinement).

Run: python examples/custom_algorithm.py
"""

import numpy as np

from repro.apps import (
    curve_fitting_workload,
    make_curve_fitting_problem,
    make_pose_estimation_problem,
    pose_estimation_workload,
    solve_curve_fitting,
    solve_pose_estimation,
)
from repro.baselines import INTEL_COMET_LAKE
from repro.synth import DesignSpec, Objective, synthesize


def main() -> None:
    # --- solve the problems themselves (the algorithms are real) ---
    curve = make_curve_fitting_problem(num_waypoints=60, noise=0.15)
    curve_solution = solve_curve_fitting(curve)
    errors = [
        np.linalg.norm(curve.evaluate(curve_solution.x, t) - ref)
        for t, ref in zip(curve.times, curve.true_path)
    ]
    print("curve fitting: smoothed 60 noisy waypoints "
          f"(noise 15 cm) to {100 * np.mean(errors):.1f} cm mean error "
          f"in {curve_solution.iterations} LM iterations")

    pose_problem = make_pose_estimation_problem(num_points=80, pixel_noise=1.0)
    pose, pose_solution = solve_pose_estimation(pose_problem)
    pose_error = np.linalg.norm(
        pose.translation - pose_problem.true_pose.translation
    )
    print(f"pose estimation: refined the camera pose to "
          f"{1000 * pose_error:.1f} mm in {pose_solution.iterations} iterations")

    # --- generate an accelerator for each workload ---
    print("\ngenerated accelerators (ZC706, vs Intel Comet Lake):")
    for name, (stats, iterations) in (
        ("curve fitting ", curve_fitting_workload()),
        ("pose estimation", pose_estimation_workload()),
    ):
        fastest = synthesize(
            DesignSpec(workload=stats, iterations=iterations, objective=Objective.LATENCY)
        )
        design = synthesize(
            DesignSpec(
                workload=stats,
                iterations=iterations,
                latency_budget_s=fastest.latency_s * 1.05,
            )
        )
        t_cpu = INTEL_COMET_LAKE.window_time(stats, iterations)
        speedup = t_cpu / design.latency_s
        energy = t_cpu * INTEL_COMET_LAKE.power_w / (design.latency_s * design.power_w)
        print(f"  {name}: nd={design.config.nd:2d} nm={design.config.nm:2d} "
              f"s={design.config.s:3d}  {design.latency_s * 1e3:5.2f} ms  "
              f"{speedup:4.1f}x speedup  {energy:5.0f}x energy reduction")


if __name__ == "__main__":
    main()
