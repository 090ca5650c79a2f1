"""Smooth synthetic 6-DoF trajectories with analytic world-frame motion.

Two families mirror the paper's datasets:

* :class:`DroneTrajectory` — EuRoC Machine-Hall style: aggressive 3D
  sum-of-sinusoid motion inside a room-sized volume with continuous yaw
  changes.
* :class:`CarTrajectory` — KITTI Odometry style: near-planar driving at
  ~10 m/s along a path whose heading follows the velocity, with gentle
  elevation changes.

Each trajectory exposes position/velocity/acceleration in closed form and
body-frame angular velocity via centered differencing of the rotation log,
which is everything needed to synthesize ideal IMU samples.

Every method takes a float ``t`` or an ``(n,)`` array of times and returns
one result per time (``(3,)`` / ``(3, 3)`` for a float, ``(n, 3)`` /
``(n, 3, 3)`` for an array). An array call equals the stacked float calls
bit for bit, so a whole sequence can be synthesized at once without moving
any stored artifact.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.so3 import _SMALL_ANGLE, so3_log_batch

_DIFF_EPS = 1e-4

# Rows per vectorized call when synthesizing many samples: bounds the
# (n, 3, 3) rotation temporaries so a ~20k-landmark field does not raise
# peak memory, while keeping per-call overhead negligible.
BLOCK_ROWS = 1024


def row_blocks(count: int) -> Iterator[slice]:
    """Consecutive ``BLOCK_ROWS``-row slices covering ``range(count)``."""
    for start in range(0, count, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, count))


def _axis_terms(angle):
    """The two terms ``so3_exp`` forms for a rotation of ``angle`` about an axis.

    With one nonzero component, Rodrigues' formula reduces to the
    cosine-like ``1 + b * (-angle**2)`` on the diagonal and the sine-like
    ``a * angle`` off it; ``a`` and ``b`` are computed as ``so3_exp``
    computes them.
    """
    theta = np.sqrt(angle * angle)
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return 1.0 + b * -(angle * angle), a * angle


def _euler_rotation(yaw, pitch, roll) -> np.ndarray:
    """``Rz(yaw) @ Ry(pitch) @ Rx(roll)`` for angles of one shape.

    Bit-identical to ``np.matmul`` over ``so3_exp`` factors. Each entry of
    ``Rz @ Ry`` is one product plus exact zeros, so it is built element by
    element; a matmul sums exact zeros to +0, which ``+ 0.0`` and
    ``0.0 -`` reproduce. The entries of the product with ``Rx`` add two
    products, so that product stays a matmul.
    """
    cz, sz = _axis_terms(yaw)
    cy, sy = _axis_terms(pitch)
    cx, sx = _axis_terms(roll)
    rz_ry = np.zeros(np.shape(cz) + (3, 3))
    rz_ry[..., 0, 0] = cz * cy + 0.0
    rz_ry[..., 0, 1] = 0.0 - sz
    rz_ry[..., 0, 2] = cz * sy + 0.0
    rz_ry[..., 1, 0] = sz * cy + 0.0
    rz_ry[..., 1, 1] = cz
    rz_ry[..., 1, 2] = sz * sy + 0.0
    rz_ry[..., 2, 0] = 0.0 - sy
    rz_ry[..., 2, 2] = cy
    rx = np.zeros_like(rz_ry)
    rx[..., 0, 0] = 1.0
    rx[..., 1, 1] = cx
    rx[..., 1, 2] = 0.0 - sx
    rx[..., 2, 1] = 0.0 + sx
    rx[..., 2, 2] = cx
    return np.matmul(rz_ry, rx)


class _SmoothTrajectory:
    """Finite-difference motion derived from ``position`` and ``rotation``."""

    def position(self, t: float | np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rotation(self, t: float | np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, t: float | np.ndarray) -> np.ndarray:
        h = _DIFF_EPS
        return (self.position(t + h) - self.position(t - h)) / (2.0 * h)

    def acceleration(self, t: float | np.ndarray) -> np.ndarray:
        h = _DIFF_EPS
        return (
            self.position(t + h) - 2.0 * self.position(t) + self.position(t - h)
        ) / (h * h)

    def angular_velocity_body(self, t: float | np.ndarray) -> np.ndarray:
        """Body-frame angular velocity from centered rotation differencing."""
        h = _DIFF_EPS
        r_minus = self.rotation(t - h)
        r_plus = self.rotation(t + h)
        return so3_log_batch(np.matmul(np.swapaxes(r_minus, -1, -2), r_plus)) / (2.0 * h)


@dataclass
class DroneTrajectory(_SmoothTrajectory):
    """EuRoC-MH-style aggressive indoor drone motion.

    Position is a sum of incommensurate sinusoids inside a box of size
    ``extent``; yaw sweeps continuously and roll/pitch wobble slightly,
    emulating a hand-flown micro aerial vehicle.

    Attributes:
        extent: half-sizes of the flight volume (x, y, z) [m].
        base_height: mean flight height [m].
        speed_scale: multiplies all temporal frequencies; higher values
            mean more aggressive motion (MH_03..05 vs MH_01/02).
        phases: per-axis phase offsets; randomized per sequence.
    """

    extent: np.ndarray = field(default_factory=lambda: np.array([4.0, 3.0, 1.0]))
    base_height: float = 1.5
    speed_scale: float = 1.0
    phases: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self) -> None:
        self.extent = np.asarray(self.extent, dtype=float).reshape(3)
        self.phases = np.asarray(self.phases, dtype=float).reshape(6)
        if np.any(self.extent <= 0):
            raise ConfigurationError("trajectory extent must be positive")
        if self.speed_scale <= 0:
            raise ConfigurationError("speed_scale must be positive")

    def position(self, t: float | np.ndarray) -> np.ndarray:
        w = 2.0 * np.pi * self.speed_scale
        px, py, pz, *_ = self.phases
        # Frequencies chosen so peak accelerations reach the 1-4 m/s^2
        # range of a hand-flown MAV (EuRoC MH), which is what gives the
        # accelerometer bias its observability.
        x = self.extent[0] * np.sin(w * 0.150 * t + px) * np.cos(w * 0.041 * t)
        y = self.extent[1] * np.sin(w * 0.122 * t + py)
        z = self.base_height + self.extent[2] * np.sin(w * 0.197 * t + pz)
        return np.stack([x, y, z], axis=-1)

    def rotation(self, t: float | np.ndarray) -> np.ndarray:
        w = 2.0 * np.pi * self.speed_scale
        _, _, _, qa, qb, qc = self.phases
        yaw = 0.8 * np.sin(w * 0.071 * t + qa) + 0.3 * np.sin(w * 0.183 * t + qb)
        pitch = 0.12 * np.sin(w * 0.253 * t + qc)
        roll = 0.10 * np.sin(w * 0.211 * t + qa + qb)
        return _euler_rotation(yaw, pitch, roll)


# Step of the car's heading quadrature [s].
_GRID_DT = 0.01


@dataclass
class CarTrajectory(_SmoothTrajectory):
    """KITTI-style near-planar driving.

    The car drives forward at roughly ``speed`` m/s; heading is an
    integrated smooth curvature signal (closed form as a sum of
    sinusoids), so the path contains straights and turns like an urban
    KITTI sequence. Small elevation changes and body roll/pitch are added
    for realism.
    """

    speed: float = 10.0
    turn_scale: float = 1.0
    phases: np.ndarray = field(default_factory=lambda: np.zeros(4))
    # Planar position at every quadrature grid point: row k is the
    # midpoint-rule integral over [0, k * _GRID_DT]. Extended on demand;
    # a prefix sum does not depend on how far it runs, so neither do the
    # positions read from it.
    _grid: np.ndarray = field(
        default_factory=lambda: np.zeros((1, 3)), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.phases = np.asarray(self.phases, dtype=float).reshape(4)
        if self.speed <= 0:
            raise ConfigurationError("speed must be positive")

    def _heading(self, t: float | np.ndarray) -> np.ndarray:
        """Closed-form heading angle at time t."""
        p0, p1, _, _ = self.phases
        return self.turn_scale * (
            0.9 * np.sin(0.05 * t + p0) + 0.5 * np.sin(0.021 * t + p1)
        )

    def _heading_rate(self, t: float | np.ndarray) -> np.ndarray:
        """Analytic time derivative of the heading."""
        p0, p1, _, _ = self.phases
        return self.turn_scale * (
            0.9 * 0.05 * np.cos(0.05 * t + p0) + 0.5 * 0.021 * np.cos(0.021 * t + p1)
        )

    def _grid_positions(self, last: int) -> np.ndarray:
        """The quadrature grid, extended to cover index ``last``."""
        if last >= len(self._grid):
            size = max(last + 1, 2 * len(self._grid))
            # The midpoint rule keeps the quadrature error at O(dt^3) per
            # step, so the path stays consistent with the analytic IMU
            # acceleration.
            heading = self._heading((np.arange(size - 1) + 0.5) * _GRID_DT)
            steps = (
                self.speed
                * _GRID_DT
                * np.stack([np.cos(heading), np.sin(heading), np.zeros_like(heading)], axis=-1)
            )
            grid = np.zeros((size, 3))
            np.cumsum(steps, axis=0, out=grid[1:])
            self._grid = grid
        return self._grid

    def position(self, t: float | np.ndarray) -> np.ndarray:
        # Integrating dx = v cos(heading), dy = v sin(heading) in closed
        # form is impossible for our heading; read the quadrature grid and
        # complete the last partial step with the midpoint rule.
        _, _, p2, _ = self.phases
        n = np.floor(t / _GRID_DT).astype(np.int64)
        index = np.maximum(n, 0)
        base = self._grid_positions(int(np.max(index, initial=0)))[index]
        remainder = t - n * _GRID_DT
        heading = self._heading(n * _GRID_DT + 0.5 * remainder)
        step = (self.speed * remainder)[..., None] * np.stack(
            [np.cos(heading), np.sin(heading), np.zeros_like(heading)], axis=-1
        )
        out = base + step
        out[..., 2] = 1.2 + 0.8 * np.sin(0.017 * t + p2)
        return out

    def velocity(self, t: float | np.ndarray) -> np.ndarray:
        _, _, p2, _ = self.phases
        heading = self._heading(t)
        vz = 0.8 * 0.017 * np.cos(0.017 * t + p2)
        return np.stack(
            [self.speed * np.cos(heading), self.speed * np.sin(heading), vz], axis=-1
        )

    def acceleration(self, t: float | np.ndarray) -> np.ndarray:
        _, _, p2, _ = self.phases
        heading = self._heading(t)
        rate = self._heading_rate(t)
        az = -0.8 * 0.017 * 0.017 * np.sin(0.017 * t + p2)
        return np.stack(
            [
                -self.speed * rate * np.sin(heading),
                self.speed * rate * np.cos(heading),
                az,
            ],
            axis=-1,
        )

    def rotation(self, t: float | np.ndarray) -> np.ndarray:
        _, _, _, p3 = self.phases
        yaw = self._heading(t)
        pitch = 0.02 * np.sin(0.05 * t + p3)
        roll = 0.015 * np.sin(0.073 * t + p3)
        return _euler_rotation(yaw, pitch, roll)
