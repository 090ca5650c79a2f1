"""SO(3) primitives: hat/vee, exponential/log maps, quaternions.

These are the standard rotation-group operations used throughout
visual-inertial SLAM. Small-angle branches use Taylor expansions so the
maps stay smooth (and differentiable in tests) near the identity.
"""

from __future__ import annotations

import numpy as np

_SMALL_ANGLE = 1e-8


def hat(omega: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the corresponding skew-symmetric matrix.

    ``hat(w) @ v == np.cross(w, v)`` for all 3-vectors ``v``.
    """
    wx, wy, wz = np.asarray(omega, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -wz, wy],
            [wz, 0.0, -wx],
            [-wy, wx, 0.0],
        ]
    )


def hat_batch(omegas: np.ndarray) -> np.ndarray:
    """Row-wise :func:`hat`: map ``(n, 3)`` vectors to ``(n, 3, 3)`` skews."""
    omegas = np.asarray(omegas, dtype=float).reshape(-1, 3)
    out = np.zeros((omegas.shape[0], 3, 3))
    wx, wy, wz = omegas[:, 0], omegas[:, 1], omegas[:, 2]
    out[:, 0, 1] = -wz
    out[:, 0, 2] = wy
    out[:, 1, 0] = wz
    out[:, 1, 2] = -wx
    out[:, 2, 0] = -wy
    out[:, 2, 1] = wx
    return out


def vee(matrix: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`: extract the 3-vector from a skew matrix."""
    matrix = np.asarray(matrix, dtype=float)
    return np.array([matrix[2, 1], matrix[0, 2], matrix[1, 0]])


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Exponential map: axis-angle 3-vector -> rotation matrix (Rodrigues)."""
    omega = np.asarray(omega, dtype=float).reshape(3)
    theta = float(np.linalg.norm(omega))
    skew = hat(omega)
    if theta < _SMALL_ANGLE:
        # Second-order Taylor expansion around the identity.
        return np.eye(3) + skew + 0.5 * (skew @ skew)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * skew + b * (skew @ skew)


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Log map: rotation matrix -> axis-angle 3-vector.

    Handles the theta -> 0 and theta -> pi edge cases explicitly.
    """
    rotation = np.asarray(rotation, dtype=float)
    cos_theta = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < _SMALL_ANGLE:
        return vee(rotation - rotation.T) / 2.0
    if np.pi - theta < 1e-6:
        # Near pi the standard formula is ill-conditioned; recover the
        # axis from the symmetric part R + I = 2*(axis axis^T - ...) trick.
        symmetric = (rotation + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(symmetric), 0.0, None))
        # Fix the signs using the largest component as reference.
        k = int(np.argmax(axis))
        if axis[k] > 0.0:
            for i in range(3):
                if i != k and symmetric[k, i] < 0.0:
                    axis[i] = -axis[i]
        return theta * axis / np.linalg.norm(axis)
    return theta / (2.0 * np.sin(theta)) * vee(rotation - rotation.T)


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each ``(n, 3)`` row, bit for bit.

    A matmul with a 1x1 result runs the same dot kernel ``norm`` uses on a
    single vector; a sum of squares would round in another order.
    """
    return np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None])[:, 0, 0])


def so3_log_batch(rotations: np.ndarray) -> np.ndarray:
    """Element-wise :func:`so3_log`: ``(..., 3, 3)`` rotations to ``(..., 3)``.

    Bit-identical to stacked :func:`so3_log` calls: same arithmetic, with
    the small-angle and near-pi branches selected by mask.
    """
    rotations = np.asarray(rotations, dtype=float)
    mats = rotations.reshape(-1, 3, 3)
    cos_theta = np.clip((np.trace(mats, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    skew = mats - np.swapaxes(mats, 1, 2)
    vees = np.stack([skew[:, 2, 1], skew[:, 0, 2], skew[:, 1, 0]], axis=1)
    small = theta < _SMALL_ANGLE
    near_pi = ~small & (np.pi - theta < 1e-6)
    generic = ~(small | near_pi)
    out = np.empty_like(vees)
    out[small] = vees[small] / 2.0
    out[generic] = (theta[generic] / (2.0 * np.sin(theta[generic])))[:, None] * vees[generic]
    if near_pi.any():
        symmetric = (mats[near_pi] + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diagonal(symmetric, axis1=1, axis2=2), 0.0, None))
        k = np.argmax(axis, axis=1)
        rows = np.arange(k.size)
        # Fix the signs using the largest component as reference.
        flip = (
            (axis[rows, k] > 0.0)[:, None]
            & (symmetric[rows, k, :] < 0.0)
            & (np.arange(3) != k[:, None])
        )
        axis = np.where(flip, -axis, axis)
        out[near_pi] = theta[near_pi][:, None] * axis / _row_norms(axis)[:, None]
    return out.reshape(rotations.shape[:-2] + (3,))


def quat_normalize(quat: np.ndarray) -> np.ndarray:
    """Normalize a quaternion (w, x, y, z), fixing the sign so w >= 0.

    When w == 0 the two antipodal representations both satisfy w >= 0,
    so the first non-zero imaginary component is made positive to keep
    the convention a total order (needed for round-trip tests).
    """
    quat = np.asarray(quat, dtype=float).reshape(4)
    norm = float(np.linalg.norm(quat))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    quat = quat / norm
    if quat[0] < 0.0:
        quat = -quat
    elif quat[0] == 0.0:
        for component in quat[1:]:
            if component != 0.0:
                if component < 0.0:
                    quat = -quat
                break
    return quat


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product of two (w, x, y, z) quaternions."""
    w1, x1, y1, z1 = np.asarray(q1, dtype=float).reshape(4)
    w2, x2, y2, z2 = np.asarray(q2, dtype=float).reshape(4)
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_to_rot(quat: np.ndarray) -> np.ndarray:
    """Convert a unit quaternion (w, x, y, z) to a rotation matrix."""
    w, x, y, z = quat_normalize(quat)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_to_quat(rotation: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a unit quaternion (w, x, y, z)."""
    rotation = np.asarray(rotation, dtype=float)
    trace = float(np.trace(rotation))
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        quat = np.array(
            [
                0.25 * s,
                (rotation[2, 1] - rotation[1, 2]) / s,
                (rotation[0, 2] - rotation[2, 0]) / s,
                (rotation[1, 0] - rotation[0, 1]) / s,
            ]
        )
    else:
        # Use the largest diagonal entry for numerical stability.
        i = int(np.argmax(np.diag(rotation)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + rotation[i, i] - rotation[j, j] - rotation[k, k], 0.0)) * 2.0
        quat = np.empty(4)
        quat[0] = (rotation[k, j] - rotation[j, k]) / s
        quat[1 + i] = 0.25 * s
        quat[1 + j] = (rotation[j, i] + rotation[i, j]) / s
        quat[1 + k] = (rotation[k, i] + rotation[i, k]) / s
    return quat_normalize(quat)


def right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3): d Exp(phi + d) ~= Exp(phi) Exp(Jr(phi) d)."""
    phi = np.asarray(phi, dtype=float).reshape(3)
    theta = float(np.linalg.norm(phi))
    skew = hat(phi)
    if theta < _SMALL_ANGLE:
        return np.eye(3) - 0.5 * skew + skew @ skew / 6.0
    a = (1.0 - np.cos(theta)) / (theta * theta)
    b = (theta - np.sin(theta)) / (theta**3)
    return np.eye(3) - a * skew + b * (skew @ skew)


def right_jacobian_inverse(phi: np.ndarray) -> np.ndarray:
    """Inverse of the SO(3) right Jacobian."""
    phi = np.asarray(phi, dtype=float).reshape(3)
    theta = float(np.linalg.norm(phi))
    skew = hat(phi)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + 0.5 * skew + skew @ skew / 12.0
    c = 1.0 / (theta * theta) - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) + 0.5 * skew + c * (skew @ skew)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly-distributed random rotation matrix."""
    quat = rng.normal(size=4)
    return quat_to_rot(quat_normalize(quat))
