"""Rigid-body rotation utilities.

Conventions: a rotation matrix ``R`` maps *body-frame* vectors to
*world-frame* vectors (``v_world = R @ v_body``).  Rotation vectors use
the axis-angle exponential map.  These are the same conventions the IMU
calibration pipeline (paper SIV-B.2) relies on: the accelerometer and
magnetometer observe world-fixed reference vectors in the body frame, and
gyroscope integration advances ``R`` with body-frame angular velocity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def skew(v: np.ndarray) -> np.ndarray:
    """The 3x3 skew-symmetric (cross-product) matrix of a 3-vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ShapeError(f"skew expects a 3-vector, got shape {v.shape}")
    return _skews(v[None, :])[0]


def _skews(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices of a stack of 3-vectors; shape (N, 3, 3)."""
    out = np.zeros((v.shape[0], 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def rotations_from_rotvecs(rotvecs: np.ndarray) -> np.ndarray:
    """Batched exponential map: (N, 3) rotation vectors -> (N, 3, 3).

    Row ``i`` is bit-identical to evaluating Rodrigues' formula on
    ``rotvecs[i]`` alone, so batching never moves a quantisation bit
    downstream.  That pins the operation order: the angle comes from a
    row-by-row ``matmul``, which numpy evaluates with the same BLAS dot
    product ``np.linalg.norm`` uses on a single vector (``einsum`` or
    ``norm(axis=-1)`` round differently in the last bit), and ``k @ k``
    is a stacked ``matmul`` of the same 3x3 products.
    """
    v = np.asarray(rotvecs, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ShapeError(
            f"rotations_from_rotvecs expects shape (N, 3), got {v.shape}"
        )
    angle = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    small = angle < 1e-12
    k = _skews(v / np.where(small, 1.0, angle)[:, None])
    out = (
        np.eye(3)
        + np.sin(angle)[:, None, None] * k
        + (1.0 - np.cos(angle))[:, None, None] * np.matmul(k, k)
    )
    # First order below the angle floor, where the axis is undefined.
    out[small] = np.eye(3) + _skews(v[small])
    return out


def rotation_from_rotvec(rotvec: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector -> rotation matrix (Rodrigues)."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    if rotvec.shape != (3,):
        raise ShapeError(
            f"rotation_from_rotvec expects a 3-vector, got {rotvec.shape}"
        )
    return rotations_from_rotvecs(rotvec[None, :])[0]


def rotvec_from_rotation(rotation: np.ndarray) -> np.ndarray:
    """Logarithm map: rotation matrix -> rotation vector."""
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise ShapeError(f"expected a 3x3 matrix, got {r.shape}")
    cos_angle = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < 1e-8:
        # First-order: R ~ I + [w]x.
        return np.array(
            [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
        ) / 2.0
    if np.pi - angle < 1e-6:
        # Near pi: extract the axis from the symmetric part.
        m = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(m), 0.0, None))
        # Fix signs using off-diagonal elements.
        if axis[0] > 0:
            axis[1] = np.copysign(axis[1], m[0, 1])
            axis[2] = np.copysign(axis[2], m[0, 2])
        elif axis[1] > 0:
            axis[2] = np.copysign(axis[2], m[1, 2])
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ShapeError("degenerate rotation near pi")
        return angle * axis / norm
    axis = np.array(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    ) / (2.0 * np.sin(angle))
    return angle * axis


def integrate_angular_velocity(
    rotation: np.ndarray, omega_body: np.ndarray, dt: float
) -> np.ndarray:
    """Advance a body->world rotation by ``omega_body`` over ``dt`` seconds.

    Uses the exact exponential update ``R <- R @ exp([w dt]x)``, which is
    what the mobile device's pose-tracking loop applies to each gyroscope
    sample (paper SIV-B.2).
    """
    return rotation @ rotation_from_rotvec(
        np.asarray(omega_body, dtype=np.float64) * float(dt)
    )


def triad(
    v1_body: np.ndarray,
    v2_body: np.ndarray,
    v1_world: np.ndarray,
    v2_world: np.ndarray,
) -> np.ndarray:
    """TRIAD attitude determination.

    Given two non-collinear reference directions observed in the body
    frame (``v1_body``, ``v2_body`` — in practice gravity from the
    accelerometer and magnetic north from the magnetometer) and their
    known world-frame directions, return the body->world rotation.  This
    is how the paper obtains the *initial* pose at the start of the
    gesture (SIV-B.2).
    """

    def _frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        t1 = a / np.linalg.norm(a)
        cross = np.cross(a, b)
        norm = np.linalg.norm(cross)
        if norm < 1e-12:
            raise ShapeError("TRIAD reference vectors are collinear")
        t2 = cross / norm
        t3 = np.cross(t1, t2)
        return np.column_stack([t1, t2, t3])

    body = _frame(v1_body, v2_body)
    world = _frame(v1_world, v2_world)
    return world @ body.T
