"""Rotation representations: 6D vectors, matrices, Euler angles.

The regression head emits the first two (un-normalized) columns of a
rotation matrix; Gram-Schmidt recovers the full matrix. Euler angles exist
only as the discontinuous baseline representation. Matrices are plain 3x3
float64 numpy arrays, row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DegenerateSixD, GimbalLockRegion, NotARotation

# Below this, a 6D input is considered unrecoverable rather than noisy.
SIXD_EPSILON = 1e-8
# Orthonormality / determinant tolerance for accepting a matrix as a rotation.
ROTATION_TOL = 1e-9


@dataclass(frozen=True)
class Rot6D:
    """Two raw 3-vectors; a seeds the first column, b the second."""

    a: np.ndarray
    b: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.a, float), np.asarray(self.b, float)])

    @staticmethod
    def from_array(values) -> "Rot6D":
        arr = np.asarray(values, dtype=float).reshape(6)
        return Rot6D(arr[:3].copy(), arr[3:].copy())


@dataclass(frozen=True)
class EulerAngles:
    """pitch/roll/yaw in radians, each in (-pi, pi].

    Convention: R = Rz(yaw) @ Ry(pitch) @ Rx(roll), i.e. intrinsic
    yaw-pitch-roll about the z, y, x axes in that order (z is the box-up
    axis, matching the yaw-only ground-plane convention).
    """

    pitch: float
    roll: float
    yaw: float


def validate_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Return R as a float64 array, raising NotARotation if it fails checks."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise NotARotation(f"expected 3x3 matrix, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise NotARotation("matrix contains non-finite entries")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > tol:
        raise NotARotation(f"R^T R deviates from identity by {err:.3e}")
    det = float(np.linalg.det(R))
    if abs(det - 1.0) > tol:
        raise NotARotation(f"determinant {det} is not 1")
    return R


def rot6d_to_matrix(r: Rot6D) -> np.ndarray:
    """Gram-Schmidt the two raw columns into a proper rotation matrix."""
    a = np.asarray(r.a, dtype=float).reshape(3)
    b = np.asarray(r.b, dtype=float).reshape(3)
    na = np.linalg.norm(a)
    if na < SIXD_EPSILON:
        raise DegenerateSixD(f"first column norm {na} below {SIXD_EPSILON}")
    c1 = a / na
    b_perp = b - (c1 @ b) * c1
    nb = np.linalg.norm(b_perp)
    if nb < SIXD_EPSILON:
        raise DegenerateSixD(f"second column parallel to first (residual norm {nb})")
    c2 = b_perp / nb
    c3 = np.cross(c1, c2)
    return np.stack([c1, c2, c3], axis=1)


def matrix_to_rot6d(R: np.ndarray) -> Rot6D:
    """First two columns of a valid rotation matrix."""
    R = validate_rotation(R)
    return Rot6D(R[:, 0].copy(), R[:, 1].copy())


def euler_to_matrix(e: EulerAngles) -> np.ndarray:
    cy, sy = math.cos(e.yaw), math.sin(e.yaw)
    cp, sp = math.cos(e.pitch), math.sin(e.pitch)
    cr, sr = math.cos(e.roll), math.sin(e.roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def matrix_to_euler(R: np.ndarray) -> EulerAngles:
    """Canonical Euler extraction; raises GimbalLockRegion near pitch = +/-pi/2."""
    R = validate_rotation(R)
    if abs(R[2, 0]) > 1.0 - 1e-9:
        raise GimbalLockRegion(f"|R[2][0]| = {abs(R[2, 0])}: yaw/roll are not separable")
    pitch = math.asin(max(-1.0, min(1.0, -R[2, 0])))
    yaw = math.atan2(R[1, 0], R[0, 0])
    roll = math.atan2(R[2, 1], R[2, 2])
    return EulerAngles(pitch=pitch, roll=roll, yaw=yaw)


def geodesic_distance(R1: np.ndarray, R2: np.ndarray) -> float:
    """Rotation angle of R1^T R2, in [0, pi]."""
    R1 = validate_rotation(R1)
    R2 = validate_rotation(R2)
    cos_theta = (np.trace(R1.T @ R2) - 1.0) / 2.0
    return math.acos(max(-1.0, min(1.0, cos_theta)))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def view_rotation(center) -> np.ndarray:
    """Minimal rotation taking the camera z-axis onto the ray toward center.

    Used to move between viewing-ray-relative (allocentric) and camera-frame
    (egocentric) orientations. The center must be in front of the camera.
    """
    c = np.asarray(tuple(center), dtype=float).reshape(3)
    n = np.linalg.norm(c)
    if n == 0.0 or c[2] <= 0.0:
        raise BehindCamera("view ray requires a center with positive Z")
    r = c / n
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, r)
    cos_a = float(z @ r)
    s2 = float(v @ v)
    if s2 < 1e-30:
        return np.eye(3)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - cos_a) / s2)


def allocentric_to_egocentric(R_alloc: np.ndarray, center) -> np.ndarray:
    return view_rotation(center) @ np.asarray(R_alloc, dtype=float)


def egocentric_to_allocentric(R_ego: np.ndarray, center) -> np.ndarray:
    return view_rotation(center).T @ np.asarray(R_ego, dtype=float)
