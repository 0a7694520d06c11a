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

from .errors import BehindCamera, DegenerateSixD, GimbalLockRegion, NotARotation, reject_first

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


def rotation_defects(R: np.ndarray) -> tuple:
    """Orthonormality error max|R^T R - I| and determinant of a 3x3 matrix,
    or of each matrix of an (N, 3, 3) stack."""
    err = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-2, -1))
    return err, np.linalg.det(R)


def validate_rotation(R: np.ndarray) -> np.ndarray:
    """Return R as a float64 array, raising NotARotation if it fails checks."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise NotARotation(f"expected 3x3 matrix, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise NotARotation("matrix contains non-finite entries")
    err, det = rotation_defects(R)
    if err > ROTATION_TOL:
        raise NotARotation(f"R^T R deviates from identity by {err:.3e}")
    if abs(det - 1.0) > ROTATION_TOL:
        raise NotARotation(f"determinant {float(det)} is not 1")
    return R


# Geometry multiplies 3-vectors and 3x3 matrices with the helpers below, not
# with BLAS: each entry is summed in index order, so its bits depend neither
# on the BLAS kernel the CPU selects nor on the rest of the batch.


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of broadcast 3-vector rows, ``[..., 3]`` -> ``[...]``."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vector rows: the same products and differences, so
    the same bits, without its per-call overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _matmul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for broadcast stacks whose inner dimension is 3."""
    return (
        a[..., :, 0, None] * b[..., None, 0, :]
        + a[..., :, 1, None] * b[..., None, 1, :]
        + a[..., :, 2, None] * b[..., None, 2, :]
    )


def sixd_gram_schmidt(a: np.ndarray, b: np.ndarray) -> tuple:
    """Gram-Schmidt on N pairs of raw columns a and b (N, 3): c1 = a/|a|, b's
    residual off c1, and |a| and |residual|; a pair is degenerate where either
    norm is below SIXD_EPSILON or not finite (a squared norm that overflows
    reads inf). A zero |a| or an overflow leaves NaN or inf, with no warning."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        na = np.sqrt(row_dots(a, a))
        c1 = a / na[:, None]
        b_perp = b - row_dots(c1, b)[:, None] * c1
        return c1, b_perp, na, np.sqrt(row_dots(b_perp, b_perp))


def rot6d_to_matrix_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram-Schmidt N pairs of raw columns, a and b (N, 3), into (N, 3, 3)
    rotation matrices; a degenerate pair raises for its first row."""
    c1, b_perp, na, nb = sixd_gram_schmidt(a, b)
    reject_first(
        na < SIXD_EPSILON,
        na,
        DegenerateSixD,
        f"first column norm {{}} below {SIXD_EPSILON}",
    )
    reject_first(~np.isfinite(na), na, DegenerateSixD, "first column norm {} is not finite")
    reject_first(
        nb < SIXD_EPSILON,
        nb,
        DegenerateSixD,
        "second column parallel to first (residual norm {})",
    )
    reject_first(~np.isfinite(nb), nb, DegenerateSixD, "second column residual norm {} is not finite")
    c2 = b_perp / nb[:, None]
    return np.stack([c1, c2, _cross(c1, c2)], axis=2)


def rot6d_to_matrix(r: Rot6D) -> np.ndarray:
    """:func:`rot6d_to_matrix_batch` for one 6D vector."""
    a = np.asarray(r.a, dtype=float).reshape(1, 3)
    b = np.asarray(r.b, dtype=float).reshape(1, 3)
    return rot6d_to_matrix_batch(a, b)[0]


def matrix_to_rot6d(R: np.ndarray) -> Rot6D:
    """First two columns of a valid rotation matrix."""
    R = validate_rotation(R)
    return Rot6D(R[:, 0].copy(), R[:, 1].copy())


def matrix_to_rot6d_batch(R: np.ndarray) -> np.ndarray:
    """First two columns, as (N, 6) rows [a, b], of N rotation matrices
    (N, 3, 3). The matrices are checked in order, and the first one that
    :func:`validate_rotation` rejects raises its error."""
    err, det = rotation_defects(R)
    for k in np.flatnonzero(~((err <= ROTATION_TOL) & (np.abs(det - 1.0) <= ROTATION_TOL))):
        validate_rotation(R[k])
    return np.concatenate([R[:, :, 0], R[:, :, 1]], axis=1)


def euler_to_matrix(e: EulerAngles) -> np.ndarray:
    cy, sy = math.cos(e.yaw), math.sin(e.yaw)
    cp, sp = math.cos(e.pitch), math.sin(e.pitch)
    cr, sr = math.cos(e.roll), math.sin(e.roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return _matmul3(_matmul3(rz, ry), rx)


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
    cos_theta = (np.trace(_matmul3(R1.T, R2)) - 1.0) / 2.0
    return math.acos(max(-1.0, min(1.0, cos_theta)))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


_CAMERA_Z = np.array([0.0, 0.0, 1.0])
# Slots of the flattened skew matrix [v]x that hold v0, v1, v2, -v0, -v1, -v2.
_SKEW_SLOTS = np.array([7, 2, 3, 5, 6, 1])


def view_rotation_batch(centers: np.ndarray) -> np.ndarray:
    """Minimal rotations taking the camera z-axis onto the rays toward N
    centers (N, 3), as (N, 3, 3) matrices.

    Used to move between viewing-ray-relative (allocentric) and camera-frame
    (egocentric) orientations. Every center must be in front of the camera.
    """
    n = np.sqrt(row_dots(centers, centers))
    reject_first(
        (n == 0.0) | (centers[:, 2] <= 0.0),
        centers,
        BehindCamera,
        "view ray requires a center with positive Z",
    )
    r = centers / n[:, None]
    v = _cross(_CAMERA_Z, r)
    cos_a = r[:, 2]
    s2 = row_dots(v, v)
    on_axis = s2 < 1e-30
    vx = np.zeros((len(v), 9))
    vx[:, _SKEW_SLOTS] = np.concatenate([v, -v], axis=1)
    vx = vx.reshape(-1, 3, 3)
    scale = np.divide(1.0 - cos_a, s2, out=np.zeros_like(s2), where=~on_axis)
    out = np.eye(3) + vx + _matmul3(vx, vx) * scale[:, None, None]
    if on_axis.any():
        out[on_axis] = np.eye(3)
    return out


def allocentric_to_egocentric_batch(R_alloc: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Camera-frame rotations (N, 3, 3) from viewing-ray-relative ones and their centers (N, 3)."""
    return _matmul3(view_rotation_batch(centers), R_alloc)


def allocentric_to_egocentric(R_alloc: np.ndarray, center) -> np.ndarray:
    """:func:`allocentric_to_egocentric_batch` for one rotation."""
    R = np.asarray(R_alloc, dtype=float).reshape(1, 3, 3)
    c = np.asarray(tuple(center), dtype=float).reshape(1, 3)
    return allocentric_to_egocentric_batch(R, c)[0]


def egocentric_to_allocentric_batch(R_ego: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Viewing-ray-relative rotations (N, 3, 3) from camera-frame ones and their centers (N, 3)."""
    return _matmul3(np.swapaxes(view_rotation_batch(centers), 1, 2), R_ego)
