"""Oriented 3D boxes, corner enumeration, and exact box-box IoU.

The exact path enumerates the vertices of the intersection polytope: the
corners of each box and the points where its edges cross the other box's
face planes, kept when inside both boxes. Each of the 12 face planes
collects the kept vertices on it, ordered by angle into a polygon, and the
volume is the sum of the cones from the vertex centroid over those
polygons. A yaw-only BEV path (footprint overlap times height overlap) is
the fast kernel for pairs of yaw-only boxes; it and a Monte-Carlo
estimator are independent cross-checks of the exact path.

Local box axes: length along x, width along y, height along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotYawOnly
from .rotation import validate_rotation

# Inside/on-plane band for vertices and 2D clipping; scene scale is <= 100 m.
CLIP_EPSILON = 1e-9
# Rotation entries that must vanish for the yaw-only fast path.
YAW_ONLY_TOL = 1e-9

# Corner i carries sign sx=+1 iff i&1, sy=+1 iff i&2, sz=+1 iff i&4 on the
# (L/2, W/2, H/2) offsets, so corner 0 is (-,-,-) and corner 7 is (+,+,+).
_CORNER_SIGNS = np.array(
    [[1.0 if i & 1 else -1.0, 1.0 if i & 2 else -1.0, 1.0 if i & 4 else -1.0] for i in range(8)]
)

# Box edges: corner-index pairs that differ in one sign bit.
_EDGES = np.array([(i, i | bit) for bit in (1, 2, 4) for i in range(8) if not i & bit])
# Face f lies across local axis f // 2, on its + side for even f; _IN_PLANE[f]
# are the two local axes that span it.
_FACE_SIGNS = np.array([[1.0], [-1.0]] * 3)
_IN_PLANE = np.array([[(f // 2 + 1) % 3, (f // 2 + 2) % 3] for f in range(6)])


@dataclass(frozen=True)
class OrientedBox3D:
    """3D box given by center (m), dims (L, W, H in m), and rotation matrix."""

    center: np.ndarray
    dims: np.ndarray
    rot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "dims", np.asarray(self.dims, dtype=float).reshape(3))
        object.__setattr__(self, "rot", np.asarray(self.rot, dtype=float).reshape(3, 3))
        if not np.all(self.dims > 0):
            raise ValueError(f"box dims must be positive, got {self.dims}")

    def validate(self) -> "OrientedBox3D":
        validate_rotation(self.rot)
        return self

    @property
    def volume(self) -> float:
        return float(self.dims[0] * self.dims[1] * self.dims[2])


def corners(box: OrientedBox3D) -> np.ndarray:
    """The 8 corners as an (8, 3) array, in the documented sign order."""
    offsets = _CORNER_SIGNS * (box.dims / 2.0)
    return box.center + offsets @ box.rot.T


def _face_planes(box: OrientedBox3D):
    """Outward unit normals (6, 3) and plane offsets (6,), ordered +x, -x, +y, -y, +z, -z."""
    normals = np.repeat(box.rot.T, 2, axis=0) * _FACE_SIGNS
    return normals, normals @ box.center + np.repeat(box.dims / 2.0, 2)


def _edge_cuts(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Points where the box edges between corners `pts` cross the given planes."""
    dist = pts @ normals.T - offsets
    dp, dq = dist[_EDGES[:, 0]], dist[_EDGES[:, 1]]
    edge, plane = np.nonzero(dp * dq < 0.0)
    t = dp[edge, plane] / (dp[edge, plane] - dq[edge, plane])
    p = pts[_EDGES[edge, 0]]
    return p + t[:, None] * (pts[_EDGES[edge, 1]] - p)


def _canonical_key(box: OrientedBox3D):
    return (tuple(box.center), tuple(box.dims), tuple(box.rot.ravel()))


def intersection_volume(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """Volume of the convex intersection of two oriented boxes.

    The argument pair is put in a canonical order first so the result is
    bitwise symmetric in (a, b).
    """
    if _canonical_key(b) < _canonical_key(a):
        a, b = b, a
    ca, cb = corners(a), corners(b)
    na, da = _face_planes(a)
    nb, db = _face_planes(b)
    pts = np.vstack([ca, cb, _edge_cuts(ca, nb, db), _edge_cuts(cb, na, da)])
    dist = pts @ np.vstack([na, nb]).T - np.concatenate([da, db])
    inside = np.all(dist <= CLIP_EPSILON, axis=1)
    pts, on = pts[inside], np.abs(dist[inside]) <= CLIP_EPSILON
    # Fewer than 4 vertices, or all on one plane: the intersection is flat.
    if len(pts) < 4 or on.all(axis=0).any():
        return 0.0
    # Two face planes that (nearly) coincide both collect the shared face, so
    # each face of a also yields the polygon of its vertices in common with
    # the most parallel face of b, counted negatively (inclusion-exclusion).
    # Planes that cross instead share a segment, which has no area.
    partner = 6 + np.argmax(na @ nb.T, axis=1)
    on = np.hstack([on, on[:, :6] & on[:, partner]])
    sign = np.repeat([1.0, -1.0], [12, 6])
    in_plane_a = a.rot.T[_IN_PLANE]
    axes = np.concatenate([in_plane_a, b.rot.T[_IN_PLANE], in_plane_a])
    count = on.sum(axis=0)
    faces = count >= 3
    on, axes, sign, count = on[:, faces].T, axes[faces], sign[faces], count[faces, None]
    # Each face polygon: its vertices relative to their mean, ordered by angle.
    mean = (on @ pts) / count
    rel = pts - mean[:, None]
    uv = rel @ axes.transpose(0, 2, 1)
    angle = np.where(on, np.arctan2(uv[..., 1], uv[..., 0]), np.inf)
    ring = rel[np.arange(len(rel))[:, None], np.argsort(angle, axis=1)]
    # Pad each ring with its first vertex, which closes it and adds nothing.
    ring = np.where((np.arange(len(pts)) < count)[..., None], ring, ring[:, :1])
    area = np.sum(np.cross(ring, np.roll(ring, -1, axis=1)), axis=1) / 2.0
    # Cone from the vertex centroid (inside the polytope) over each face.
    cones = np.sum(area * (mean - pts.mean(axis=0)), axis=1)
    return float(sign @ np.abs(cones)) / 3.0


def iou3d(a: OrientedBox3D, b: OrientedBox3D) -> float:
    inter = intersection_volume(a, b)
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def is_yaw_only(box: OrientedBox3D) -> bool:
    """True when the rotation has no pitch/roll terms (within YAW_ONLY_TOL),
    so the box's footprint and height extent separate."""
    R = box.rot.tolist()
    return (
        abs(R[2][0]) <= YAW_ONLY_TOL
        and abs(R[2][1]) <= YAW_ONLY_TOL
        and abs(R[0][2]) <= YAW_ONLY_TOL
        and abs(R[1][2]) <= YAW_ONLY_TOL
    )


def _require_yaw_only(box: OrientedBox3D) -> float:
    if not is_yaw_only(box):
        R = box.rot
        terms = ", ".join(f"{float(e):.3e}" for e in (R[2, 0], R[2, 1], R[0, 2], R[1, 2]))
        raise NotYawOnly(f"rotation has out-of-plane terms ({terms})")
    return math.atan2(box.rot[1, 0], box.rot[0, 0])


# The BEV path holds 2D points as (x, y) float tuples: per-call numpy
# overhead on 2-vectors costs more than the arithmetic it does.


def _footprint(box: OrientedBox3D, yaw: float) -> list:
    c, s = math.cos(yaw), math.sin(yaw)
    length, width, _ = box.dims.tolist()
    hl, hw = length / 2.0, width / 2.0
    cx, cy, _ = box.center.tolist()
    pts = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    poly = [(cx + c * x - s * y, cy + s * x + c * y) for x, y in pts]
    if _signed_area(poly) < 0:
        poly.reverse()
    return poly


def _signed_area(poly: list) -> float:
    area = 0.0
    for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]):
        area += px * qy - qx * py
    return area / 2.0


def _clip_convex_2d(subject: list, clipper: list) -> list:
    # Both polygons CCW; clip subject against each clipper edge half-plane.
    result = subject
    for a, b in zip(clipper, clipper[1:] + clipper[:1]):
        if not result:
            return []
        ax, ay = a
        ex, ey = b[0] - ax, b[1] - ay
        inside = [ex * (py - ay) - ey * (px - ax) >= -CLIP_EPSILON for px, py in result]
        out = []
        for p, q, p_in, q_in in zip(result, result[1:] + result[:1], inside, inside[1:] + inside[:1]):
            if p_in:
                out.append(p)
                if not q_in:
                    out.append(_edge_intersection(p, q, a, b))
            elif q_in:
                out.append(_edge_intersection(p, q, a, b))
        result = out
    return result


def _edge_intersection(p, q, a, b):
    rx, ry = q[0] - p[0], q[1] - p[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    denom = rx * sy - ry * sx
    t = ((a[0] - p[0]) * sy - (a[1] - p[1]) * sx) / denom
    return (p[0] + t * rx, p[1] + t * ry)


def iou3d_bev_yaw(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """Fast IoU for yaw-only boxes: footprint polygon overlap x height overlap.

    Raises NotYawOnly unless both rotations are pure rotations about z.
    """
    yaw_a = _require_yaw_only(a)
    yaw_b = _require_yaw_only(b)
    inter_poly = _clip_convex_2d(_footprint(a, yaw_a), _footprint(b, yaw_b))
    area = abs(_signed_area(inter_poly)) if len(inter_poly) >= 3 else 0.0
    za, ha = float(a.center[2]), float(a.dims[2])
    zb, hb = float(b.center[2]), float(b.dims[2])
    dz = max(0.0, min(za + ha / 2.0, zb + hb / 2.0) - max(za - ha / 2.0, zb - hb / 2.0))
    inter = area * dz
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _points_inside(box: OrientedBox3D, points: np.ndarray) -> np.ndarray:
    local = np.abs((points - box.center) @ box.rot)
    hl, hw, hh = box.dims / 2.0
    return (local[:, 0] <= hl) & (local[:, 1] <= hw) & (local[:, 2] <= hh)


def iou3d_monte_carlo(a: OrientedBox3D, b: OrientedBox3D, samples: int, seed: int) -> float:
    """Rejection-sampling IoU estimate over the pair's bounding hull.

    Deterministic for a fixed seed; the independent oracle for the exact
    path.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    all_corners = np.vstack([corners(a), corners(b)])
    lo = all_corners.min(axis=0)
    hi = all_corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(samples, 3))
    in_a = _points_inside(a, pts)
    in_b = _points_inside(b, pts)
    n_union = int(np.count_nonzero(in_a | in_b))
    if n_union == 0:
        return 0.0
    return float(np.count_nonzero(in_a & in_b)) / n_union
