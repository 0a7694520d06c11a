"""Oriented 3D boxes, corner enumeration, and exact box-box IoU.

The general IoU path clips one box's polytope against the other's six face
half-spaces (Sutherland-Hodgman per face, plus a cap polygon on each cut
plane) and integrates the volume with signed tetrahedra. A yaw-only BEV
path (footprint overlap times height overlap) is the fast kernel for pairs
of yaw-only boxes; it and a Monte-Carlo estimator are independent
cross-checks of the general path.

Local box axes: length along x, width along y, height along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotYawOnly
from .rotation import validate_rotation

# On-plane classification band for clipping; scene scale is <= 100 m.
CLIP_EPSILON = 1e-9
# Rotation entries that must vanish for the yaw-only fast path.
YAW_ONLY_TOL = 1e-9

# Corner i carries sign sx=+1 iff i&1, sy=+1 iff i&2, sz=+1 iff i&4 on the
# (L/2, W/2, H/2) offsets, so corner 0 is (-,-,-) and corner 7 is (+,+,+).
_CORNER_SIGNS = np.array(
    [[1.0 if i & 1 else -1.0, 1.0 if i & 2 else -1.0, 1.0 if i & 4 else -1.0] for i in range(8)]
)

# Outward-oriented faces over the corner indices above.
_FACE_CYCLES = (
    (1, 3, 7, 5),  # +x
    (0, 4, 6, 2),  # -x
    (2, 6, 7, 3),  # +y
    (0, 1, 5, 4),  # -y
    (4, 5, 7, 6),  # +z
    (0, 2, 3, 1),  # -z
)


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


@dataclass
class ConvexPolytope:
    """Convex polytope as a vertex list plus outward-oriented face cycles."""

    vertices: np.ndarray
    faces: list = field(default_factory=list)

    @staticmethod
    def from_face_polygons(polygons: list) -> "ConvexPolytope":
        verts: list = []
        faces = []
        for poly in polygons:
            cycle = []
            for p in poly:
                for i, q in enumerate(verts):
                    if np.max(np.abs(q - p)) <= CLIP_EPSILON:
                        cycle.append(i)
                        break
                else:
                    verts.append(np.asarray(p, dtype=float))
                    cycle.append(len(verts) - 1)
            faces.append(cycle)
        vertex_array = np.array(verts) if verts else np.zeros((0, 3))
        return ConvexPolytope(vertex_array, faces)

    def face_polygons(self) -> list:
        return [[self.vertices[i] for i in cycle] for cycle in self.faces]

    def volume(self) -> float:
        return _volume_of_polygons(self.face_polygons())

    def is_convex(self, tol: float = CLIP_EPSILON) -> bool:
        """Every vertex on or inside every face plane (within tol)."""
        for poly in self.face_polygons():
            if len(poly) < 3:
                return False
            n = _polygon_normal(poly)
            d = float(n @ poly[0])
            if np.any(self.vertices @ n - d > tol):
                return False
        return True


def box_polytope(box: OrientedBox3D) -> ConvexPolytope:
    c = corners(box)
    return ConvexPolytope(c, [list(cycle) for cycle in _FACE_CYCLES])


def _polygon_normal(poly) -> np.ndarray:
    # Newell's method: robust for near-degenerate polygons.
    n = np.zeros(3)
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        n[0] += (p[1] - q[1]) * (p[2] + q[2])
        n[1] += (p[2] - q[2]) * (p[0] + q[0])
        n[2] += (p[0] - q[0]) * (p[1] + q[1])
    norm = np.linalg.norm(n)
    return n / norm if norm > 0 else n


def _volume_of_polygons(polygons: list) -> float:
    pts = [p for poly in polygons for p in poly]
    if not pts:
        return 0.0
    centroid = np.mean(np.array(pts), axis=0)
    total = 0.0
    for poly in polygons:
        if len(poly) < 3:
            continue
        p0 = poly[0] - centroid
        for i in range(1, len(poly) - 1):
            total += np.dot(p0, np.cross(poly[i] - centroid, poly[i + 1] - centroid))
    return max(total / 6.0, 0.0)


def _clip_polygon(poly: list, normal: np.ndarray, offset: float) -> list:
    """Sutherland-Hodgman: keep the part of poly with normal.x <= offset."""
    out: list = []
    dists = [float(normal @ p) - offset for p in poly]
    k = len(poly)
    for i in range(k):
        p, dp = poly[i], dists[i]
        q, dq = poly[(i + 1) % k], dists[(i + 1) % k]
        p_in = dp <= CLIP_EPSILON
        q_in = dq <= CLIP_EPSILON
        if p_in:
            out.append(poly[i])
            if not q_in:
                t = dp / (dp - dq)
                out.append(p + t * (q - p))
        elif q_in:
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return out


def _clip_faces_halfspace(polygons: list, normal: np.ndarray, offset: float) -> list:
    """Clip a closed face set against {x : normal.x <= offset}, re-capping the cut."""
    all_d = [float(normal @ p) - offset for poly in polygons for p in poly]
    if all(d <= CLIP_EPSILON for d in all_d):
        return polygons
    if all(d >= -CLIP_EPSILON for d in all_d):
        return []
    clipped = []
    cap_points: list = []
    for poly in polygons:
        res = _clip_polygon(poly, normal, offset)
        if len(res) >= 3:
            clipped.append(res)
            for p in res:
                if abs(float(normal @ p) - offset) <= 10 * CLIP_EPSILON:
                    cap_points.append(p)
    cap = _build_cap(cap_points, normal)
    if cap is not None:
        clipped.append(cap)
    return clipped


def _build_cap(points: list, normal: np.ndarray) -> list | None:
    # Dedupe, then order the (convex) cap boundary by angle around its centroid.
    unique: list = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= 10 * CLIP_EPSILON for q in unique):
            unique.append(p)
    if len(unique) < 3:
        return None
    centroid = np.mean(np.array(unique), axis=0)
    axis = np.argmin(np.abs(normal))
    e1 = np.zeros(3)
    e1[axis] = 1.0
    e1 = e1 - (e1 @ normal) * normal
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    angles = [math.atan2(float((p - centroid) @ e2), float((p - centroid) @ e1)) for p in unique]
    ordered = [unique[i] for i in np.argsort(angles)]
    # Angular order around (e1, e2) winds counter-clockwise seen from +normal,
    # which is the outward side of the cap.
    return ordered


def _box_halfspaces(box: OrientedBox3D):
    half = box.dims / 2.0
    for k in range(3):
        axis = box.rot[:, k]
        center_proj = float(axis @ box.center)
        yield axis, center_proj + half[k]
        yield -axis, -(center_proj - half[k])


def _canonical_key(box: OrientedBox3D):
    return (tuple(box.center), tuple(box.dims), tuple(box.rot.ravel()))


def intersection_volume(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """Volume of the convex intersection of two oriented boxes.

    The argument pair is put in a canonical order first so the result is
    bitwise symmetric in (a, b).
    """
    if _canonical_key(b) < _canonical_key(a):
        a, b = b, a
    polygons = box_polytope(a).face_polygons()
    for normal, offset in _box_halfspaces(b):
        polygons = _clip_faces_halfspace(polygons, normal, offset)
        if not polygons:
            return 0.0
    return _volume_of_polygons(polygons)


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
    local = (points - box.center) @ box.rot
    return np.all(np.abs(local) <= box.dims / 2.0, axis=1)


def iou3d_monte_carlo(a: OrientedBox3D, b: OrientedBox3D, samples: int, seed: int) -> float:
    """Rejection-sampling IoU estimate over the pair's bounding hull.

    Deterministic for a fixed seed; the independent oracle for the exact
    clipping path.
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
