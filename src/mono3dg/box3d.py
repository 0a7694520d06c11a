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

from .errors import NotYawOnly, reject_first
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
        length, width, height = self.dims.tolist()
        if not (length > 0 and width > 0 and height > 0):
            raise ValueError(f"box dims must be positive, got {self.dims}")

    def validate(self) -> "OrientedBox3D":
        validate_rotation(self.rot)
        return self

    @property
    def volume(self) -> float:
        return float(self.dims[0] * self.dims[1] * self.dims[2])


@dataclass(frozen=True)
class BoxBatch:
    """N oriented boxes as columns: centers (N, 3), dims (N, 3), rotations (N, 3, 3)."""

    center: np.ndarray
    dims: np.ndarray
    rot: np.ndarray

    def __post_init__(self):
        reject_first(
            ~(self.dims > 0).all(axis=1),
            self.dims,
            lambda dims: ValueError(f"box dims must be positive, got {dims}"),
        )

    @staticmethod
    def stack(boxes) -> "BoxBatch":
        boxes = list(boxes)
        return BoxBatch(
            np.array([b.center for b in boxes]).reshape(-1, 3),
            np.array([b.dims for b in boxes]).reshape(-1, 3),
            np.array([b.rot for b in boxes]).reshape(-1, 3, 3),
        )

    def box(self, i: int) -> OrientedBox3D:
        return OrientedBox3D(self.center[i], self.dims[i], self.rot[i])

    def take(self, rows) -> "BoxBatch":
        return BoxBatch(self.center[rows], self.dims[rows], self.rot[rows])

    @property
    def volume(self) -> np.ndarray:
        return self.dims[:, 0] * self.dims[:, 1] * self.dims[:, 2]


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


def yaw_only(rot: np.ndarray) -> np.ndarray:
    """Which rotations of an (N, 3, 3) stack have no pitch/roll terms (within
    YAW_ONLY_TOL), so that their box's footprint and height extent separate."""
    return (np.abs(rot[:, [2, 2, 0, 1], [0, 1, 2, 2]]) <= YAW_ONLY_TOL).all(axis=1)


def is_yaw_only(box: OrientedBox3D) -> bool:
    """:func:`yaw_only` for one box."""
    return bool(yaw_only(box.rot[None])[0])


def _require_yaw_only(boxes) -> None:
    """Raise NotYawOnly for the first box that is not yaw-only; boxes is one
    OrientedBox3D or a BoxBatch."""
    def error(R):
        terms = ", ".join(f"{float(e):.3e}" for e in (R[2, 0], R[2, 1], R[0, 2], R[1, 2]))
        return NotYawOnly(f"rotation has out-of-plane terms ({terms})")

    rot = boxes.rot.reshape(-1, 3, 3)
    reject_first(~yaw_only(rot), rot, error)


# The BEV kernel clips N footprint pairs at once. Polygons are (N, K) x and
# y columns plus a vertex count per row; the slots past a row's count are
# ignored. The arithmetic, and the order of every sum, is that of clipping
# one pair at a time, so each row's result has the same bits.


def _footprints(boxes: BoxBatch):
    """Counter-clockwise footprint corners of yaw-only boxes, as (N, 4) x and y."""
    R = boxes.rot
    yaw = [math.atan2(s, c) for s, c in zip(R[:, 1, 0].tolist(), R[:, 0, 0].tolist())]
    c = np.array([math.cos(t) for t in yaw])[:, None]
    s = np.array([math.sin(t) for t in yaw])[:, None]
    hl, hw = boxes.dims[:, 0] / 2.0, boxes.dims[:, 1] / 2.0
    x = np.stack([hl, -hl, -hl, hl], axis=1)
    y = np.stack([hw, hw, -hw, -hw], axis=1)
    px = boxes.center[:, 0, None] + c * x - s * y
    py = boxes.center[:, 1, None] + s * x + c * y
    clockwise = (_signed_areas(px, py, np.full(len(px), 4)) < 0)[:, None]
    return np.where(clockwise, px[:, ::-1], px), np.where(clockwise, py[:, ::-1], py)


def _following(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each slot's value at the next vertex, wrapping at the row's count."""
    slots = (np.arange(values.shape[1]) + 1) % np.maximum(count, 1)[:, None]
    return np.take_along_axis(values, slots, 1)


def _signed_areas(px, py, count) -> np.ndarray:
    terms = px * _following(py, count) - _following(px, count) * py
    area = np.zeros(len(px))
    for k in range(px.shape[1]):
        area = np.where(k < count, area + terms[:, k], area)
    return area / 2.0


def _clip_convex_2d(px, py, count, clip_x, clip_y):
    """Sutherland-Hodgman: clip each subject polygon against the matching
    clipper polygon (both CCW, the clipper (N, 4)), one clipper edge at a time."""
    for e in range(clip_x.shape[1]):
        ax, ay = clip_x[:, e, None], clip_y[:, e, None]
        f = (e + 1) % clip_x.shape[1]
        ex, ey = clip_x[:, f, None] - ax, clip_y[:, f, None] - ay
        valid = np.arange(px.shape[1]) < count[:, None]
        inside = ex * (py - ay) - ey * (px - ax) >= -CLIP_EPSILON
        q_inside = _following(inside, count)
        # Where the edge p -> q crosses the clipper edge's line.
        rx, ry = _following(px, count) - px, _following(py, count) - py
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((ax - px) * ey - (ay - py) * ex) / (rx * ey - ry * ex)
            cut_x, cut_y = px + t * rx, py + t * ry
        # Each slot emits its vertex if inside, then the crossing if p and q
        # lie on opposite sides.
        keep = valid & inside
        cut = valid & (inside != q_inside)
        emitted = keep.astype(int) + cut
        start = np.cumsum(emitted, axis=1) - emitted
        count = emitted.sum(axis=1)
        out_x = np.zeros((len(px), max(int(count.max(initial=0)), 1)))
        out_y = np.zeros_like(out_x)
        for mask, pos, vx, vy in ((keep, start, px, py), (cut, start + keep, cut_x, cut_y)):
            row, slot = np.nonzero(mask)
            out_x[row, pos[row, slot]] = vx[row, slot]
            out_y[row, pos[row, slot]] = vy[row, slot]
        px, py = out_x, out_y
    return px, py, count


def iou3d_bev_yaw_batch(a: BoxBatch, b: BoxBatch) -> np.ndarray:
    """Fast IoU for N pairs of yaw-only boxes: footprint polygon overlap x
    height overlap, as an (N,) array.

    Raises NotYawOnly for the first box whose rotation is not a pure
    rotation about z.
    """
    _require_yaw_only(a)
    _require_yaw_only(b)
    ax, ay = _footprints(a)
    bx, by = _footprints(b)
    px, py, count = _clip_convex_2d(ax, ay, np.full(len(ax), 4), bx, by)
    area = np.where(count >= 3, np.abs(_signed_areas(px, py, count)), 0.0)
    za, ha = a.center[:, 2], a.dims[:, 2]
    zb, hb = b.center[:, 2], b.dims[:, 2]
    top = np.minimum(za + ha / 2.0, zb + hb / 2.0)
    dz = np.maximum(0.0, top - np.maximum(za - ha / 2.0, zb - hb / 2.0))
    inter = area * dz
    union = a.volume + b.volume - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(np.maximum(inter / union, 0.0), 1.0)
    return np.where(union <= 0.0, 0.0, iou)


def iou3d_bev_yaw(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """:func:`iou3d_bev_yaw_batch` for one pair."""
    return float(iou3d_bev_yaw_batch(BoxBatch.stack([a]), BoxBatch.stack([b]))[0])


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
