"""Oriented 3D boxes, corner enumeration, and exact box-box IoU.

The exact path enumerates the vertices of the intersection polytope: the
corners of each box and the points where its edges cross the other box's
face planes, kept when inside both boxes. Each of the 12 face planes
collects the kept vertices on it, ordered by angle into a polygon, and the
volume is the sum of the cones from the vertex centroid over those
polygons. A yaw-only BEV path (footprint overlap times height overlap) is
the fast kernel for pairs of yaw-only boxes; it and a Monte-Carlo
estimator are independent cross-checks of the exact path.

Both IoU kernels score N pairs at once, and their one-pair functions are
the N = 1 case with the same bits. The exact kernel runs in two stages:
stage 1 finds every pair's kept vertices on a fixed set of 160 candidates,
and stage 2 builds the faces of the pairs with a solid intersection, in
groups of equal vertex and face counts. Stacked products keep the shape
they have for one pair, because the bits of a BLAS product depend on its
shape.

Local box axes: length along x, width along y, height along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotYawOnly, reject_first
from .rotation import _cross, validate_rotation

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
# The exact kernel's 18 faces per pair: the 6 of its first box, the 6 of its
# second, then the 6 polygons that the first box's faces share with their
# partner faces, subtracted. Face c lies on box _FACE_BOX[c], spanned by its
# local axes _FACE_AXES[c].
_FACE_SIGN = np.repeat([1.0, -1.0], [12, 6])
_FACE_BOX = np.repeat([0, 1, 0], 6)
_FACE_AXES = np.tile(_IN_PLANE, (3, 1))
# Stage 1 of the exact kernel runs on at most this many pairs at once.
_CHUNK = 64


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

    @staticmethod
    def of(box: OrientedBox3D) -> "BoxBatch":
        """The one box as a batch of one."""
        return BoxBatch(box.center[None], box.dims[None], box.rot[None])

    def box(self, i: int) -> OrientedBox3D:
        return OrientedBox3D(self.center[i], self.dims[i], self.rot[i])

    def take(self, rows) -> "BoxBatch":
        return BoxBatch(self.center[rows], self.dims[rows], self.rot[rows])

    @property
    def volume(self) -> np.ndarray:
        return self.dims.prod(axis=1)


def _corners(center: np.ndarray, dims: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """The 8 corners of N boxes as (N, 8, 3), in the documented sign order."""
    return center[:, None] + (_CORNER_SIGNS * (dims[:, None] / 2.0)) @ rot.transpose(0, 2, 1)


def corners(box: OrientedBox3D) -> np.ndarray:
    """The 8 corners as an (8, 3) array, in the documented sign order."""
    return _corners(box.center[None], box.dims[None], box.rot[None])[0]


def _edge_cuts(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray):
    """Where the 12 edges between the corners pts (N, 8, 3) of each box cross
    the 6 planes given for it: (N, 12, 6, 3) points and a mask of the
    (edge, plane) pairs that do cross."""
    dist = pts @ normals.transpose(0, 2, 1) - offsets[:, None]
    dp, dq = dist[:, _EDGES[:, 0]], dist[:, _EDGES[:, 1]]
    cross = dp * dq < 0.0
    # Only a crossing pair divides; the others take the finite t = 0.
    t = np.where(cross, dp, 0.0) / np.where(cross, dp - dq, 1.0)
    p = pts[:, _EDGES[:, 0], None]
    return p + t[..., None] * (pts[:, _EDGES[:, 1], None] - p), cross


def _canonical_pairs(a: BoxBatch, b: BoxBatch) -> np.ndarray:
    """Each pair as (N, 2, 15) rows of (center, dims, row-major rot), the box
    whose row compares lower as a tuple first, so that results are bitwise
    symmetric in (a, b). Inputs hold no NaN, and -0.0 == 0.0 as in tuples."""
    n = len(a.center)
    keys = np.concatenate(
        [a.center, a.dims, a.rot.reshape(n, 9), b.center, b.dims, b.rot.reshape(n, 9)], axis=1
    ).reshape(n, 2, 15)
    rows = np.arange(n)
    first = (keys[:, 0] != keys[:, 1]).argmax(axis=1)
    swap = keys[rows, 1, first] < keys[rows, 0, first]
    return np.where(swap[:, None, None], keys[:, ::-1], keys)


def _polytope_vertices(pairs: np.ndarray):
    """Stage 1 of the exact kernel, for (N, 2, 15) canonical pairs.

    Each pair has a fixed set of 160 candidate vertices: the 8 corners of
    each box, then the 72 points where the first box's edges cross the
    second box's face planes, then the 72 the other way. A candidate is
    kept when it exists and lies inside all 12 half-spaces within
    CLIP_EPSILON. Returns the candidates (N, 160, 3), the keep mask
    (N, 160), the on-plane mask (N, 160, 12) over the first box's faces then
    the second's, and the face normals (N, 12, 3).
    """
    boxes = pairs.reshape(-1, 15)
    center, dims, rot = boxes[:, :3], boxes[:, 3:6], boxes[:, 6:].reshape(-1, 3, 3)
    pts = _corners(center, dims, rot)
    # Outward unit normals ordered +x, -x, +y, -y, +z, -z, and plane offsets.
    normals = np.repeat(rot.transpose(0, 2, 1), 2, axis=1) * _FACE_SIGNS
    offsets = (normals @ center[..., None])[..., 0] + np.repeat(dims / 2.0, 2, axis=1)
    # Box 2i is the first box of pair i and box 2i + 1 its second: each
    # box's edges meet the planes of the other box of its pair.
    other = np.arange(len(boxes)) ^ 1
    cuts, cross = _edge_cuts(pts, normals[other], offsets[other])
    n = len(pairs)
    pts = np.concatenate([pts.reshape(n, 16, 3), cuts.reshape(n, 144, 3)], axis=1)
    normals = normals.reshape(n, 12, 3)
    dist = pts @ normals.transpose(0, 2, 1) - offsets.reshape(n, 1, 12)
    keep = np.concatenate([np.ones((n, 16), bool), cross.reshape(n, 144)], axis=1)
    keep &= (dist <= CLIP_EPSILON).all(axis=2)
    return pts, keep, np.abs(dist) <= CLIP_EPSILON, normals


def _face_cones(pts: np.ndarray, on: np.ndarray, axes: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Stage 2 of the exact kernel, for G pairs that share their kept vertex
    count K and face count F: the signed volume of the cone from the vertex
    centroid over each face polygon, as (G, F).

    pts (G, K, 3) are the kept vertices, on (G, F, K) says which lie on each
    face, axes (G, F, 2, 3) are the face's two in-plane axes and count
    (G, F) its vertex count. Every product has the shape it has for one
    pair, because the bits of a BLAS product depend on its shape.
    """
    g, f, k = on.shape
    count = count[..., None]
    # Each face polygon: its vertices relative to their mean, ordered by
    # angle. The mask goes in as a C-contiguous float array, the copy numpy
    # makes when it casts a bool operand: another layout takes another BLAS
    # path, with other bits.
    mean = (np.ascontiguousarray(on, dtype=float) @ pts) / count
    rel = (pts[:, None] - mean[:, :, None]).reshape(g * f, k, 3)
    uv = rel @ axes.reshape(g * f, 2, 3).transpose(0, 2, 1)
    angle = np.where(on.reshape(g * f, k), np.arctan2(uv[..., 1], uv[..., 0]), np.inf)
    ring = rel[np.arange(g * f)[:, None], angle.argsort(axis=1)]
    # Pad each ring with its first vertex, which closes it and adds nothing.
    ring = np.where((np.arange(k) < count.reshape(-1, 1))[..., None], ring, ring[:, :1])
    following = np.concatenate([ring[:, 1:], ring[:, :1]], axis=1)
    area = _cross(ring, following).sum(axis=1).reshape(g, f, 3) / 2.0
    # Cone from the vertex centroid (inside the polytope) over each face.
    return (area * (mean - (pts.sum(axis=1) / k)[:, None])).sum(axis=2)


def intersection_volume_batch(a: BoxBatch, b: BoxBatch) -> np.ndarray:
    """Volumes of the convex intersections of N pairs of oriented boxes, as
    an (N,) array; each is bitwise symmetric in its pair."""
    pairs = _canonical_pairs(a, b)
    volume = np.zeros(len(pairs))
    # Stage 1 runs on a bounded number of pairs at a time, which bounds its
    # scratch memory. Fewer than 4 kept vertices make a flat intersection.
    found = []
    for lo in range(0, len(pairs), _CHUNK):
        pts, keep, on, normals = _polytope_vertices(pairs[lo:lo + _CHUNK])
        count = keep.sum(axis=1)
        live = count >= 4
        if live.any():
            keep &= live[:, None]
            found.append((lo + live.nonzero()[0], count[live], pts[keep], on[keep], normals[live]))
    if not found:
        return volume
    # Stage 2 on the kept vertices of the pairs left, pair after pair, each
    # in candidate order.
    rows, count, pts, on, normals = map(np.concatenate, zip(*found))
    # Two face planes that (nearly) coincide both collect the shared face, so
    # each face of the first box also yields the polygon of its vertices in
    # common with the most parallel face of the second, counted negatively
    # (inclusion-exclusion). Planes that cross instead share a segment,
    # which has no area.
    partner = 6 + (normals[:, :6] @ normals[:, 6:].transpose(0, 2, 1)).argmax(axis=2)
    pair_of = np.repeat(np.arange(len(rows)), count)
    shared = on[:, :6] & on[np.arange(len(on))[:, None], partner[pair_of]]
    on = np.concatenate([on, shared], axis=1)
    start = np.cumsum(count) - count
    face_count = np.add.reduceat(on, start, axis=0, dtype=np.intp)
    faces = face_count >= 3
    rot_t = pairs[rows, :, 6:].reshape(-1, 2, 3, 3).transpose(0, 1, 3, 2)
    # Pairs with equal vertex and face counts go through stage 2 together.
    # Key 0 marks a pair whose kept vertices all lie on one plane: its
    # intersection is flat.
    flat = (face_count[:, :12] == count[:, None]).any(axis=1)
    group = np.where(flat, 0, count * 32 + faces.sum(axis=1))
    for key in sorted(set(group.tolist()) - {0}):
        members = (group == key).nonzero()[0]
        k, f = divmod(key, 32)
        cols = faces[members].nonzero()[1].reshape(-1, f)
        vertex = start[members, None] + np.arange(k)
        cones = _face_cones(
            pts[vertex],
            on[vertex[:, None], cols[..., None]],
            rot_t[members[:, None, None], _FACE_BOX[cols][..., None], _FACE_AXES[cols]],
            face_count[members[:, None], cols],
        )
        volume[rows[members]] = (_FACE_SIGN[cols][:, None] @ np.abs(cones)[..., None])[:, 0, 0] / 3.0
    return volume


def intersection_volume(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """Volume of the convex intersection of two oriented boxes:
    :func:`intersection_volume_batch` for one pair."""
    return float(intersection_volume_batch(BoxBatch.of(a), BoxBatch.of(b))[0])


def _iou(inter: np.ndarray, a: BoxBatch, b: BoxBatch) -> np.ndarray:
    """IoU from N intersection volumes, clamped to [0, 1]; 0 for an empty union."""
    union = a.volume + b.volume - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(np.maximum(inter / union, 0.0), 1.0)
    return np.where(union <= 0.0, 0.0, iou)


def iou3d_batch(a: BoxBatch, b: BoxBatch) -> np.ndarray:
    """Exact IoU of N pairs of oriented boxes, as an (N,) array."""
    return _iou(intersection_volume_batch(a, b), a, b)


def iou3d(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """:func:`iou3d_batch` for one pair."""
    return float(iou3d_batch(BoxBatch.of(a), BoxBatch.of(b))[0])


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
    return _iou(area * dz, a, b)


def iou3d_bev_yaw(a: OrientedBox3D, b: OrientedBox3D) -> float:
    """:func:`iou3d_bev_yaw_batch` for one pair."""
    return float(iou3d_bev_yaw_batch(BoxBatch.of(a), BoxBatch.of(b))[0])


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
