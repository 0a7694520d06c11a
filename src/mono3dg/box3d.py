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
the N = 1 case with the same bits. The exact kernel runs on chunks of pairs
in two stages: stage 1 finds every pair's kept vertices on a fixed set of
160 candidates, skipping the pairs whose bounding spheres lie apart, and
stage 2 builds the faces of the pairs with a solid intersection, their
vertices padded to the chunk's largest count. Products are elementwise and
sums run in index order with padding that adds -0.0, so each pair's bits
depend on that pair alone.

Local box axes: length along x, width along y, height along z.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotYawOnly, ShapeMismatch, reject_first
from .rotation import _cross, _matmul3, row_dots

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
# Face f lies across local axis f // 2, on its + side for even f.
_FACE_SIGNS = np.array([[1.0], [-1.0]] * 3)
# A pair's 144 cut candidates: an edge of one box, from corner _CUTS[:, 0] to
# corner _CUTS[:, 1] of the pair's 16, crossing face plane _CUTS[:, 2] of the
# pair's 12, of the other box. The first box's edges come first.
_CUTS = np.array(
    [(8 * box + p, 8 * box + q, 6 * (1 - box) + j) for box in (0, 1) for p, q in _EDGES for j in range(6)]
)
# The exact kernel's 18 faces per pair: the 6 of its first box, the 6 of its
# second, then the 6 polygons that the first box's faces share with their
# partner faces, subtracted. Face c is spanned by the + normals _FACE_SPAN[c]
# of its box, among the pair's 12.
_FACE_SIGN = np.repeat([1.0, -1.0], [12, 6])
_FACE_SPAN = np.array(
    [[6 * box + 2 * ((f // 2 + 1) % 3), 6 * box + 2 * ((f // 2 + 2) % 3)] for box in (0, 1, 0) for f in range(6)]
)
# The exact kernel runs on at most this many pairs at once.
_CHUNK = 64
# Stage 1 skips a pair whose bounding spheres lie more than this far apart
# (m): no point then lies within CLIP_EPSILON of both boxes, so the pair
# keeps no vertex.
_SPHERE_GAP = 1e-6


# A box is a float64 (15,) row and a batch of N boxes an (N, 15) array of
# rows, the layout of files and tables: center, dims (L, W, H) and the
# row-major rotation, at these slots.
BOX_WIDTH = 15
CENTER, DIMS, ROT = slice(0, 3), slice(3, 6), slice(6, BOX_WIDTH)
# The rot slots of R[2, 0], R[2, 1], R[0, 2] and R[1, 2], which vanish for a
# rotation about z alone.
_OUT_OF_PLANE = [12, 13, 8, 11]


def check_dims(rows: np.ndarray) -> np.ndarray:
    """rows, once no row has a dim that is not positive; raises ValueError
    for the first that has."""
    dims = rows[:, DIMS]
    reject_first(~(dims > 0).all(axis=1), dims, ValueError, "box dims must be positive, got {}")
    return rows


def box_row(box) -> np.ndarray:
    """One box as a float64 (15,) row; raises ShapeMismatch for any other
    shape, and ValueError for a dim that is not positive."""
    row = np.asarray(box, dtype=float)
    if row.shape != (BOX_WIDTH,):
        raise ShapeMismatch(f"box {row.shape} vs ({BOX_WIDTH},)")
    return check_dims(row[None])[0]


def _corners(rows: np.ndarray) -> np.ndarray:
    """The 8 corners of N boxes, given as (N, 15) rows, as (N, 8, 3), in
    the documented sign order."""
    rot_t = rows[:, ROT].reshape(-1, 3, 3).transpose(0, 2, 1)
    return rows[:, None, CENTER] + _matmul3(_CORNER_SIGNS * (rows[:, None, DIMS] / 2.0), rot_t)


def corners(box: np.ndarray) -> np.ndarray:
    """The 8 corners of one box row as an (8, 3) array, in the documented
    sign order."""
    return _corners(box_row(box)[None])[0]


def _canonical_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each pair of rows as (N, 2, 15), the row that compares lower as a
    tuple first, so that results are bitwise symmetric in (a, b). Inputs
    hold no NaN, and -0.0 == 0.0 as in tuples."""
    keys = np.stack([a, b], axis=1)
    rows = np.arange(len(keys))
    first = (keys[:, 0] != keys[:, 1]).argmax(axis=1)
    swap = keys[rows, 1, first] < keys[rows, 0, first]
    return np.where(swap[:, None, None], keys[:, ::-1], keys)


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along one axis strictly in index order. ``ndarray.sum`` may add
    pairwise, in an order that depends on the padded length."""
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis)


def _polytope_vertices(pairs: np.ndarray):
    """Stage 1 of the exact kernel, for (N, 2, 15) canonical pairs.

    Each pair has a fixed list of 160 candidate vertices: the 8 corners of
    each box, then the 72 points where the first box's edges cross the
    second box's face planes, then the 72 the other way. A candidate is
    kept when it exists and lies inside all 12 half-spaces within
    CLIP_EPSILON. Returns each pair's kept vertices in candidate order,
    padded to the largest count K, as (N, K, 3); their on-plane mask
    (N, K, 12) over the first box's faces then the second's, false past a
    pair's count; the counts (N,); and the face normals (N, 12, 3).
    """
    n = len(pairs)
    boxes = pairs.reshape(-1, BOX_WIDTH)
    center, dims, rot = boxes[:, CENTER], boxes[:, DIMS], boxes[:, ROT].reshape(-1, 3, 3)
    box_corners = _corners(boxes).reshape(n, 16, 3)
    # Outward unit normals ordered +x, -x, +y, -y, +z, -z, and plane offsets.
    normals = np.repeat(rot.transpose(0, 2, 1), 2, axis=1) * _FACE_SIGNS
    offsets = row_dots(normals, center[:, None]) + np.repeat(dims / 2.0, 2, axis=1)
    normals, offsets = normals.reshape(n, 12, 3), offsets.reshape(n, 12)
    dist = row_dots(box_corners[:, :, None], normals[:, None]) - offsets[:, None]
    dp, dq = dist[:, _CUTS[:, 0], _CUTS[:, 2]], dist[:, _CUTS[:, 1], _CUTS[:, 2]]
    # The candidates that exist: the corners, and the cuts of the edges whose
    # ends lie on either side of the plane.
    rows, cut = (dp * dq < 0.0).nonzero()
    t = dp[rows, cut] / (dp[rows, cut] - dq[rows, cut])
    p, q = box_corners[rows, _CUTS[cut, 0]], box_corners[rows, _CUTS[cut, 1]]
    cuts = p + t[:, None] * (q - p)
    # Pair by pair, each in candidate order.
    pair = np.concatenate([np.repeat(np.arange(n), 16), rows])
    order = np.argsort(pair, kind="stable")
    dist = np.concatenate([dist.reshape(-1, 12), row_dots(cuts[:, None], normals[rows]) - offsets[rows]])[order]
    inside = (dist <= CLIP_EPSILON).all(axis=1)
    kept, dist = order[inside], dist[inside]
    pair = pair[kept]
    count = np.bincount(pair, minlength=n)
    slot = np.arange(len(pair)) - (np.cumsum(count) - count)[pair]
    pts = np.zeros((n, count.max(initial=0), 3))
    pts[pair, slot] = np.concatenate([box_corners.reshape(-1, 3), cuts])[kept]
    on = np.zeros(pts.shape[:2] + (12,), bool)
    on[pair, slot] = np.abs(dist) <= CLIP_EPSILON
    return pts, on, count, normals


def _polytope_volumes(pts: np.ndarray, on: np.ndarray, count: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Stage 2 of the exact kernel: the volumes (P,) of P solid
    intersections, from stage 1's padded vertices, on-plane masks, counts
    and face normals.

    Each face polygon with at least 3 vertices is ordered by angle about
    its vertex mean, and the volume is the sum of the signed cones from the
    vertex centroid, which lies inside the polytope, over those polygons.
    """
    # Two face planes that (nearly) coincide both collect the shared face, so
    # each face of the first box also yields the polygon of its vertices in
    # common with the most parallel face of the second, counted negatively
    # (inclusion-exclusion). Planes that cross instead share a segment,
    # which has no area.
    partner = 6 + row_dots(normals[:, :6, None], normals[:, None, 6:]).argmax(axis=2)
    on = np.concatenate([on, on[:, :, :6] & np.take_along_axis(on, partner[:, None], axis=2)], axis=2)
    face_count = on.sum(axis=1)
    pair, face = (face_count >= 3).nonzero()
    n_on, face_on, vertices = face_count[pair, face, None], on[pair, :, face], pts[pair]
    mean = _ordered_sum(np.where(face_on[..., None], vertices, -0.0), axis=1) / n_on
    rel = vertices - mean[:, None]
    span = normals[pair[:, None], _FACE_SPAN[face]]
    uv = row_dots(rel[:, :, None], span[:, None])
    angle = np.where(face_on, np.arctan2(uv[..., 1], uv[..., 0]), np.inf)
    ring = np.take_along_axis(rel, angle.argsort(axis=1, kind="stable")[..., None], axis=1)
    slot = np.arange(ring.shape[1])
    following = np.take_along_axis(ring, ((slot + 1) % n_on)[..., None], axis=1)
    area = _ordered_sum(np.where((slot < n_on)[..., None], _cross(ring, following), -0.0), axis=1) / 2.0
    centroid = _ordered_sum(np.where((slot < count[:, None])[..., None], pts, -0.0), axis=1) / count[:, None]
    cones = np.full(face_count.shape, -0.0)
    cones[pair, face] = _FACE_SIGN[face] * np.abs(row_dots(area, mean - centroid[pair]))
    return _ordered_sum(cones, axis=1) / 3.0


def intersection_volume_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Volumes of the convex intersections of N pairs of oriented boxes,
    given as (N, 15) rows, as an (N,) array; each is bitwise symmetric in
    its pair."""
    pairs = _canonical_pairs(check_dims(a), check_dims(b))
    volume = np.zeros(len(pairs))
    gap = np.linalg.norm(pairs[:, 0, CENTER] - pairs[:, 1, CENTER], axis=1)
    gap -= np.linalg.norm(pairs[:, :, DIMS], axis=2).sum(axis=1) / 2.0
    near = (gap <= _SPHERE_GAP).nonzero()[0]
    # Both stages run on a bounded number of pairs at a time, which bounds
    # their scratch memory. Fewer than 4 kept vertices, or all of them on
    # one face plane, make a flat intersection.
    for lo in range(0, len(near), _CHUNK):
        rows = near[lo:lo + _CHUNK]
        pts, on, count, normals = _polytope_vertices(pairs[rows])
        solid = (count >= 4) & (on.sum(axis=1) < count[:, None]).all(axis=1)
        if solid.any():
            volume[rows[solid]] = _polytope_volumes(pts[solid], on[solid], count[solid], normals[solid])
    return volume


def intersection_volume(a: np.ndarray, b: np.ndarray) -> float:
    """Volume of the convex intersection of two oriented boxes:
    :func:`intersection_volume_batch` for one pair of rows."""
    return float(intersection_volume_batch(box_row(a)[None], box_row(b)[None])[0])


def _iou(inter: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU from N intersection volumes, clamped to [0, 1]; 0 for an empty union."""
    union = a[:, DIMS].prod(axis=1) + b[:, DIMS].prod(axis=1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(np.maximum(inter / union, 0.0), 1.0)
    return np.where(union <= 0.0, 0.0, iou)


def iou3d_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact IoU of N pairs of oriented boxes, given as (N, 15) rows, as an
    (N,) array."""
    return _iou(intersection_volume_batch(a, b), a, b)


def iou3d(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`iou3d_batch` for one pair of rows."""
    return float(iou3d_batch(box_row(a)[None], box_row(b)[None])[0])


def yaw_only(rows: np.ndarray) -> np.ndarray:
    """Which of N boxes, given as (N, 15) rows, have no pitch/roll terms
    (within YAW_ONLY_TOL), so that their footprint and height extent separate."""
    return (np.abs(rows[:, _OUT_OF_PLANE]) <= YAW_ONLY_TOL).all(axis=1)


def _require_yaw_only(rows: np.ndarray) -> None:
    """Raise NotYawOnly for the first of (N, 15) rows that is not yaw-only."""
    reject_first(
        ~yaw_only(rows),
        rows[:, _OUT_OF_PLANE],
        NotYawOnly,
        "rotation has out-of-plane terms ({0[0]:.3e}, {0[1]:.3e}, {0[2]:.3e}, {0[3]:.3e})",
    )


# The BEV kernel clips N footprint pairs at once. Polygons are (N, K) x and
# y columns plus a vertex count per row; the slots past a row's count are
# ignored. The arithmetic, and the order of every sum, is that of clipping
# one pair at a time, so each row's result has the same bits.


def _footprints(rows: np.ndarray):
    """Counter-clockwise footprint corners of yaw-only boxes, given as
    (N, 15) rows, as (N, 4) x and y."""
    center, dims, R = rows[:, CENTER], rows[:, DIMS], rows[:, ROT].reshape(-1, 3, 3)
    yaw = [math.atan2(s, c) for s, c in zip(R[:, 1, 0].tolist(), R[:, 0, 0].tolist())]
    c = np.array([math.cos(t) for t in yaw])[:, None]
    s = np.array([math.sin(t) for t in yaw])[:, None]
    hl, hw = dims[:, 0] / 2.0, dims[:, 1] / 2.0
    x = np.stack([hl, -hl, -hl, hl], axis=1)
    y = np.stack([hw, hw, -hw, -hw], axis=1)
    px = center[:, 0, None] + c * x - s * y
    py = center[:, 1, None] + s * x + c * y
    clockwise = (_signed_areas(px, py, np.full(len(px), 4)) < 0)[:, None]
    return np.where(clockwise, px[:, ::-1], px), np.where(clockwise, py[:, ::-1], py)


def _following(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each slot's value at the next vertex, wrapping at the row's count."""
    slots = (np.arange(values.shape[1]) + 1) % np.maximum(count, 1)[:, None]
    return np.take_along_axis(values, slots, 1)


def _signed_areas(px, py, count) -> np.ndarray:
    terms = px * _following(py, count) - _following(px, count) * py
    valid = np.arange(px.shape[1]) < count[:, None]
    return _ordered_sum(np.where(valid, terms, -0.0), axis=1) / 2.0


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


def iou3d_bev_yaw_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fast IoU for N pairs of yaw-only boxes, given as (N, 15) rows:
    footprint polygon overlap x height overlap, as an (N,) array.

    Raises NotYawOnly for the first box whose rotation is not a pure
    rotation about z.
    """
    check_dims(a)
    check_dims(b)
    _require_yaw_only(a)
    _require_yaw_only(b)
    ax, ay = _footprints(a)
    bx, by = _footprints(b)
    px, py, count = _clip_convex_2d(ax, ay, np.full(len(ax), 4), bx, by)
    area = np.where(count >= 3, np.abs(_signed_areas(px, py, count)), 0.0)
    za, ha = a[:, CENTER][:, 2], a[:, DIMS][:, 2]
    zb, hb = b[:, CENTER][:, 2], b[:, DIMS][:, 2]
    top = np.minimum(za + ha / 2.0, zb + hb / 2.0)
    dz = np.maximum(0.0, top - np.maximum(za - ha / 2.0, zb - hb / 2.0))
    return _iou(area * dz, a, b)


def iou3d_bev_yaw(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`iou3d_bev_yaw_batch` for one pair of rows."""
    return float(iou3d_bev_yaw_batch(box_row(a)[None], box_row(b)[None])[0])


def _points_inside(box: np.ndarray, points: np.ndarray) -> np.ndarray:
    # Offsets from the center as three contiguous columns, each projected on
    # the box's local axes.
    x, y, z = np.subtract(points.T, box[CENTER, None], order="C")
    R, dims = box[ROT].reshape(3, 3), box[DIMS]
    inside = [np.abs(x * R[0, k] + y * R[1, k] + z * R[2, k]) <= dims[k] / 2.0 for k in range(3)]
    return inside[0] & inside[1] & inside[2]


# Points per draw in iou3d_monte_carlo. A Generator's uniform stream does
# not depend on how its draws are sized, so the chunks see the points one
# (samples, 3) draw would, without holding them all at once.
_MC_CHUNK = 65536


def iou3d_monte_carlo(a: np.ndarray, b: np.ndarray, samples: int, seed: int) -> float:
    """Rejection-sampling IoU estimate over the bounding hull of a pair of
    box rows.

    Deterministic for a fixed seed; the independent oracle for the exact
    path.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    a, b = box_row(a), box_row(b)
    rng = np.random.default_rng(seed)
    all_corners = _corners(np.stack([a, b])).reshape(16, 3)
    lo = all_corners.min(axis=0)
    hi = all_corners.max(axis=0)
    n_inter = n_union = 0
    for start in range(0, samples, _MC_CHUNK):
        pts = rng.uniform(lo, hi, size=(min(_MC_CHUNK, samples - start), 3))
        in_a = _points_inside(a, pts)
        in_b = _points_inside(b, pts)
        n_inter += int(np.count_nonzero(in_a & in_b))
        n_union += int(np.count_nonzero(in_a | in_b))
    if n_union == 0:
        return 0.0
    return float(n_inter) / n_union
