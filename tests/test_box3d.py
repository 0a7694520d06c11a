import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import fresh_python, make_box, overlapping_box_pair, random_box
from mono3dg import box3d
from mono3dg.box3d import (
    CENTER,
    DIMS,
    ROT,
    box_row,
    corners,
    intersection_volume,
    iou3d,
    iou3d_batch,
    _require_yaw_only,
    iou3d_bev_yaw,
    iou3d_monte_carlo,
    yaw_only,
)
from mono3dg.errors import NotYawOnly, ShapeMismatch
from mono3dg.metrics import score_query
from mono3dg.pipeline import raw_from_box
from mono3dg.scenes import OUTDOOR_PROFILE
from mono3dg.rotation import random_rotation


def yaw_box(center, dims, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return make_box(center, dims, rot)


def turned(rot, axis, angle):
    """rot turned by `angle` rad about `axis` (Rodrigues)."""
    x, y, z = np.asarray(axis, float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return (np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k @ k) @ rot


UNIT_CUBE = make_box(np.zeros(3), np.ones(3), np.eye(3))

# Placements of a second box along one axis of a box spanning [-1, 1]:
# (local center, extent, overlap length).
AXIS_RELATIONS = (
    (0.0, 2.0, 2.0),  # identical
    (0.75, 0.5, 0.5),  # inside, one face flush
    (1.0, 2.0, 1.0),  # half overlapping
    (1.5, 1.0, 0.0),  # touching
)

class TestCorners:
    def test_unit_cube(self):
        got = corners(UNIT_CUBE)
        expected = {
            (sx * 0.5, sy * 0.5, sz * 0.5)
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        }
        assert {tuple(np.round(c, 12)) for c in got} == expected

    def test_sign_order(self):
        got = corners(UNIT_CUBE)
        assert np.allclose(got[0], [-0.5, -0.5, -0.5])
        assert np.allclose(got[7], [0.5, 0.5, 0.5])
        assert np.allclose(got[1], [0.5, -0.5, -0.5])  # bit 0 flips x
        assert np.allclose(got[2], [-0.5, 0.5, -0.5])  # bit 1 flips y
        assert np.allclose(got[4], [-0.5, -0.5, 0.5])  # bit 2 flips z

    def test_yaw_quarter_turn_swaps_extents(self):
        box = yaw_box([0, 0, 0], [2.0, 1.0, 1.0], math.pi / 2)
        got = corners(box)
        # Length was along x; after a quarter turn it spans y.
        assert got[:, 0].max() - got[:, 0].min() == pytest.approx(1.0)
        assert got[:, 1].max() - got[:, 1].min() == pytest.approx(2.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        box = random_box(rng)
        t = np.array([3.0, -2.0, 7.0])
        moved = make_box(box[CENTER] + t, box[DIMS], box[ROT])
        assert np.allclose(corners(moved), corners(box) + t, atol=1e-12)


class TestIntersectionVolume:
    def test_identical(self):
        box = make_box([1, 2, 3], [2.0, 3.0, 1.5], np.eye(3))
        assert intersection_volume(box, box) == pytest.approx(9.0, rel=1e-12)

    def test_axis_aligned_offset(self):
        other = make_box([0.5, 0, 0], np.ones(3), np.eye(3))
        assert intersection_volume(UNIT_CUBE, other) == pytest.approx(0.5, rel=1e-12)

    def test_disjoint(self):
        far = make_box([100.0, 0, 0], np.ones(3), np.eye(3))
        assert intersection_volume(UNIT_CUBE, far) == 0.0

    def test_contained_box(self):
        small = make_box([0, 0, 0], [0.5, 0.5, 0.5], random_rotation(np.random.default_rng(1)))
        assert intersection_volume(UNIT_CUBE, small) == pytest.approx(0.125, rel=1e-9)

    @pytest.mark.parametrize("far", [0.0, 50.0])
    def test_shared_frame_matches_axis_overlaps(self, far):
        rng = np.random.default_rng(15)
        rot = random_rotation(rng)
        center = far * random_rotation(rng)[:, 0]
        a = make_box(center, [2.0, 2.0, 2.0], rot)
        worst = 0.0
        for relations in itertools.product(AXIS_RELATIONS, repeat=3):
            local, dims, overlaps = np.array(relations).T
            b = make_box(center + rot @ local, dims, rot)
            worst = max(worst, abs(intersection_volume(a, b) - np.prod(overlaps)))
        assert worst <= 1e-12

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = overlapping_box_pair(rng)
            assert intersection_volume(a, b) == intersection_volume(b, a)


class TestIoU3D:
    def test_identical(self):
        rng = np.random.default_rng(3)
        box = random_box(rng)
        assert iou3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_third(self):
        other = make_box([0.5, 0, 0], np.ones(3), np.eye(3))
        assert iou3d(UNIT_CUBE, other) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_disjoint_zero(self):
        far = make_box([0, 50.0, 0], np.ones(3), np.eye(3))
        assert iou3d(UNIT_CUBE, far) == 0.0

    def test_near_identical_general_rotation(self):
        # Tilted by 1e-10 rad and moved by 1 nm, a box still fills its twin.
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = random_box(rng)
            offset = rng.standard_normal(3)
            offset *= 1e-9 / np.linalg.norm(offset)
            b = make_box(a[CENTER] + offset, a[DIMS], turned(a[ROT].reshape(3, 3), rng.standard_normal(3), 1e-10))
            assert iou3d(a, b) >= 0.99

    def test_touching_is_zero(self):
        rot = random_rotation(np.random.default_rng(16))
        a = make_box(np.zeros(3), [2.0, 1.0, 1.5], rot)
        for local in ([2.0, 0.3, 0.2], [0.4, -0.2, 1.5], [2.0, 1.0, 0.1]):  # side, top, edge
            assert iou3d(a, make_box(rot @ local, a[DIMS], rot)) == 0.0
        # Ridge edges crossing at one point: a cube turned 45 deg about x
        # under one turned 45 deg about y.
        lower = make_box(np.zeros(3), np.ones(3), turned(np.eye(3), [1, 0, 0], math.pi / 4))
        upper = make_box([0, 0, math.sqrt(2)], np.ones(3), turned(np.eye(3), [0, 1, 0], math.pi / 4))
        assert iou3d(lower, upper) == 0.0

    def test_leaves_scipy_spatial_unloaded(self):
        # Importing scipy.spatial adds about 11 MB of resident memory.
        code = (
            "import sys, numpy as np, mono3dg\n"
            "from mono3dg.rotation import random_rotation\n"
            "rng = np.random.default_rng(0)\n"
            "a = np.r_[np.zeros(3), np.ones(3), random_rotation(rng).ravel()]\n"
            "b = np.r_[[0.2, 0.1, 0.0], np.ones(3), random_rotation(rng).ravel()]\n"
            "assert mono3dg.iou3d(a, b) > 0.0\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        assert fresh_python(code).strip() == "False"

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = overlapping_box_pair(rng)
            v = iou3d(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou3d(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = overlapping_box_pair(rng)
            base = iou3d(a, b)
            R = random_rotation(rng)
            t = rng.uniform(-10, 10, 3)
            a2 = make_box(R @ a[CENTER] + t, a[DIMS], R @ a[ROT].reshape(3, 3))
            b2 = make_box(R @ b[CENTER] + t, b[DIMS], R @ b[ROT].reshape(3, 3))
            assert iou3d(a2, b2) == pytest.approx(base, abs=1e-9)


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _apart_pairs(rng):
    """Boxes that touch face to face (even k) or lie 1 m apart (odd k)."""
    pairs = []
    for k in range(100):
        a = random_box(rng)
        dims = rng.uniform(0.3, 2.0, size=3)
        axis = k % 3
        side = rng.choice([-1.0, 1.0])
        local = rng.uniform(-0.3, 0.3, size=3)
        local[axis] = side * (a[DIMS][axis] + dims[axis]) / 2.0
        if k % 2:
            local[axis] += side
            rot = random_rotation(rng)
        else:
            rot = a[ROT].reshape(3, 3)
        pairs.append((a, make_box(a[CENTER] + a[ROT].reshape(3, 3) @ local, dims, rot)))
    return pairs


class TestSameBitsAsPerPairCode:
    """SHA-256 of the exact IoUs of seeded general-rotation pairs, as the
    BLAS-free kernel computes them under every BLAS kernel. Both the batch
    and its one-pair wrapper must produce those exact bits."""

    DIGESTS = {
        "overlapping": "b548b7fbadbdd202ec71b0eb851d290ade068c0d07443becf3abdb304c1a8acf",
        "apart": "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1",
    }

    @staticmethod
    def _pairs(kind):
        if kind == "overlapping":
            rng = np.random.default_rng(22)
            return [overlapping_box_pair(rng) for _ in range(300)]
        return _apart_pairs(np.random.default_rng(23))

    @pytest.mark.parametrize("kind", ["overlapping", "apart"])
    def test_batch_and_single_pair_bits(self, kind):
        pairs = self._pairs(kind)
        batch = iou3d_batch(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
        assert _digest(batch) == self.DIGESTS[kind]
        assert _digest([iou3d(a, b) for a, b in pairs]) == self.DIGESTS[kind]
        assert np.count_nonzero(batch) == (280 if kind == "overlapping" else 0)


def _rot(*turns):
    """The identity turned about each (axis, angle) in order."""
    rot = np.eye(3)
    for axis, angle in turns:
        rot = turned(rot, axis, angle)
    return rot


class TestBatchEqualsAlone:
    """One batch of fixed hard pairs, more than two chunks, whose vertices
    are padded across many kept-vertex counts: each row has the bits of that
    pair scored alone, in either order."""

    ROTATIONS = (
        _rot(([1, 0, 0], 0.3), ([0, 1, 0], 0.5)),
        _rot(([1, 2, 3], 1.1)),
        _rot(([0, 0, 1], 0.7)),
        _rot(([-2, 1, 0.5], 2.4)),
    )

    @classmethod
    def _cases(cls):
        """(name, a, b, expected IoU or None)."""
        cases = []
        for r, rot in enumerate(cls.ROTATIONS):
            other = cls.ROTATIONS[(r + 1) % 4]
            center = rot @ [0.5, -1.0, 2.0]
            a = make_box(center, [2.0, 1.0, 1.5], rot)
            for where, local in (("side", [2.0, 0.3, 0.2]), ("top", [0.4, -0.2, 1.5]), ("edge", [2.0, 1.0, 0.1])):
                cases.append((f"touching {where} {r}", a, make_box(center + rot @ local, a[DIMS], rot), 0.0))
            cases.append((f"disjoint {r}", a, make_box(center + [10.0, 0.0, 0.0], [1.0, 2.0, 1.0], other), 0.0))
            inner = make_box(center + rot @ [0.1, 0.05, -0.1], [0.5, 0.4, 0.3], other)
            cases.append((f"contained {r}", a, inner, 0.06 / 3.0))
            offset = rot @ [1.0, 2.0, -2.0]
            near = make_box(center + 1e-9 * offset / 3.0, a[DIMS], turned(rot, [3, -1, 2], 1e-10))
            cases.append((f"near-identical {r}", a, near, None))
            for tilt in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2):
                tilted = make_box(center + rot @ [1.0, 0.0, 0.0], a[DIMS], turned(rot, rot[:, 2], tilt))
                cases.append((f"tilt {tilt:g} {r}", a, tilted, None))
            far = rot @ [100.0, -3.0, 1.2]
            small = make_box(far, [0.04, 0.03, 0.05], rot)
            cases.append((f"100 m {r}", small, make_box(far + 0.01, [0.05, 0.02, 0.04], other), None))
            for shift in (0.0, 0.3):
                quarter = make_box(center + shift * rot[:, 0], a[DIMS], turned(rot, rot[:, 2], math.pi / 2))
                cases.append((f"90 deg yaw {shift} {r}", a, quarter, None))
        lower = make_box(np.zeros(3), np.ones(3), _rot(([1, 0, 0], math.pi / 4)))
        upper = make_box([0, 0, math.sqrt(2)], np.ones(3), _rot(([0, 1, 0], math.pi / 4)))
        cases.append(("ridge edges crossing", lower, upper, 0.0))
        for r, rot in enumerate(cls.ROTATIONS[:2]):
            center = 50.0 * r * rot[:, 1]
            a = make_box(center, [2.0, 2.0, 2.0], rot)
            for relations in itertools.product(AXIS_RELATIONS, repeat=3):
                local, dims, overlaps = np.array(relations).T
                b = make_box(center + rot @ local, dims, rot)
                cases.append((f"shared frame {relations} {r}", a, b, None))
        return cases

    def test_rows_match_single_pairs(self, monkeypatch):
        cases = self._cases()
        a = np.array([a for _, a, _, _ in cases])
        b = np.array([b for _, _, b, _ in cases])
        chunks = []
        volumes = box3d._polytope_volumes

        def recording(pts, on, count, normals):
            chunks.append(set(count.tolist()))
            return volumes(pts, on, count, normals)

        monkeypatch.setattr(box3d, "_polytope_volumes", recording)
        batch, swapped = iou3d_batch(a, b), iou3d_batch(b, a)
        monkeypatch.undo()
        assert len(cases) > 2 * box3d._CHUNK
        # One chunk pads the vertices of pairs of many kept-vertex counts.
        assert max(map(len, chunks)) >= 10
        alone = np.array([iou3d(a, b) for _, a, b, _ in cases])
        bits = zip(batch.view(np.int64), swapped.view(np.int64), alone.view(np.int64))
        assert [name for (name, *_), (x, y, z) in zip(cases, bits) if not x == y == z] == []
        for (name, _, _, expected), value in zip(cases, batch):
            if expected == 0.0:
                assert value == 0.0, name
            elif expected is not None:
                assert value == pytest.approx(expected, rel=1e-9), name
            elif name.startswith("near-identical"):
                assert value >= 0.99, name


def _aligned(u, v):
    """The rotation that turns unit vector u onto unit vector v."""
    return turned(np.eye(3), np.cross(u, v), math.acos(float(np.clip(u @ v, -1.0, 1.0))))


def _spread_pairs(rng):
    """Second box in a random direction at 0.3-1.5 times the sum of the two
    bounding-sphere radii: most pairs lie apart, some overlap."""
    pairs = []
    for _ in range(200):
        a = random_box(rng)
        dims = rng.uniform(0.3, 2.0, size=3)
        reach = (math.hypot(*a[DIMS]) + math.hypot(*dims)) / 2.0
        direction = rng.standard_normal(3)
        offset = rng.uniform(0.3, 1.5) * reach * direction / math.hypot(*direction)
        pairs.append((a, make_box(a[CENTER] + offset, dims, random_rotation(rng))))
    return pairs


def _margin_pairs(rng):
    """Corner facing corner along the line of centers, whose distance is the
    sum of the bounding-sphere radii plus 1e-6 m, give or take 1e-9 m."""
    pairs = []
    for _ in range(100):
        a = random_box(rng)
        dims = rng.uniform(0.3, 2.0, size=3)
        ra, rb = np.linalg.norm(a[DIMS]) / 2.0, np.linalg.norm(dims) / 2.0
        toward = a[ROT].reshape(3, 3) @ (a[DIMS] / 2.0) / ra
        rot = turned(_aligned(dims / 2.0 / rb, -toward), toward, rng.uniform(0.0, 2.0 * math.pi))
        gap = 1e-6 + rng.uniform(-1e-9, 1e-9)
        pairs.append((a, make_box(a[CENTER] + (ra + rb + gap) * toward, dims, rot)))
    return pairs


class TestSphereGapPairs:
    """SHA-256 of the exact IoUs of pairs far apart, near, and at the
    bounding-sphere gap where stage 1 stops looking: pairs whose spheres
    lie apart are skipped, and every pair keeps its bits in both argument
    orders and through the one-pair wrapper."""

    DIGESTS = {
        "spread": "986fd00c8c3f079537d0cc405ffddf39deab59913cd703346dc9632683d0025b",
        "margin": "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1",
    }

    @pytest.mark.parametrize("kind", ["spread", "margin"])
    def test_batch_and_single_pair_bits(self, kind):
        rng = np.random.default_rng(31 if kind == "spread" else 32)
        pairs = _spread_pairs(rng) if kind == "spread" else _margin_pairs(rng)
        a, b = np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
        assert _digest(iou3d_batch(a, b)) == self.DIGESTS[kind]
        assert _digest(iou3d_batch(b, a)) == self.DIGESTS[kind]
        assert _digest([iou3d(a, b) for a, b in pairs]) == self.DIGESTS[kind]
        assert np.count_nonzero(iou3d_batch(a, b)) == (73 if kind == "spread" else 0)


class TestBEVFastPath:
    def test_identical(self):
        box = yaw_box([1, 2, 3], [2, 1, 1], 0.7)
        assert iou3d_bev_yaw(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_squares_octagon(self):
        # Two unit squares at 45 degrees: intersection 2(sqrt2 - 1), so
        # IoU = 2(sqrt2-1) / (2 - 2(sqrt2-1)) = 1/sqrt2.
        a = yaw_box([0, 0, 0], [1, 1, 1], 0.0)
        b = yaw_box([0, 0, 0], [1, 1, 1], math.pi / 4)
        expected = 2 * (math.sqrt(2) - 1) / (2 - 2 * (math.sqrt(2) - 1))
        assert expected == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert iou3d_bev_yaw(a, b) == pytest.approx(expected, rel=1e-9)
        # Monte-Carlo cross-check of the closed form.
        assert iou3d_monte_carlo(a, b, 400_000, seed=9) == pytest.approx(expected, abs=0.005)

    def test_rejects_tilted_box(self):
        tilted = make_box(
            np.zeros(3),
            np.ones(3),
            random_rotation(np.random.default_rng(6)),
        )
        with pytest.raises(NotYawOnly):
            iou3d_bev_yaw(tilted, UNIT_CUBE)

    def test_is_yaw_only_iff_require_does_not_raise(self):
        flipped = np.array([[0.6, 0.8, 0.0], [0.8, -0.6, 0.0], [0.0, 0.0, -1.0]])
        rots = [np.eye(3), yaw_box([0, 0, 0], [1, 1, 1], 2.5)[ROT].reshape(3, 3), flipped]
        for row, col in ((2, 0), (2, 1), (0, 2), (1, 2)):
            for value in (1e-9, 1e-6, np.nan):
                rot = np.eye(3)
                rot[row, col] = value
                rots.append(rot)
        rng = np.random.default_rng(14)
        rots += [random_rotation(rng) for _ in range(5)]
        verdicts = []
        for rot in rots:
            box = make_box(np.zeros(3), np.ones(3), rot)
            try:
                _require_yaw_only(box[None])
                accepted = True
            except NotYawOnly:
                accepted = False
            assert yaw_only(box[None])[0] == accepted
            verdicts.append(accepted)
        # Identity, yaw, flipped and the four entries at exactly the tolerance.
        assert sum(verdicts) == 7

    def test_matches_general_path(self):
        rng = np.random.default_rng(7)
        pairs = [overlapping_box_pair(rng, yaw_only=True) for _ in range(200)]
        far = yaw_box([100.0, -3.0, 1.2], [0.04, 0.03, 0.05], 0.3)
        pairs += [
            (yaw_box([1, 2, 3], [4, 3, 2], 0.4), yaw_box([1.2, 2.1, 3.3], [1, 0.5, 0.7], 2.0)),  # contained
            (yaw_box([0, 0, 0], [2, 1, 1], 0.0), yaw_box([0.1, 0.2, 0.3], [2, 1, 1], math.pi / 2)),
            (far, yaw_box([100.01, -2.99, 1.21], [0.05, 0.02, 0.04], -1.0)),
        ]
        for a, b in pairs:
            assert iou3d_bev_yaw(a, b) == pytest.approx(iou3d(a, b), abs=1e-9)


    def test_signed_areas_add_in_vertex_order(self):
        # Polygons of 0 to 9 vertices, with values past each count: every
        # area is that of the loop over its vertices in order, from 0.0
        # (== does not tell a zero area's sign, which may differ).
        rng = np.random.default_rng(15)
        px, py = rng.standard_normal((2, 60, 9)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 60, 1))
        px[:5] = 0.0
        count = rng.integers(0, 10, 60)
        got = box3d._signed_areas(px, py, count)
        for k, n in enumerate(count.tolist()):
            area = 0.0
            for j in range(n):
                q = (j + 1) % n
                area += px[k, j] * py[k, q] - px[k, q] * py[k, j]
            assert got[k] == area / 2.0, k


class TestRows:
    """A box is a (15,) row of center, dims and row-major rot, and a batch
    of boxes (N, 15) rows."""

    def test_row_round_trip(self):
        # box_row keeps a row's numbers as float64, and a float64 row as a view.
        box = random_box(np.random.default_rng(11))
        row = box_row(box.tolist())
        assert row.dtype == np.float64 and row.tolist() == box.tolist()
        assert np.shares_memory(box_row(row), row)
        assert box_row([0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1]).tolist() == UNIT_CUBE.tolist()

    @pytest.mark.parametrize("shape", [(14,), (16,), (1, 15), (3, 5), ()])
    def test_box_row_rejects_another_shape(self, shape):
        with pytest.raises(ShapeMismatch, match=r"^box \("):
            box_row(np.ones(shape))

    @pytest.mark.parametrize("dims", [[1.0, 0.0, 1.0], [1.0, 1.0, -2.0], [np.nan, 1.0, 1.0]])
    def test_box_row_rejects_a_dim_that_is_not_positive(self, dims):
        with pytest.raises(ValueError, match=r"^box dims must be positive, got \["):
            box_row(np.r_[np.zeros(3), dims, np.eye(3).ravel()])

    @pytest.mark.parametrize("call", [
        lambda box: corners(box),
        lambda box: intersection_volume(box, UNIT_CUBE),
        lambda box: iou3d(UNIT_CUBE, box),
        lambda box: iou3d_bev_yaw(box, UNIT_CUBE),
        lambda box: iou3d_monte_carlo(UNIT_CUBE, box, 10, 0),
        lambda box: score_query(box, UNIT_CUBE, "q"),
        lambda box: raw_from_box(box, (1000.0, 1000.0, 960.0, 540.0, 1920.0, 1080.0), OUTDOOR_PROFILE),
    ], ids=["corners", "intersection_volume", "iou3d", "iou3d_bev_yaw", "iou3d_monte_carlo",
            "score_query", "raw_from_box"])
    def test_one_box_functions_check_their_rows(self, call):
        with pytest.raises(ShapeMismatch):
            call(UNIT_CUBE[:14])
        with pytest.raises(ValueError, match=r"^box dims must be positive, got \[1\. 0\. 1\.\]$"):
            call(np.r_[UNIT_CUBE[CENTER], 1.0, 0.0, 1.0, UNIT_CUBE[ROT]])

    @pytest.mark.parametrize(
        "kernel", [box3d.iou3d_batch, box3d.iou3d_bev_yaw_batch, box3d.intersection_volume_batch]
    )
    def test_kernels_reject_a_zero_dim(self, kernel):
        good = np.array([UNIT_CUBE, UNIT_CUBE])
        bad = good.copy()
        bad[1, box3d.DIMS] = [1.0, 0.0, 1.0]
        for a, b in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match=r"^box dims must be positive, got \[1\. 0\. 1\.\]$"):
                kernel(a, b)


class TestMonteCarlo:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(8)
        box = random_box(rng)
        for seed in (0, 1, 2):
            assert iou3d_monte_carlo(box, box, 10_000, seed) == 1.0

    def test_disjoint_is_zero(self):
        far = make_box([30.0, 0, 0], np.ones(3), np.eye(3))
        assert iou3d_monte_carlo(UNIT_CUBE, far, 10_000, seed=0) == 0.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        a, b = overlapping_box_pair(rng)
        assert iou3d_monte_carlo(a, b, 50_000, 7) == iou3d_monte_carlo(a, b, 50_000, 7)

    def test_agrees_with_exact(self):
        rng = np.random.default_rng(10)
        for i in range(20):
            a, b = overlapping_box_pair(rng)
            assert iou3d_monte_carlo(a, b, 400_000, seed=i) == pytest.approx(
                iou3d(a, b), abs=0.01
            )

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            iou3d_monte_carlo(UNIT_CUBE, UNIT_CUBE, 0, 0)

    @staticmethod
    def one_draw_estimate(a, b, samples, seed):
        """The estimator with all its points drawn as one (samples, 3) array."""
        rng = np.random.default_rng(seed)
        all_corners = np.vstack([box3d.corners(a), box3d.corners(b)])
        pts = rng.uniform(all_corners.min(axis=0), all_corners.max(axis=0), size=(samples, 3))
        in_a, in_b = box3d._points_inside(a, pts), box3d._points_inside(b, pts)
        n_union = int(np.count_nonzero(in_a | in_b))
        return 0.0 if n_union == 0 else float(np.count_nonzero(in_a & in_b)) / n_union

    def test_chunked_draw_equals_one_array_draw(self):
        # two whole chunks and a partial one of 7 points
        samples = 2 * box3d._MC_CHUNK + 7
        rng = np.random.default_rng(11)
        for seed in range(4):
            a, b = overlapping_box_pair(rng)
            # estimates lie in [0, 1], so equal floats have equal bits
            assert iou3d_monte_carlo(a, b, samples, seed) == self.one_draw_estimate(a, b, samples, seed)

