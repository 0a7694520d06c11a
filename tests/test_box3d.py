import math

import numpy as np
import pytest

from conftest import overlapping_box_pair, random_box
from mono3dg.box3d import (
    ConvexPolytope,
    OrientedBox3D,
    box_polytope,
    corners,
    intersection_volume,
    iou3d,
    _require_yaw_only,
    iou3d_bev_yaw,
    iou3d_monte_carlo,
    is_yaw_only,
)
from mono3dg.errors import NotYawOnly
from mono3dg.rotation import random_rotation


def yaw_box(center, dims, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return OrientedBox3D(np.asarray(center, float), np.asarray(dims, float), rot)


UNIT_CUBE = OrientedBox3D(np.zeros(3), np.ones(3), np.eye(3))


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
        moved = OrientedBox3D(box.center + t, box.dims, box.rot)
        assert np.allclose(corners(moved), corners(box) + t, atol=1e-12)


class TestIntersectionVolume:
    def test_identical(self):
        box = OrientedBox3D([1, 2, 3], [2.0, 3.0, 1.5], np.eye(3))
        assert intersection_volume(box, box) == pytest.approx(9.0, rel=1e-12)

    def test_axis_aligned_offset(self):
        other = OrientedBox3D([0.5, 0, 0], np.ones(3), np.eye(3))
        assert intersection_volume(UNIT_CUBE, other) == pytest.approx(0.5, rel=1e-12)

    def test_disjoint(self):
        far = OrientedBox3D([100.0, 0, 0], np.ones(3), np.eye(3))
        assert intersection_volume(UNIT_CUBE, far) == 0.0

    def test_contained_box(self):
        small = OrientedBox3D([0, 0, 0], [0.5, 0.5, 0.5], random_rotation(np.random.default_rng(1)))
        assert intersection_volume(UNIT_CUBE, small) == pytest.approx(0.125, rel=1e-9)

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
        other = OrientedBox3D([0.5, 0, 0], np.ones(3), np.eye(3))
        assert iou3d(UNIT_CUBE, other) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_disjoint_zero(self):
        far = OrientedBox3D([0, 50.0, 0], np.ones(3), np.eye(3))
        assert iou3d(UNIT_CUBE, far) == 0.0

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
            a2 = OrientedBox3D(R @ a.center + t, a.dims, R @ a.rot)
            b2 = OrientedBox3D(R @ b.center + t, b.dims, R @ b.rot)
            assert iou3d(a2, b2) == pytest.approx(base, abs=1e-9)


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
        tilted = OrientedBox3D(
            np.zeros(3),
            np.ones(3),
            random_rotation(np.random.default_rng(6)),
        )
        with pytest.raises(NotYawOnly):
            iou3d_bev_yaw(tilted, UNIT_CUBE)

    def test_is_yaw_only_iff_require_does_not_raise(self):
        flipped = np.array([[0.6, 0.8, 0.0], [0.8, -0.6, 0.0], [0.0, 0.0, -1.0]])
        rots = [np.eye(3), yaw_box([0, 0, 0], [1, 1, 1], 2.5).rot, flipped]
        for row, col in ((2, 0), (2, 1), (0, 2), (1, 2)):
            for value in (1e-9, 1e-6, np.nan):
                rot = np.eye(3)
                rot[row, col] = value
                rots.append(rot)
        rng = np.random.default_rng(14)
        rots += [random_rotation(rng) for _ in range(5)]
        verdicts = []
        for rot in rots:
            box = OrientedBox3D(np.zeros(3), np.ones(3), rot)
            try:
                _require_yaw_only(box)
                accepted = True
            except NotYawOnly:
                accepted = False
            assert is_yaw_only(box) == accepted
            verdicts.append(accepted)
        # Identity, yaw, flipped and the four entries at exactly the tolerance.
        assert sum(verdicts) == 7

    def test_matches_general_path(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = overlapping_box_pair(rng, yaw_only=True)
            assert iou3d_bev_yaw(a, b) == pytest.approx(iou3d(a, b), abs=1e-9)


class TestMonteCarlo:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(8)
        box = random_box(rng)
        for seed in (0, 1, 2):
            assert iou3d_monte_carlo(box, box, 10_000, seed) == 1.0

    def test_disjoint_is_zero(self):
        far = OrientedBox3D([30.0, 0, 0], np.ones(3), np.eye(3))
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


class TestConvexPolytope:
    def test_box_polytope_valid(self):
        rng = np.random.default_rng(11)
        poly = box_polytope(random_box(rng))
        assert poly.is_convex()
        assert len(poly.faces) == 6 and poly.vertices.shape == (8, 3)

    def test_volume_matches_dims(self):
        box = OrientedBox3D([0, 1, 2], [2.0, 0.5, 3.0], random_rotation(np.random.default_rng(12)))
        assert box_polytope(box).volume() == pytest.approx(3.0, rel=1e-12)

    def test_face_polygon_round_trip(self):
        poly = box_polytope(UNIT_CUBE)
        rebuilt = ConvexPolytope.from_face_polygons(poly.face_polygons())
        assert rebuilt.vertices.shape == (8, 3)
        assert rebuilt.volume() == pytest.approx(1.0, rel=1e-12)
        assert rebuilt.is_convex()
