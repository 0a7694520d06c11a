import math

import numpy as np
import pytest

from mono3dg.errors import BehindCamera, DegenerateSixD, GimbalLockRegion, NotARotation, ShapeMismatch
from mono3dg.rotation import (
    EulerAngles,
    allocentric_to_egocentric,
    allocentric_to_egocentric_batch,
    egocentric_to_allocentric_batch,
    euler_to_matrix,
    geodesic_distance,
    matrix_to_euler,
    matrix_to_rot6d,
    matrix_to_rot6d_batch,
    random_rotation,
    rot6d_to_matrix,
    rot6d_to_matrix_batch,
    validate_rotation,
    view_rotation_batch,
)


def yaw_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRot6DToMatrix:
    def test_already_orthonormal(self):
        assert np.allclose(rot6d_to_matrix([1.0, 0, 0, 0, 1.0, 0]), np.eye(3), atol=0)

    def test_hand_gram_schmidt(self):
        # c1 = (1,0,0); b - (c1.b) c1 = (0,1,0); c3 = (0,0,1)
        assert np.allclose(rot6d_to_matrix([2.0, 0, 0, 1.0, 1.0, 0]), np.eye(3), atol=1e-15)

    def test_parallel_columns(self):
        with pytest.raises(DegenerateSixD):
            rot6d_to_matrix([1.0, 0, 0, 2.0, 0, 0])

    def test_zero_first_column(self):
        with pytest.raises(DegenerateSixD):
            rot6d_to_matrix([0.0, 0, 0, 0, 1.0, 0])

    def test_output_always_rotation(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            r = np.concatenate([rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)])
            try:
                R = rot6d_to_matrix(r)
            except DegenerateSixD:
                continue
            assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-9
            assert abs(np.linalg.det(R) - 1.0) <= 1e-9

    def test_first_column_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            k = rng.uniform(0.1, 10.0)
            base = rot6d_to_matrix(np.r_[a, b])
            scaled = rot6d_to_matrix(np.r_[k * a, b])
            assert np.allclose(base, scaled, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (3, 2), (1, 6), (3, 1)])
    def test_anything_but_one_6d_row_rejected(self, shape):
        with pytest.raises(ShapeMismatch, match=r"vs \(6,\)"):
            rot6d_to_matrix(np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))

    def test_one_row_is_row_0_of_the_batch(self):
        rows = np.random.default_rng(9).uniform(-2, 2, (50, 6))
        batch = rot6d_to_matrix_batch(rows)
        for row, R in zip(rows, batch):
            assert rot6d_to_matrix(row).tobytes() == R.tobytes()


class TestMatrixToRot6D:
    def test_identity(self):
        assert matrix_to_rot6d(np.eye(3)).tolist() == [1, 0, 0, 0, 1, 0]

    def test_rotation_about_y(self):
        # 90 degrees about the camera y-axis, built analytically.
        R = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        r = matrix_to_rot6d(R)
        assert np.allclose(r[:3], R[:, 0]) and np.allclose(r[3:], R[:, 1])

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            R = random_rotation(rng)
            back = rot6d_to_matrix(matrix_to_rot6d(R))
            assert np.abs(back - R).max() <= 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(NotARotation):
            matrix_to_rot6d(np.eye(3) * 2.0)
        with pytest.raises(NotARotation):
            matrix_to_rot6d(np.diag([1.0, 1.0, -1.0]))  # det -1

    def test_serialization_order(self):
        R = yaw_matrix(0.3)
        r = matrix_to_rot6d(R)
        assert r.shape == (6,) and r.dtype == np.float64
        assert r.tolist() == R[:, 0].tolist() + R[:, 1].tolist()

    def test_one_matrix_is_row_0_of_the_batch(self):
        rng = np.random.default_rng(10)
        stack = np.array([random_rotation(rng) for _ in range(50)])
        for R, row in zip(stack, matrix_to_rot6d_batch(stack)):
            assert matrix_to_rot6d(R).tobytes() == row.tobytes()


class TestEuler:
    def test_zero_is_identity(self):
        assert np.allclose(euler_to_matrix(EulerAngles(0, 0, 0)), np.eye(3))

    def test_yaw_quarter_turn(self):
        R = euler_to_matrix(EulerAngles(pitch=0.0, roll=0.0, yaw=math.pi / 2))
        assert np.allclose(R, yaw_matrix(math.pi / 2), atol=1e-15)

    def test_round_trip_away_from_lock(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            e = EulerAngles(
                pitch=rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
                roll=rng.uniform(-math.pi, math.pi),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            back = matrix_to_euler(euler_to_matrix(e))
            assert back.pitch == pytest.approx(e.pitch, abs=1e-9)
            assert back.roll == pytest.approx(e.roll, abs=1e-9)
            assert back.yaw == pytest.approx(e.yaw, abs=1e-9)
            again = euler_to_matrix(back)
            assert np.abs(again - euler_to_matrix(e)).max() <= 1e-9

    def test_gimbal_lock_flagged(self):
        R = euler_to_matrix(EulerAngles(pitch=math.pi / 2, roll=0.0, yaw=0.0))
        with pytest.raises(GimbalLockRegion):
            matrix_to_euler(R)


class TestGeodesic:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(4)
        R = random_rotation(rng)
        assert geodesic_distance(R, R) == pytest.approx(0.0, abs=1e-7)

    def test_quarter_turn(self):
        # trace = 1 + 2 cos(theta)
        assert geodesic_distance(np.eye(3), yaw_matrix(math.pi / 2)) == pytest.approx(math.pi / 2)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            assert geodesic_distance(r1, r2) == pytest.approx(geodesic_distance(r2, r1), abs=1e-12)


class TestContinuity:
    def test_6d_lipschitz_bound_near_identity_perturbations(self):
        # Nearby rotations have nearby 6D representations: the columns of a
        # rotation move at most by the rotation angle between them.
        rng = np.random.default_rng(6)
        for _ in range(1000):
            R = random_rotation(rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-4, 0.01)
            K = np.array(
                [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
            )
            delta = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
            R2 = R @ delta
            dist = geodesic_distance(R, R2)
            assert dist <= 0.0101
            d6 = np.abs(matrix_to_rot6d(R) - matrix_to_rot6d(R2)).max()
            assert d6 <= 2.0 * dist

    def test_euler_discontinuity_witness(self):
        # Two rotations within 1e-3 geodesic whose Euler triples are 1.2 rad
        # apart: the near-gimbal-lock instability the 6D form avoids.
        delta, phi = 5e-4, 1.2
        r1 = euler_to_matrix(EulerAngles(pitch=math.pi / 2 - delta, roll=0.0, yaw=0.0))
        r2 = euler_to_matrix(EulerAngles(pitch=math.pi / 2 - delta, roll=phi, yaw=phi))
        assert geodesic_distance(r1, r2) <= 1e-3
        e1, e2 = matrix_to_euler(r1), matrix_to_euler(r2)
        gap = max(abs(e1.pitch - e2.pitch), abs(e1.roll - e2.roll), abs(e1.yaw - e2.yaw))
        assert gap > 1.0
        # ... while the 6D representations stay as close as the matrices.
        d6 = np.abs(matrix_to_rot6d(r1) - matrix_to_rot6d(r2)).max()
        assert d6 <= 2e-3


class TestViewFrame:
    def test_view_rotation_maps_z_to_ray(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 50)])
            R = view_rotation_batch(center[None])[0]
            validate_rotation(R)
            ray = center / np.linalg.norm(center)
            assert np.allclose(R @ np.array([0, 0, 1.0]), ray, atol=1e-12)

    def test_on_axis_is_identity(self):
        assert np.allclose(view_rotation_batch(np.array([[0, 0, 3.0]]))[0], np.eye(3))

    def test_frame_conversions_invert(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            center = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 50)])
            R = random_rotation(rng)
            alloc = egocentric_to_allocentric_batch(R[None], center[None])[0]
            back = allocentric_to_egocentric(alloc, center)
            assert np.abs(back - R).max() <= 1e-12

    def test_rejects_center_behind_camera(self):
        with pytest.raises(ValueError):
            view_rotation_batch(np.array([[1.0, 0.0, -2.0]]))

    @pytest.mark.parametrize(
        "behind", [[1.0, 2.0, 0.0], [0.5, 0.0, -3.0], [0.0, 0.0, 1e-200]],
        ids=["z-zero", "z-negative", "norm-underflows"],
    )
    def test_batches_reject_a_center_behind_the_camera(self, behind):
        # The second row fails. (0, 0, 1e-200) has Z > 0, but its squared
        # norm underflows to 0, so only the zero-norm clause catches it.
        centers = np.array([[0.3, -0.2, 4.0], behind])
        view_rotation_batch(centers[:1])
        with pytest.raises(BehindCamera, match="positive Z"):
            view_rotation_batch(centers)
        with pytest.raises(BehindCamera, match="positive Z"):
            allocentric_to_egocentric_batch(np.stack([np.eye(3), np.eye(3)]), centers)
