import math

import numpy as np
import pytest

from mono3dg.errors import BehindCamera, DegenerateSixD, GimbalLockRegion, NotARotation
from mono3dg.rotation import (
    EulerAngles,
    Rot6D,
    allocentric_to_egocentric,
    allocentric_to_egocentric_batch,
    egocentric_to_allocentric,
    euler_to_matrix,
    geodesic_distance,
    matrix_to_euler,
    matrix_to_rot6d,
    random_rotation,
    rot6d_to_matrix,
    validate_rotation,
    view_rotation,
    view_rotation_batch,
)


def yaw_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRot6DToMatrix:
    def test_already_orthonormal(self):
        r = Rot6D(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert np.allclose(rot6d_to_matrix(r), np.eye(3), atol=0)

    def test_hand_gram_schmidt(self):
        # c1 = (1,0,0); b - (c1.b) c1 = (0,1,0); c3 = (0,0,1)
        r = Rot6D(np.array([2.0, 0, 0]), np.array([1.0, 1.0, 0]))
        assert np.allclose(rot6d_to_matrix(r), np.eye(3), atol=1e-15)

    def test_parallel_columns(self):
        with pytest.raises(DegenerateSixD):
            rot6d_to_matrix(Rot6D(np.array([1.0, 0, 0]), np.array([2.0, 0, 0])))

    def test_zero_first_column(self):
        with pytest.raises(DegenerateSixD):
            rot6d_to_matrix(Rot6D(np.zeros(3), np.array([0, 1.0, 0])))

    def test_output_always_rotation(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            r = Rot6D(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
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
            base = rot6d_to_matrix(Rot6D(a, b))
            scaled = rot6d_to_matrix(Rot6D(k * a, b))
            assert np.allclose(base, scaled, atol=1e-12)


class TestMatrixToRot6D:
    def test_identity(self):
        r = matrix_to_rot6d(np.eye(3))
        assert np.allclose(r.a, [1, 0, 0]) and np.allclose(r.b, [0, 1, 0])

    def test_rotation_about_y(self):
        # 90 degrees about the camera y-axis, built analytically.
        R = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        r = matrix_to_rot6d(R)
        assert np.allclose(r.a, R[:, 0]) and np.allclose(r.b, R[:, 1])

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
        r = matrix_to_rot6d(yaw_matrix(0.3))
        arr = r.as_array()
        assert arr.shape == (6,)
        assert np.allclose(arr[:3], r.a) and np.allclose(arr[3:], r.b)


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
            d6 = np.abs(
                matrix_to_rot6d(R).as_array() - matrix_to_rot6d(R2).as_array()
            ).max()
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
        d6 = np.abs(matrix_to_rot6d(r1).as_array() - matrix_to_rot6d(r2).as_array()).max()
        assert d6 <= 2e-3


class TestViewFrame:
    def test_view_rotation_maps_z_to_ray(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 50)])
            R = view_rotation(center)
            validate_rotation(R)
            ray = center / np.linalg.norm(center)
            assert np.allclose(R @ np.array([0, 0, 1.0]), ray, atol=1e-12)

    def test_on_axis_is_identity(self):
        assert np.allclose(view_rotation(np.array([0, 0, 3.0])), np.eye(3))

    def test_frame_conversions_invert(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            center = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 50)])
            R = random_rotation(rng)
            back = allocentric_to_egocentric(egocentric_to_allocentric(R, center), center)
            assert np.abs(back - R).max() <= 1e-12

    def test_rejects_center_behind_camera(self):
        with pytest.raises(ValueError):
            view_rotation(np.array([1.0, 0.0, -2.0]))

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
