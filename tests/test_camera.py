import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_box, random_box, random_intrinsics
from mono3dg.box3d import CENTER, DIMS, ROT
from mono3dg.camera import (
    CameraIntrinsics,
    DepthMode,
    Point2D,
    Point3D,
    VirtualCamera,
    backproject_center,
    fuse_depth,
    height_depth,
    project,
    real_to_virtual_depth,
    reason_center,
    virtual_to_real_depth,
)
from mono3dg.decoder import D_V, SIZE, UV
from mono3dg.errors import DegenerateHeight, MissingHeight2D, NonPositiveDepth, ShapeMismatch
from mono3dg.pipeline import raw_from_box
from mono3dg.scenes import INDOOR_PROFILE, OUTDOOR_PROFILE

CAM = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0, width=1920.0, height=1080.0)


def make_raw(u_norm, v_norm, d_v, L, W, H):
    """One query's raw row. Its rot6d columns are the identity's, which
    center reasoning does not read."""
    return np.array([u_norm, v_norm, d_v, L, W, H, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class TestProject:
    def test_principal_point(self):
        assert project(Point3D(0, 0, 5), CAM) == Point2D(960.0, 540.0)

    def test_hand_value(self):
        # u = 1000 * 1/5 + 960
        assert project(Point3D(1, 0, 5), CAM) == Point2D(1160.0, 540.0)

    def test_behind_camera(self):
        with pytest.raises(NonPositiveDepth):
            project(Point3D(0, 0, -1), CAM)
        with pytest.raises(NonPositiveDepth):
            project(Point3D(0, 0, 0), CAM)


def oracle_virtual_depth(x: float, z: float, cam: CameraIntrinsics, vc: VirtualCamera) -> float:
    """Independent derivation: project in the real camera, re-place the point
    at the same normalized pixel and the same X in the virtual camera, solve
    for the depth that reproduces that pixel."""
    u_real = project(Point3D(x, 0.0, z), cam).u
    u_virt = u_real / cam.width * vc.width_v
    cx_virt = cam.cx / cam.width * vc.width_v
    return vc.fx_v * x / (u_virt - cx_virt)


class TestVirtualDepth:
    def test_unit_conversion_factor(self):
        cam = CameraIntrinsics(1000, 1000, 960, 540, 2000, 1080)
        assert real_to_virtual_depth(10.0, cam, VirtualCamera(500, 1000)) == pytest.approx(10.0, abs=0)

    def test_identical_cameras(self):
        cam = CameraIntrinsics(500, 500, 500, 300, 1000, 600)
        assert real_to_virtual_depth(7.0, cam, VirtualCamera(500, 1000)) == 7.0

    def test_half_conversion_factor(self):
        cam = CameraIntrinsics(2000, 2000, 960, 540, 2000, 1080)
        assert real_to_virtual_depth(10.0, cam, VirtualCamera(500, 1000)) == pytest.approx(5.0, abs=0)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cam = random_intrinsics(rng)
            vc = VirtualCamera(rng.uniform(200, 1500), rng.uniform(500, 3000))
            x = rng.uniform(0.2, 3.0)
            z = rng.uniform(0.5, 50.0)
            expected = oracle_virtual_depth(x, z, cam, vc)
            assert real_to_virtual_depth(z, cam, vc) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_round_trip(self, z):
        cam = CameraIntrinsics(1234.0, 1200.0, 800.0, 450.0, 1600.0, 900.0)
        vc = VirtualCamera(500.0, 1000.0)
        back = virtual_to_real_depth(real_to_virtual_depth(z, cam, vc), cam, vc)
        assert back == pytest.approx(z, rel=1e-12)

    def test_inverse_hand_value(self):
        cam = CameraIntrinsics(2000, 2000, 960, 540, 2000, 1080)
        assert virtual_to_real_depth(5.0, cam, VirtualCamera(500, 1000)) == pytest.approx(10.0, abs=0)

    def test_focal_invariance(self):
        # fx' = k*fx with Z' = k*Z gives identical projected x-extents and
        # must give identical virtual depth, exactly.
        rng = np.random.default_rng(1)
        vc = VirtualCamera(500.0, 1000.0)
        for _ in range(100):
            cam = random_intrinsics(rng)
            k = rng.uniform(0.3, 4.0)
            scaled = cam._replace(fx=k * cam.fx)
            z = rng.uniform(0.5, 50.0)
            assert real_to_virtual_depth(z, cam, vc) == pytest.approx(
                real_to_virtual_depth(k * z, scaled, vc), rel=1e-12
            )

    def test_non_positive_rejected(self):
        vc = VirtualCamera()
        with pytest.raises(NonPositiveDepth):
            real_to_virtual_depth(0.0, CAM, vc)
        with pytest.raises(NonPositiveDepth):
            virtual_to_real_depth(-3.0, CAM, vc)


class TestHeightDepth:
    def test_hand_value(self):
        assert height_depth(1.5, 100.0, CAM) == pytest.approx(15.0, abs=0)

    def test_focal_cancels(self):
        assert height_depth(1.0, CAM.fy, CAM) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateHeight):
            height_depth(1.5, 0.0, CAM)
        with pytest.raises(DegenerateHeight):
            height_depth(0.0, 10.0, CAM)


class TestFuseDepth:
    def test_mean(self):
        assert fuse_depth(4.0, 6.0, DepthMode.FUSED_AVERAGE) == 5.0

    def test_virtual_only_passthrough(self):
        assert fuse_depth(4.0, None, DepthMode.VIRTUAL_ONLY) == 4.0
        assert fuse_depth(4.0, 1e9, DepthMode.VIRTUAL_ONLY) == 4.0

    def test_idempotent_on_equal(self):
        assert fuse_depth(3.7, 3.7, DepthMode.FUSED_AVERAGE) == 3.7

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_inputs(self, z1, z2):
        fused = fuse_depth(z1, z2, DepthMode.FUSED_AVERAGE)
        assert min(z1, z2) <= fused <= max(z1, z2)

    def test_invalid(self):
        with pytest.raises(NonPositiveDepth):
            fuse_depth(0.0, 5.0, DepthMode.VIRTUAL_ONLY)
        with pytest.raises(NonPositiveDepth):
            fuse_depth(5.0, -1.0, DepthMode.FUSED_AVERAGE)


class TestBackproject:
    def test_principal_point(self):
        assert backproject_center(Point2D(960, 540), 5.0, CAM) == Point3D(0.0, 0.0, 5.0)

    def test_inverse_of_project_example(self):
        p = backproject_center(Point2D(1160, 540), 5.0, CAM)
        assert p == pytest.approx((1.0, 0.0, 5.0))

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            cam = random_intrinsics(rng)
            point = Point3D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 100))
            back = backproject_center(project(point, cam), point.Z, cam)
            assert np.allclose(back, point, rtol=1e-9, atol=0)

    def test_non_positive_depth(self):
        with pytest.raises(NonPositiveDepth):
            backproject_center(Point2D(0, 0), 0.0, CAM)


def closed_form_fused_center(raw, cam, vc, h2d):
    """The end-to-end algebraic expansion of the fused reasoning chain,
    written out independently as an oracle."""
    (u_norm, v_norm), d_v, H = raw[UV], raw[D_V], raw[SIZE][2]
    u = u_norm * cam.width
    v = v_norm * cam.height
    x = (d_v / vc.fx_v * vc.width_v / cam.width + H / h2d * cam.fy / cam.fx) * (u - cam.cx) / 2
    y = (cam.fx / cam.fy * d_v / vc.fx_v * vc.width_v / cam.width + H / h2d) * (v - cam.cy) / 2
    z = (d_v * cam.fx / vc.fx_v * vc.width_v / cam.width + H / h2d * cam.fy) / 2
    return x, y, z


class TestReasonCenter:
    def _perfect_raw(self, box, cam, vc):
        center = Point3D(*box[CENTER])
        pix = project(center, cam)
        d_v = real_to_virtual_depth(center.Z, cam, vc)
        return make_raw(pix.u / cam.width, pix.v / cam.height, d_v, *box[DIMS])

    def test_virtual_only_recovers_center(self):
        rng = np.random.default_rng(3)
        vc = VirtualCamera()
        for _ in range(100):
            cam = random_intrinsics(rng)
            box = random_box(rng)
            box = make_box(box[CENTER] + np.array([0, 0, 5.0]), box[DIMS], box[ROT])
            raw = self._perfect_raw(box, cam, vc)
            got = reason_center(raw, cam, vc, DepthMode.VIRTUAL_ONLY)
            assert np.allclose(got, box[CENTER], atol=1e-9)

    def test_fused_recovers_center_with_exact_h2d(self):
        rng = np.random.default_rng(4)
        vc = VirtualCamera()
        for _ in range(100):
            cam = random_intrinsics(rng)
            box = random_box(rng)
            box = make_box(box[CENTER] + np.array([0, 0, 10.0]), box[DIMS], box[ROT])
            raw = self._perfect_raw(box, cam, vc)
            h2d = cam.fy * box[DIMS][2] / box[CENTER][2]
            got = reason_center(raw, cam, vc, DepthMode.FUSED_AVERAGE, h2d=h2d)
            assert np.allclose(got, box[CENTER], atol=1e-9)

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(5)
        vc = VirtualCamera(731.0, 1300.0)
        for _ in range(100):
            cam = random_intrinsics(rng)
            raw = make_raw(
                u_norm=rng.uniform(0.1, 0.9),
                v_norm=rng.uniform(0.1, 0.9),
                d_v=rng.uniform(0.5, 20.0),
                L=1.0,
                W=1.0,
                H=rng.uniform(0.5, 3.0),
            )
            h2d = rng.uniform(10.0, 300.0)
            got = reason_center(raw, cam, vc, DepthMode.FUSED_AVERAGE, h2d=h2d)
            assert got == pytest.approx(np.array(closed_form_fused_center(raw, cam, vc, h2d)), rel=1e-12)

    def test_virtual_camera_choice_cancels(self):
        # Encoding d_v under one reference camera and decoding under the same
        # one must give the same center for any reference choice.
        rng = np.random.default_rng(6)
        vc_a = VirtualCamera(500.0, 1000.0)
        vc_b = VirtualCamera(977.0, 3111.0)
        for _ in range(100):
            cam = random_intrinsics(rng)
            box = random_box(rng)
            box = make_box(box[CENTER] + np.array([0, 0, 8.0]), box[DIMS], box[ROT])
            got_a = reason_center(self._perfect_raw(box, cam, vc_a), cam, vc_a, DepthMode.VIRTUAL_ONLY)
            got_b = reason_center(self._perfect_raw(box, cam, vc_b), cam, vc_b, DepthMode.VIRTUAL_ONLY)
            assert np.allclose(got_a, got_b, rtol=1e-12, atol=1e-14)

    def test_zero_virtual_depth_rejected(self):
        raw = make_raw(0.5, 0.5, 0.0, 1, 1, 1)
        with pytest.raises(NonPositiveDepth):
            reason_center(raw, CAM, VirtualCamera(), DepthMode.VIRTUAL_ONLY)

    def test_missing_h2d_rejected(self):
        raw = make_raw(0.5, 0.5, 2.0, 1, 1, 1)
        with pytest.raises(MissingHeight2D):
            reason_center(raw, CAM, VirtualCamera(), DepthMode.FUSED_AVERAGE)

    @pytest.mark.parametrize("shape", [(6,), (11,), (1, 12)])
    def test_raw_that_is_not_one_row_rejected(self, shape):
        with pytest.raises(ShapeMismatch):
            reason_center(np.ones(shape), CAM, VirtualCamera(), DepthMode.VIRTUAL_ONLY)


def test_profile_virtual_cameras_share_defaults():
    assert INDOOR_PROFILE.virtual_camera == OUTDOOR_PROFILE.virtual_camera == VirtualCamera(500.0, 1000.0)


def test_raw_from_box_round_trip_uses_both_profiles():
    rng = np.random.default_rng(7)
    for profile in (INDOOR_PROFILE, OUTDOOR_PROFILE):
        cam = random_intrinsics(rng)
        box = random_box(rng, yaw_only=True)
        box = make_box(box[CENTER] + np.array([0, 0, 12.0]), box[DIMS], box[ROT])
        raw = raw_from_box(box, cam, profile)
        assert raw[D_V] > 0 and np.all((0 <= raw[UV]) & (raw[UV] <= 1))
        assert math.isclose(raw[SIZE][2], box[DIMS][2])
