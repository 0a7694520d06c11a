"""Geometry, reasoning and scoring give the same bits under every OpenBLAS
kernel: each child process forces another kernel, reads fixed inputs from a
file and must reproduce the digest computed in this process."""

import hashlib
import platform

import numpy as np
import pytest

import test_box3d
from conftest import blas_kernel, overlapping_box_pair, under_blas_kernel
from mono3dg.box3d import OrientedBox3D, iou3d_batch, iou3d_bev_yaw_batch, iou3d_monte_carlo
from mono3dg.pipeline import box_from_raw_columns, raw_from_box_batch
from mono3dg.scenes import SceneTable, profile_by_name, synth_scenes


def _inputs() -> dict:
    """Head outputs with d_v scaled by 1.1 and their cameras and 2D heights
    in both profiles, the hard pairs of TestBatchEqualsAlone, yaw-only pairs,
    and one overlapping pair for the Monte-Carlo estimate."""
    inputs = {}
    for name in ("outdoor", "indoor"):
        table = SceneTable.of(synth_scenes(30, seed=4, profile_name=name))
        cams = table.cams[table.rows]
        raw = raw_from_box_batch(table.boxes, cams, profile_by_name(name))
        raw[:, 2] *= 1.1
        inputs.update({f"{name}_raw": raw, f"{name}_cams": cams, f"{name}_h2d": table.h2d})
    cases = test_box3d.TestBatchEqualsAlone._cases()
    inputs["a"] = np.array([a.row for _, a, _, _ in cases])
    inputs["b"] = np.array([b.row for _, _, b, _ in cases])
    rng = np.random.default_rng(40)
    yaw_pairs = [overlapping_box_pair(rng, yaw_only=True) for _ in range(50)]
    inputs["yaw_a"] = np.array([a.row for a, _ in yaw_pairs])
    inputs["yaw_b"] = np.array([b.row for _, b in yaw_pairs])
    inputs["monte_carlo"] = np.array([box.row for box in overlapping_box_pair(rng)])
    return inputs


def geometry_digest(path: str) -> str:
    """SHA-256 of the geometry chain on the inputs saved at path."""
    inputs = np.load(path)
    digest = hashlib.sha256()
    for name in ("outdoor", "indoor"):
        profile, cams = profile_by_name(name), inputs[f"{name}_cams"]
        boxes = box_from_raw_columns(inputs[f"{name}_raw"], cams, profile, inputs[f"{name}_h2d"])
        digest.update(boxes.tobytes())
        digest.update(raw_from_box_batch(boxes, cams, profile).tobytes())
    digest.update(iou3d_batch(inputs["a"], inputs["b"]).tobytes())
    digest.update(iou3d_bev_yaw_batch(inputs["yaw_a"], inputs["yaw_b"]).tobytes())
    a, b = map(OrientedBox3D.from_row, inputs["monte_carlo"])
    digest.update(np.float64(iou3d_monte_carlo(a, b, 200_000, seed=3)).tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS kernels are forced by x86-64 name"
)
def test_geometry_bits_are_the_same_under_other_blas_kernels(tmp_path):
    path = tmp_path / "inputs.npz"
    np.savez(path, **_inputs())
    expected = geometry_digest(str(path))
    kernels = set()
    for coretype in ("Haswell", "Prescott"):
        kernel, digest = under_blas_kernel(coretype, "test_blas_kernels", "geometry_digest", str(path))
        assert digest == expected, (coretype, kernel)
        kernels.add(kernel)
    # Children that all ran this process's kernel would prove nothing. On an
    # AVX-512 host neither does: they report Haswell and Katmai, the name
    # OpenBLAS gives its forced Prescott kernel.
    assert kernels - {blas_kernel()}, kernels
