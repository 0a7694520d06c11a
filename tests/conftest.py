"""Shared generators for randomized geometry tests, and a runner for code
under another OpenBLAS kernel."""

import ctypes
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mono3dg
from mono3dg.box3d import CENTER, box_row
from mono3dg.camera import CameraIntrinsics
from mono3dg.rotation import random_rotation


def random_intrinsics(rng: np.random.Generator) -> CameraIntrinsics:
    width = rng.uniform(640, 2048)
    height = width * rng.uniform(0.5, 0.8)
    fx = rng.uniform(500, 2000)
    return CameraIntrinsics(
        fx=fx,
        fy=fx * rng.uniform(0.95, 1.05),
        cx=width * rng.uniform(0.45, 0.55),
        cy=height * rng.uniform(0.45, 0.55),
        width=width,
        height=height,
    )


def make_box(center, dims, rot) -> np.ndarray:
    """One box as its (15,) row: center, dims (L, W, H) and the row-major rot."""
    return box_row(np.concatenate([np.ravel(center), np.ravel(dims), np.ravel(rot)]))


def random_box(rng: np.random.Generator, yaw_only: bool = False) -> np.ndarray:
    center = rng.uniform(-2.0, 2.0, size=3)
    dims = rng.uniform(0.3, 2.0, size=3)
    if yaw_only:
        yaw = rng.uniform(-np.pi, np.pi)
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        rot = random_rotation(rng)
    return make_box(center, dims, rot)


def overlapping_box_pair(rng: np.random.Generator, yaw_only: bool = False):
    a = random_box(rng, yaw_only)
    offset = rng.uniform(-0.8, 0.8, size=3)
    b_center = a[CENTER] + offset
    dims = rng.uniform(0.3, 2.0, size=3)
    if yaw_only:
        yaw = rng.uniform(-np.pi, np.pi)
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        rot = random_rotation(rng)
    return a, make_box(b_center, dims, rot)


def blas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS selected, e.g. ``SkylakeX``."""
    (lib,) = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return "avx2" in fh.read().split()
    except OSError:
        return False


# Decoder, fusion and toy-embedding bits depend on the OpenBLAS kernel, so
# their digests are pinned under the Haswell kernel, which needs AVX2.
haswell_pinned = pytest.mark.skipif(
    not _has_avx2(), reason="digest pinned under OpenBLAS's Haswell kernel, which needs AVX2"
)


def fresh_python(code: str, *args: str, env: dict | None = None) -> str:
    """Run ``python -c code *args`` in a fresh interpreter that imports
    mono3dg from this checkout and the test modules from the tests
    directory, with ``env`` added to the environment. Returns its stdout."""
    path = os.pathsep.join([str(Path(mono3dg.__file__).parents[1]), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, **(env or {}), "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def under_blas_kernel(coretype: str, module: str, function: str, *args):
    """Call ``module.function(*args)`` from the tests directory in a fresh
    interpreter whose OpenBLAS runs its ``coretype`` kernel. Arguments and
    result go through JSON. Returns the kernel the child reports and the
    result."""
    code = (
        "import importlib, json, sys\n"
        "from conftest import blas_kernel\n"
        f"result = getattr(importlib.import_module({module!r}), {function!r})(*json.loads(sys.argv[1]))\n"
        "print(json.dumps([blas_kernel(), result]))\n"
    )
    out = fresh_python(code, json.dumps(args), env={"OPENBLAS_CORETYPE": coretype})
    return json.loads(out.splitlines()[-1])
