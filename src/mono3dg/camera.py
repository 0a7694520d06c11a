"""Pinhole projection and depth reasoning in camera coordinates.

Implements the projection chain used to turn network head outputs into a 3D
box center: pixel projection, real<->virtual depth conversion under a fixed
reference camera, a second depth estimate from 2D/3D object heights, depth
fusion, and back-projection.

Conventions: camera frame is x-right, y-down, z-forward; all lengths in
meters, all image quantities in pixels. Every function here is pure. The
projection, depth and back-projection steps take scalars or (N,) columns
alike, so the chain runs on one query or on a whole file of them with the
same code. The chain takes raw rows and camera rows and returns box
centers as (N, 3) rows, and one query's center is row 0 of them.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .decoder import D_V, SIZE, UV, raw_row
from .errors import DegenerateHeight, MissingHeight2D, NonPositiveDepth, reject_first

# 2D heights below this many pixels are treated as degenerate.
HEIGHT2D_EPSILON = 1e-6


class CameraIntrinsics(NamedTuple):
    """Pinhole parameters (pixels) plus image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: float
    height: float


class VirtualCamera(NamedTuple):
    """Reference camera used to normalize depths across real cameras.

    Any fixed choice works: the conversion factors cancel between encoding
    and decoding. Defaults are fx_v=500, width_v=1000.
    """

    fx_v: float = 500.0
    width_v: float = 1000.0


class Point2D(NamedTuple):
    u: float
    v: float


class Point3D(NamedTuple):
    X: float
    Y: float
    Z: float


class DepthMode(enum.Enum):
    """How the final depth is assembled before back-projection."""

    VIRTUAL_ONLY = "virtual_only"
    FUSED_AVERAGE = "fused_average"


def project(p: Point3D, cam: CameraIntrinsics) -> Point2D:
    """Project a camera-frame point to pixel coordinates.

    Raises NonPositiveDepth if the point is on or behind the camera plane.
    """
    reject_first(p.Z <= 0.0, p.Z, NonPositiveDepth, "cannot project point with Z={}")
    return Point2D(cam.fx * p.X / p.Z + cam.cx, cam.fy * p.Y / p.Z + cam.cy)


def real_to_virtual_depth(z, cam: CameraIntrinsics, vc: VirtualCamera):
    """Depth the point would have under the virtual camera at the same
    normalized pixel position and the same X."""
    reject_first(z <= 0.0, z, NonPositiveDepth, "real depth must be positive, got {}")
    return (vc.fx_v / cam.fx) * (cam.width / vc.width_v) * z


def virtual_to_real_depth(d_v, cam: CameraIntrinsics, vc: VirtualCamera):
    """Exact inverse of :func:`real_to_virtual_depth`."""
    reject_first(d_v <= 0.0, d_v, NonPositiveDepth, "virtual depth must be positive, got {}")
    return d_v * (cam.fx / vc.fx_v) * (vc.width_v / cam.width)


def height_depth(h3d, h2d, cam: CameraIntrinsics):
    """Second depth estimate from the 3D object height and its 2D pixel height."""
    reject_first(h3d <= 0.0, h3d, DegenerateHeight, "3D height must be positive, got {}")
    reject_first(
        h2d <= HEIGHT2D_EPSILON,
        h2d,
        DegenerateHeight,
        f"2D height {{}} px is at or below {HEIGHT2D_EPSILON} px",
    )
    return (h3d / h2d) * cam.fy


def fuse_depth(z1, z2, mode: DepthMode):
    """Combine the virtual-depth estimate z1 with the height-based z2.

    VIRTUAL_ONLY returns z1 and ignores z2; FUSED_AVERAGE returns the plain
    mean of the two.
    """
    if z1 is None:
        raise NonPositiveDepth("z1 must be positive, got None")
    reject_first(z1 <= 0.0, z1, NonPositiveDepth, "z1 must be positive, got {}")
    if mode is DepthMode.VIRTUAL_ONLY:
        return z1
    if z2 is None:
        raise NonPositiveDepth("z2 must be positive for fused mode, got None")
    reject_first(z2 <= 0.0, z2, NonPositiveDepth, "z2 must be positive for fused mode, got {}")
    return 0.5 * (z1 + z2)


def backproject_center(p: Point2D, z, cam: CameraIntrinsics) -> Point3D:
    """Recover the camera-frame point from a pixel location and a depth."""
    reject_first(z <= 0.0, z, NonPositiveDepth, "depth must be positive, got {}")
    return Point3D((z / cam.fx) * (p.u - cam.cx), (z / cam.fy) * (p.v - cam.cy), z)


def reason_center_batch(
    raw: np.ndarray,
    cams: np.ndarray,
    vc: VirtualCamera,
    mode: DepthMode,
    h2d: np.ndarray | None = None,
) -> np.ndarray:
    """Full reasoning chain from head outputs to 3D box centers, for N queries.

    raw holds their (N, RAW_WIDTH) raw rows, of which only the center slots
    (UV, D_V and the height H) are read, cams their (N, 6) camera rows and
    h2d their (N,) 2D heights. Scales the normalized projection back to
    pixels, converts virtual depth to real depth, optionally fuses with the
    height-based depth (h2d is required in that mode), and back-projects.
    Returns the (N, 3) centers. The checks run in that order, each over all
    queries, and the first one to fail raises for its first failing query.
    """
    cam = CameraIntrinsics(*cams.T)
    u_norm, v_norm = raw[:, UV].T
    u = u_norm * cam.width
    v = v_norm * cam.height
    z1 = virtual_to_real_depth(raw[:, D_V], cam, vc)
    z2 = None
    if mode is DepthMode.FUSED_AVERAGE:
        if h2d is None:
            raise MissingHeight2D("fused depth mode requires a 2D height")
        z2 = height_depth(raw[:, SIZE][:, 2], h2d, cam)
    z = fuse_depth(z1, z2, mode)
    return np.stack(backproject_center(Point2D(u, v), z, cam), axis=-1)


def reason_center(
    raw: np.ndarray,
    cam: CameraIntrinsics,
    vc: VirtualCamera,
    mode: DepthMode,
    h2d: float | None = None,
) -> np.ndarray:
    """:func:`reason_center_batch` for one query's raw row: its (3,) center."""
    return reason_center_batch(
        raw_row(raw)[None],
        np.array([cam], dtype=float),
        vc,
        mode,
        None if h2d is None else np.array([h2d], dtype=float),
    )[0]
