"""Synthetic scene records, dataset profiles, and JSONL schemas.

A scene record is one image: camera intrinsics plus ground-truth objects
with captions, 3D boxes, 2D boxes, and the 2D height used by the fused
depth path. Generation samples box centers by back-projecting pixels drawn
inside the image, so every projected center is in bounds by construction.
One scene in ten is a focal pair of an earlier scene: fx and all object
depths doubled (with Y rescaled to keep the same pixel footprint), which
pins down the focal-invariance property of virtual depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .box3d import OrientedBox3D, corners
from .camera import HEIGHT2D_EPSILON, CameraIntrinsics, DepthMode, Point3D, VirtualCamera
from .decoder import RawHeadOutput
from .errors import InvalidRanges, NotARotation, SchemaError
from .jsonio import (
    as_finite_float,
    as_float_list,
    dumps_canonical,  # noqa: F401  perfbench/tracing.py wraps scenes.dumps_canonical
    read_jsonl,
    require_field,
    write_jsonl,
)
from .rotation import Rot6D, random_rotation, validate_rotation

FOCAL_PAIR_SUFFIX = "_fp"
FOCAL_PAIR_FRACTION = 10  # one pair scene per this many scenes

ROTATION_EGOCENTRIC = "egocentric"
ROTATION_ALLOCENTRIC = "allocentric"


@dataclass(frozen=True)
class DatasetProfile:
    """Evaluation-time choices that differ between indoor and outdoor data."""

    depth_mode: DepthMode
    rotation_frame: str
    virtual_camera: VirtualCamera = VirtualCamera()

    def __post_init__(self):
        if self.rotation_frame not in (ROTATION_EGOCENTRIC, ROTATION_ALLOCENTRIC):
            raise ValueError(f"unknown rotation frame {self.rotation_frame!r}")


# Outdoor scenes fuse the height-based depth and keep yaw-only boxes in the
# camera frame; indoor scenes are virtual-depth only with viewing-ray
# relative rotations.
OUTDOOR_PROFILE = DatasetProfile(DepthMode.FUSED_AVERAGE, ROTATION_EGOCENTRIC)
INDOOR_PROFILE = DatasetProfile(DepthMode.VIRTUAL_ONLY, ROTATION_ALLOCENTRIC)

_PROFILES = {"outdoor": OUTDOOR_PROFILE, "indoor": INDOOR_PROFILE}


def profile_by_name(name: str) -> DatasetProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; expected one of {sorted(_PROFILES)}")


@dataclass(frozen=True)
class SynthRanges:
    """Sampling ranges for synthetic scenes. All (lo, hi) with 0 < lo <= hi."""

    fx: tuple = (500.0, 2000.0)
    depth: tuple = (0.5, 8.0)
    length: tuple = (0.2, 2.5)
    width: tuple = (0.2, 2.5)
    height: tuple = (0.2, 2.5)
    image_width: tuple = (640.0, 2048.0)
    yaw_only: bool = False
    objects_per_scene: tuple = (1, 3)

    def validate(self) -> "SynthRanges":
        for name in ("fx", "depth", "length", "width", "height", "image_width"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi) or not math.isfinite(lo) or not math.isfinite(hi):
                raise InvalidRanges(f"range {name}=({lo}, {hi}) is invalid")
        lo, hi = self.objects_per_scene
        if not (1 <= lo <= hi):
            raise InvalidRanges(f"objects_per_scene=({lo}, {hi}) is invalid")
        return self


INDOOR_RANGES = SynthRanges()
OUTDOOR_RANGES = SynthRanges(
    depth=(2.0, 60.0),
    length=(1.0, 8.0),
    width=(0.5, 3.0),
    height=(0.5, 3.0),
    yaw_only=True,
)


def ranges_for_profile(name: str) -> SynthRanges:
    return OUTDOOR_RANGES if name == "outdoor" else INDOOR_RANGES


@dataclass(frozen=True)
class SceneObject:
    object_id: str
    caption: str
    box3d: OrientedBox3D
    box2d: tuple
    h2d: float


@dataclass(frozen=True)
class SceneRecord:
    image_id: str
    intrinsics: CameraIntrinsics
    objects: list = field(default_factory=list)


@dataclass(frozen=True)
class PredictionRecord:
    """One prediction per query: either raw head outputs or a direct box."""

    image_id: str
    object_id: str
    raw: RawHeadOutput | None = None
    box3d: OrientedBox3D | None = None

    def __post_init__(self):
        if (self.raw is None) == (self.box3d is None):
            raise ValueError("prediction must carry exactly one of raw / box3d")


# -- synthetic generation ------------------------------------------------------


def _sample_camera(rng: np.random.Generator, ranges: SynthRanges) -> CameraIntrinsics:
    width = rng.uniform(*ranges.image_width)
    height = width * rng.uniform(0.5, 0.8)
    fx = rng.uniform(*ranges.fx)
    fy = fx * rng.uniform(0.95, 1.05)
    cx = width * rng.uniform(0.45, 0.55)
    cy = height * rng.uniform(0.45, 0.55)
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)


def _sample_object(
    rng: np.random.Generator, cam: CameraIntrinsics, ranges: SynthRanges, object_id: str
) -> SceneObject:
    # Back-project a pixel drawn inside a 2-98% margin so the projected
    # center is in bounds by construction.
    u = cam.width * rng.uniform(0.02, 0.98)
    v = cam.height * rng.uniform(0.02, 0.98)
    z = rng.uniform(*ranges.depth)
    center = Point3D((z / cam.fx) * (u - cam.cx), (z / cam.fy) * (v - cam.cy), z)
    dims = (
        rng.uniform(*ranges.length),
        rng.uniform(*ranges.width),
        rng.uniform(*ranges.height),
    )
    if ranges.yaw_only:
        yaw = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        rot = random_rotation(rng)
    box = OrientedBox3D(np.array(center), np.array(dims), rot)
    return SceneObject(
        object_id=object_id,
        caption=f"object {object_id}",
        box3d=box,
        box2d=_project_box2d(box, cam),
        h2d=cam.fy * dims[2] / z,
    )


def _project_box2d(box: OrientedBox3D, cam: CameraIntrinsics) -> tuple:
    pts = corners(box)
    us = cam.fx * pts[:, 0] / pts[:, 2] + cam.cx
    vs = cam.fy * pts[:, 1] / pts[:, 2] + cam.cy
    return (
        float(np.clip(us.min(), 0.0, cam.width)),
        float(np.clip(vs.min(), 0.0, cam.height)),
        float(np.clip(us.max(), 0.0, cam.width)),
        float(np.clip(vs.max(), 0.0, cam.height)),
    )


def _focal_pair(base: SceneRecord) -> SceneRecord:
    # Double fx and every object depth; Y doubles so the pixel projection is
    # unchanged, and the virtual depth of each object is preserved exactly.
    cam = base.intrinsics._replace(fx=2.0 * base.intrinsics.fx)
    objects = []
    for obj in base.objects:
        c = obj.box3d.center
        new_center = np.array([c[0], 2.0 * c[1], 2.0 * c[2]])
        box = OrientedBox3D(new_center, obj.box3d.dims.copy(), obj.box3d.rot.copy())
        objects.append(
            replace(
                obj,
                box3d=box,
                box2d=_project_box2d(box, cam),
                h2d=cam.fy * obj.box3d.dims[2] / new_center[2],
            )
        )
    return SceneRecord(base.image_id + FOCAL_PAIR_SUFFIX, cam, objects)


def synth_scenes(
    n: int,
    seed: int,
    ranges: SynthRanges | None = None,
    profile_name: str = "indoor",
) -> list[SceneRecord]:
    """Generate n deterministic scene records; the last n//10 are focal
    pairs of the first n//10 base scenes."""
    if n < 1:
        raise InvalidRanges(f"need at least one scene, got n={n}")
    ranges = (ranges or ranges_for_profile(profile_name)).validate()
    rng = np.random.default_rng(seed)
    n_pairs = n // FOCAL_PAIR_FRACTION
    records = []
    for i in range(n - n_pairs):
        cam = _sample_camera(rng, ranges)
        count = int(rng.integers(ranges.objects_per_scene[0], ranges.objects_per_scene[1] + 1))
        objects = [
            _sample_object(rng, cam, ranges, f"obj_{i:06d}_{j}") for j in range(count)
        ]
        records.append(SceneRecord(f"scene_{i:06d}", cam, objects))
    for i in range(n_pairs):
        records.append(_focal_pair(records[i]))
    return records


# -- JSON schemas --------------------------------------------------------------


def intrinsics_to_json(cam: CameraIntrinsics) -> dict:
    return {
        "fx": float(cam.fx),
        "fy": float(cam.fy),
        "cx": float(cam.cx),
        "cy": float(cam.cy),
        "width": float(cam.width),
        "height": float(cam.height),
    }


def intrinsics_from_json(obj, path: str = "intrinsics") -> CameraIntrinsics:
    cam = CameraIntrinsics(
        *(as_finite_float(require_field(obj, k, path), f"{path}.{k}")
          for k in ("fx", "fy", "cx", "cy", "width", "height"))
    )
    if cam.fx <= 0 or cam.fy <= 0 or cam.width <= 0 or cam.height <= 0:
        raise SchemaError(path, "fx, fy, width, height must be positive")
    if not (0 <= cam.cx <= cam.width and 0 <= cam.cy <= cam.height):
        raise SchemaError(path, "principal point must lie inside the image")
    return cam


def box_to_json(box: OrientedBox3D) -> dict:
    return {
        "center": [float(x) for x in box.center],
        "dims": [float(x) for x in box.dims],
        "rot": [float(x) for x in box.rot.ravel()],
    }


def box_from_json(obj, path: str = "box3d") -> OrientedBox3D:
    center = as_float_list(require_field(obj, "center", path), f"{path}.center", 3)
    dims = as_float_list(require_field(obj, "dims", path), f"{path}.dims", 3)
    rot = as_float_list(require_field(obj, "rot", path), f"{path}.rot", 9)
    if min(dims) <= 0:
        raise SchemaError(f"{path}.dims", "dimensions must be positive")
    matrix = np.array(rot).reshape(3, 3)
    try:
        validate_rotation(matrix, tol=1e-6)  # loose: serialized at 17 digits
    except NotARotation as exc:
        raise SchemaError(f"{path}.rot", str(exc)) from exc
    return OrientedBox3D(np.array(center), np.array(dims), matrix)


def raw_to_json(raw: RawHeadOutput) -> dict:
    return {
        "u_norm": float(raw.u_norm),
        "v_norm": float(raw.v_norm),
        "d_v": float(raw.d_v),
        "L": float(raw.L),
        "W": float(raw.W),
        "H": float(raw.H),
        "rot6d": [float(x) for x in raw.rot6d.as_array()],
    }


def raw_from_json(obj, path: str = "raw") -> RawHeadOutput:
    vals = {
        k: as_finite_float(require_field(obj, k, path), f"{path}.{k}")
        for k in ("u_norm", "v_norm", "d_v", "L", "W", "H")
    }
    if not (0.0 <= vals["u_norm"] <= 1.0 and 0.0 <= vals["v_norm"] <= 1.0):
        raise SchemaError(f"{path}.u_norm", "normalized projection must be in [0, 1]")
    if vals["d_v"] <= 0 or vals["L"] <= 0 or vals["W"] <= 0 or vals["H"] <= 0:
        raise SchemaError(f"{path}.d_v", "depth and sizes must be positive")
    rot6d = Rot6D.from_array(as_float_list(require_field(obj, "rot6d", path), f"{path}.rot6d", 6))
    a_norm = float(np.linalg.norm(rot6d.a))
    if a_norm < 1e-8:
        raise SchemaError(f"{path}.rot6d", "first column is numerically zero")
    residual = rot6d.b - (rot6d.a @ rot6d.b) / (a_norm * a_norm) * rot6d.a
    if float(np.linalg.norm(residual)) < 1e-8:
        raise SchemaError(f"{path}.rot6d", "columns are parallel")
    return RawHeadOutput(**vals, rot6d=rot6d)


def scene_to_json(record: SceneRecord) -> dict:
    return {
        "image_id": record.image_id,
        "intrinsics": intrinsics_to_json(record.intrinsics),
        "objects": [
            {
                "object_id": o.object_id,
                "caption": o.caption,
                "box3d": box_to_json(o.box3d),
                "box2d": [float(x) for x in o.box2d],
                "h2d": float(o.h2d),
            }
            for o in record.objects
        ],
    }


def scene_from_json(obj) -> SceneRecord:
    image_id = require_field(obj, "image_id")
    if not isinstance(image_id, str):
        raise SchemaError("image_id", "must be a string")
    cam = intrinsics_from_json(require_field(obj, "intrinsics"))
    raw_objects = require_field(obj, "objects")
    if not isinstance(raw_objects, list):
        raise SchemaError("objects", "must be a list")
    objects = []
    seen = set()
    for i, entry in enumerate(raw_objects):
        path = f"objects[{i}]"
        object_id = require_field(entry, "object_id", path)
        if not isinstance(object_id, str):
            raise SchemaError(f"{path}.object_id", "must be a string")
        if object_id in seen:
            raise SchemaError(f"{path}.object_id", f"duplicate id {object_id!r}")
        seen.add(object_id)
        caption = require_field(entry, "caption", path)
        box = box_from_json(require_field(entry, "box3d", path), f"{path}.box3d")
        if box.center[2] <= 0:
            raise SchemaError(f"{path}.box3d.center", "box center must have Z > 0")
        box2d = as_float_list(require_field(entry, "box2d", path), f"{path}.box2d", 4)
        x1, y1, x2, y2 = box2d
        if not (0.0 <= x1 <= x2 <= cam.width and 0.0 <= y1 <= y2 <= cam.height):
            raise SchemaError(
                f"{path}.box2d",
                f"{box2d} must satisfy 0 <= x1 <= x2 <= {cam.width} and 0 <= y1 <= y2 <= {cam.height}",
            )
        h2d = as_finite_float(require_field(entry, "h2d", path), f"{path}.h2d")
        if h2d <= HEIGHT2D_EPSILON:
            raise SchemaError(f"{path}.h2d", f"2D height {h2d} px must exceed {HEIGHT2D_EPSILON} px")
        objects.append(SceneObject(object_id, str(caption), box, tuple(box2d), h2d))
    return SceneRecord(image_id, cam, objects)


def prediction_to_json(pred: PredictionRecord) -> dict:
    out: dict = {"image_id": pred.image_id, "object_id": pred.object_id}
    if pred.raw is not None:
        out["raw"] = raw_to_json(pred.raw)
    else:
        out["box3d"] = box_to_json(pred.box3d)
    return out


def prediction_from_json(obj, mode: str) -> PredictionRecord:
    image_id = require_field(obj, "image_id")
    object_id = require_field(obj, "object_id")
    if not isinstance(image_id, str) or not isinstance(object_id, str):
        raise SchemaError("image_id", "ids must be strings")
    if mode == "raw":
        return PredictionRecord(image_id, object_id, raw=raw_from_json(require_field(obj, "raw")))
    if mode == "box":
        return PredictionRecord(image_id, object_id, box3d=box_from_json(require_field(obj, "box3d")))
    raise ValueError(f"unknown prediction mode {mode!r}")


# -- JSONL I/O -----------------------------------------------------------------


def write_scenes(path, records: list[SceneRecord]) -> None:
    write_jsonl(path, (scene_to_json(r) for r in records))


def read_scenes(path) -> list[SceneRecord]:
    seen = set()

    def decode(obj) -> SceneRecord:
        record = scene_from_json(obj)
        if record.image_id in seen:
            raise SchemaError("image_id", f"duplicate image_id {record.image_id!r}")
        seen.add(record.image_id)
        return record

    return list(read_jsonl(path, decode))


def write_predictions(path, records: list[PredictionRecord]) -> None:
    write_jsonl(path, (prediction_to_json(r) for r in records))


def read_predictions(path, mode: str) -> list[PredictionRecord]:
    records = list(read_jsonl(path, lambda obj: prediction_from_json(obj, mode)))
    seen = set()
    for r in records:
        key = (r.image_id, r.object_id)
        if key in seen:
            raise SchemaError("object_id", f"multiple predictions for {key}")
        seen.add(key)
    return records
