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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring

import numpy as np

from .box3d import BOX_WIDTH, CENTER, DIMS, ROT, _CULL_ORTHO_TOL, _corners, box_row
from . import decoder
from .camera import (
    HEIGHT2D_EPSILON,
    CameraIntrinsics,
    DepthMode,
    Point2D,
    VirtualCamera,
    backproject_center,
)
from .errors import InvalidRanges, ParseError, SchemaError, ShapeMismatch
from .jsonio import (
    FLOAT,
    STRING,
    array_template,
    check_finite,
    dumps_canonical,  # noqa: F401  perfbench/tracing.py wraps scenes.dumps_canonical
    object_template,
    read_jsonl,
    write_templated,
)
from .rotation import SIXD_EPSILON, random_rotation, rot6d_to_matrix_batch, rotation_defects, sixd_gram_schmidt

# A camera table row holds the CameraIntrinsics fields, in order.
_CAM_WIDTH = len(CameraIntrinsics._fields)

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


def _by_profile(options: dict, name: str):
    try:
        return options[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; expected one of {sorted(options)}")


def profile_by_name(name: str) -> DatasetProfile:
    return _by_profile(_PROFILES, name)


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

    def __post_init__(self):
        for name in ("fx", "depth", "length", "width", "height", "image_width"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi) or not math.isfinite(lo) or not math.isfinite(hi):
                raise InvalidRanges(f"range {name}=({lo}, {hi}) is invalid")
        lo, hi = self.objects_per_scene
        if not (1 <= lo <= hi):
            raise InvalidRanges(f"objects_per_scene=({lo}, {hi}) is invalid")


INDOOR_RANGES = SynthRanges()
OUTDOOR_RANGES = SynthRanges(
    depth=(2.0, 60.0),
    length=(1.0, 8.0),
    width=(0.5, 3.0),
    height=(0.5, 3.0),
    yaw_only=True,
)


_RANGES = {"outdoor": OUTDOOR_RANGES, "indoor": INDOOR_RANGES}


def ranges_for_profile(name: str) -> SynthRanges:
    return _by_profile(_RANGES, name)


# Records hold arrays, so == on them is identity (eq=False): field-wise
# == would compare arrays and raise.
@dataclass(frozen=True, eq=False)
class SceneObject:
    object_id: str
    caption: str
    box3d: np.ndarray  # (15,) box row
    box2d: tuple
    h2d: float


@dataclass(frozen=True, eq=False)
class SceneRecord:
    image_id: str
    intrinsics: CameraIntrinsics
    objects: list = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class PredictionRecord:
    """One prediction per query: either raw head outputs or a direct box."""

    image_id: str
    object_id: str
    raw: np.ndarray | None = None  # (decoder.RAW_WIDTH,) raw row
    box3d: np.ndarray | None = None  # (15,) box row

    def __post_init__(self):
        if (self.raw is None) == (self.box3d is None):
            raise ValueError("prediction must carry exactly one of raw / box3d")


# Scenes and predictions are generated, scored and written as column
# tables: synth_scenes draws every column at once, and the writers format
# a table's columns a chunk of rows at a time. A table is also a read-only
# sequence of the records above; each record is built when it is read and
# not kept, so a table holds its columns only. A record's box3d or raw is a
# view of its table's row.


@dataclass(frozen=True, eq=False)
class SceneTable(Sequence):
    """S scenes with M objects in all, as columns; objects are in scene order."""

    image_ids: list  # S strings
    cams: np.ndarray  # (S, _CAM_WIDTH): fx, fy, cx, cy, width, height
    rows: np.ndarray  # (M,) the scene of each object
    object_ids: list  # M strings
    captions: list  # M strings
    boxes: np.ndarray  # (M, 15): center, dims, row-major rot
    box2d: np.ndarray  # (M, 4)
    h2d: np.ndarray  # (M,)

    @staticmethod
    def of(scenes) -> "SceneTable":
        """scenes as a table: a table as it is, scene records as columns."""
        if isinstance(scenes, SceneTable):
            return scenes
        scenes = list(scenes)
        objects = [(row, obj) for row, record in enumerate(scenes) for obj in record.objects]
        return SceneTable(
            [record.image_id for record in scenes],
            np.array([record.intrinsics for record in scenes], dtype=float).reshape(-1, _CAM_WIDTH),
            np.array([row for row, _ in objects], dtype=int),
            [obj.object_id for _, obj in objects],
            [obj.caption for _, obj in objects],
            np.array([box_row(obj.box3d) for _, obj in objects]).reshape(-1, BOX_WIDTH),
            np.array([obj.box2d for _, obj in objects], dtype=float).reshape(-1, 4),
            np.array([obj.h2d for _, obj in objects], dtype=float),
        )

    @property
    def keys(self) -> list:
        """The (image_id, object_id) of every object."""
        return [(self.image_ids[row], oid) for row, oid in zip(self.rows.tolist(), self.object_ids)]

    @cached_property
    def _starts(self) -> list:
        return np.searchsorted(self.rows, np.arange(len(self.image_ids) + 1)).tolist()

    def __len__(self) -> int:
        return len(self.image_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative from the end; IndexError past it
        objects = [
            SceneObject(
                self.object_ids[m],
                self.captions[m],
                self.boxes[m],
                tuple(self.box2d[m].tolist()),
                float(self.h2d[m]),
            )
            for m in range(self._starts[i], self._starts[i + 1])
        ]
        return SceneRecord(self.image_ids[i], CameraIntrinsics(*self.cams[i].tolist()), objects)


@dataclass(frozen=True, eq=False)
class PredictionTable(Sequence):
    """N predictions as rows of one kind, which the width of values tells:
    raw rows (N, decoder.RAW_WIDTH) of head outputs, or boxes (N, BOX_WIDTH)
    as center, dims and row-major rot."""

    keys: list  # N (image_id, object_id)
    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 2 or shape[1] not in (decoder.RAW_WIDTH, BOX_WIDTH) or shape[0] != len(self.keys):
            raise ShapeMismatch(
                f"prediction values {shape} vs ({len(self.keys)}, {decoder.RAW_WIDTH} or {BOX_WIDTH})"
            )

    @staticmethod
    def of(preds) -> "PredictionTable":
        """preds as a table: a table as it is, records of one kind as rows (raw if none)."""
        if isinstance(preds, PredictionTable):
            return preds
        preds = list(preds)
        box = bool(preds) and preds[0].raw is None
        if any((p.raw is None) != box for p in preds):
            raise ValueError("a prediction table holds raw predictions or boxes, not both")
        rows = [box_row(p.box3d) if box else decoder.raw_row(p.raw) for p in preds]
        values = np.array(rows) if rows else np.empty((0, decoder.RAW_WIDTH))
        return PredictionTable([(p.image_id, p.object_id) for p in preds], values)

    @cached_property
    def mode(self) -> str:
        """The kind of every row, "raw" or "box", by the width of values."""
        return "raw" if self.values.shape[1] == decoder.RAW_WIDTH else "box"

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative from the end; IndexError past it
        if self.mode == "raw":
            return PredictionRecord(*self.keys[i], raw=self.values[i])
        return PredictionRecord(*self.keys[i], box3d=self.values[i])


# -- synthetic generation ------------------------------------------------------


# The uniform draws of one camera, in order: image width, height / width,
# fx, fy / fx, cx / width and cy / height.
def _camera_bounds(ranges: SynthRanges) -> list:
    return [ranges.image_width, (0.5, 0.8), ranges.fx, (0.95, 1.05), (0.45, 0.55), (0.45, 0.55)]


# The uniform draws of one object, in order: the projected center as
# fractions of the image width and height, inside a 2-98% margin so it is
# in bounds by construction; depth; L, W, H; and the yaw of a yaw-only box.
def _object_bounds(ranges: SynthRanges) -> list:
    bounds = [(0.02, 0.98), (0.02, 0.98), ranges.depth, ranges.length, ranges.width, ranges.height]
    return bounds + [(-math.pi, math.pi)] if ranges.yaw_only else bounds


def _uniform(draws: np.ndarray, bounds: list) -> np.ndarray:
    """Each column of Generator.random draws mapped onto its (lo, hi) as
    lo + (hi - lo) * d, the arithmetic of Generator.uniform: the values are
    the uniform calls' own, draw for draw."""
    lo, hi = np.array(bounds, dtype=float).T
    return lo + (hi - lo) * draws


def synth_scenes(
    n: int,
    seed: int,
    ranges: SynthRanges | None = None,
    profile_name: str = "indoor",
) -> SceneTable:
    """Generate n deterministic scenes as a table; the last n//10 are focal
    pairs of the first n//10 base scenes."""
    if n < 1:
        raise InvalidRanges(f"need at least one scene, got n={n}")
    ranges = ranges or ranges_for_profile(profile_name)
    rng = np.random.default_rng(seed)
    n_pairs = n // FOCAL_PAIR_FRACTION
    object_bounds = _object_bounds(ranges)
    # Each base scene draws its camera, its object count and then its
    # objects, in one call where the stream allows: an object that is not
    # yaw-only draws its random rotation right after its uniforms.
    cam_draws, counts, object_draws, rots = [], [], [], []
    for _ in range(n - n_pairs):
        cam_draws.append(rng.random(6))
        count = int(rng.integers(ranges.objects_per_scene[0], ranges.objects_per_scene[1] + 1))
        counts.append(count)
        if ranges.yaw_only:
            object_draws.append(rng.random(len(object_bounds) * count))
        else:
            for _ in range(count):
                object_draws.append(rng.random(len(object_bounds)))
                rots.append(random_rotation(rng))
    width, aspect, fx, fy_scale, cx_frac, cy_frac = _uniform(np.array(cam_draws), _camera_bounds(ranges)).T
    height = width * aspect
    cams = np.stack([fx, fx * fy_scale, width * cx_frac, height * cy_frac, width, height], axis=1)
    draws = _uniform(np.concatenate(object_draws).reshape(-1, len(object_bounds)), object_bounds)
    cam = CameraIntrinsics(*cams[np.repeat(np.arange(len(cams)), counts)].T)
    center = np.stack(
        backproject_center(Point2D(cam.width * draws[:, 0], cam.height * draws[:, 1]), draws[:, 2], cam),
        axis=1,
    )
    dims = draws[:, 3:6]
    if ranges.yaw_only:
        # math's cos and sin, one yaw at a time: numpy's vectorized ones may
        # round differently, and the synthesized files are pinned bytes.
        yaw = draws[:, 6].tolist()
        c, s = np.array(list(map(math.cos, yaw))), np.array(list(map(math.sin, yaw)))
        zero, one = np.zeros_like(c), np.ones_like(c)
        rot = np.stack([c, -s, zero, s, c, zero, zero, zero, one], axis=1).reshape(-1, 3, 3)
    else:
        rot = np.array(rots)
    # A focal pair doubles fx and every object depth; Y doubles so the pixel
    # projection is unchanged, and the virtual depth of each object is
    # preserved exactly.
    paired = sum(counts[:n_pairs])
    image_ids = [f"scene_{i:06d}" for i in range(n - n_pairs)]
    image_ids += [image_id + FOCAL_PAIR_SUFFIX for image_id in image_ids[:n_pairs]]
    object_ids = [f"obj_{i:06d}_{j}" for i, count in enumerate(counts) for j in range(count)]
    object_ids += object_ids[:paired]
    cams = np.concatenate([cams, cams[:n_pairs] * [2.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
    rows = np.repeat(np.arange(n), counts + counts[:n_pairs])
    center = np.concatenate([center, center[:paired] * [1.0, 2.0, 2.0]])
    dims = np.concatenate([dims, dims[:paired]])
    rot = np.concatenate([rot, rot[:paired]])

    # Every 2D box is the image extent of its box's projected corners,
    # clipped to the image.
    boxes = np.hstack([center, dims, rot.reshape(-1, 9)])
    fx, fy, cx, cy, width, height = cams[rows].T
    pts = _corners(boxes)
    us = fx[:, None] * pts[:, :, 0] / pts[:, :, 2] + cx[:, None]
    vs = fy[:, None] * pts[:, :, 1] / pts[:, :, 2] + cy[:, None]
    box2d = np.stack(
        [
            np.clip(us.min(axis=1), 0.0, width),
            np.clip(vs.min(axis=1), 0.0, height),
            np.clip(us.max(axis=1), 0.0, width),
            np.clip(vs.max(axis=1), 0.0, height),
        ],
        axis=1,
    )
    return SceneTable(
        image_ids,
        cams,
        rows,
        object_ids,
        [f"object {object_id}" for object_id in object_ids],
        boxes,
        box2d,
        fy * dims[:, 2] / center[:, 2],
    )


# -- JSON schemas --------------------------------------------------------------
#
# Records are validated as columns. One walk per record kind (_walk_scene,
# _walk_prediction), driven by _walk_records, visits each record once, in
# step order: it checks the record's structure (fields present, strings,
# list lengths, ids) through _field and type tests, and gathers every
# number, unchecked, into a column. At the record's first structural fault
# it raises _Structure; the numbers read before the fault stay gathered and
# the rest of the record reads as NaN.
# Each remaining rule is then one predicate over whole columns. Every check
# has a position (record, object, step): object -1 is the scene level
# before any object, _AFTER_OBJECTS follows the last one, and steps follow
# the order in which one record is read. The failure at the earliest
# position is raised, so a file reports the error that reading it one
# record at a time would.

_AFTER_OBJECTS = 1 << 30
_NUMBER_TYPES = {int, float}  # JSON numbers; bool is a subclass of int but not one
_JSON_ROTATION_TOL = 1e-6  # loose: serialized at 17 digits
_ROT_FIRST_COLUMNS = [6, 9, 12, 7, 10, 13]  # R's first two columns, as a 6D row of a box row

# Scene-level steps: image_id 0-1, intrinsics field k present at 2 + 2k and a
# number at 3 + 2k, then the intrinsics rules, then the objects list.
_INTRINSICS_STEPS = tuple(range(3, 15, 2))
_INTRINSICS_POSITIVE, _PRINCIPAL_POINT, _OBJECTS_PRESENT, _OBJECTS_LIST = 14, 15, 16, 17

# Object-level steps: object_id 0-2, caption 3-4, box3d present 5, then each
# number list (present and of the right length at its first step, its
# numbers after), the box rules, Z, box2d and h2d.
_BOX_LISTS = (("center", 3, 6), ("dims", 3, 10), ("rot", 9, 14))
_DIMS_POSITIVE, _VOLUME_FINITE, _ORTHONORMAL, _DETERMINANT, _CENTER_Z = 24, 25, 26, 27, 28
_BOX2D_LIST, _BOX2D_BOUNDS, _H2D_PRESENT, _H2D_ABOVE_EPSILON = 29, 34, 35, 37
# The number columns of an object, with the step and name of each.
_OBJECT_STEPS = tuple(
    [first + 1 + k for _, width, first in _BOX_LISTS for k in range(width)]
    + [_BOX2D_LIST + 1 + k for k in range(4)]
    + [_H2D_PRESENT + 1]
)
_OBJECT_NAMES = tuple(
    [f"box3d.{name}[{k}]" for name, width, _ in _BOX_LISTS for k in range(width)]
    + [f"box2d[{k}]" for k in range(4)]
    + ["h2d"]
)
_BOX2D_COLUMNS, _H2D_COLUMN = slice(BOX_WIDTH, BOX_WIDTH + 4), BOX_WIDTH + 4

# Prediction steps: image_id and object_id present 0-1, both strings 2, the
# payload present 3. Raw field k is present at 4 + 2k and a number at
# 5 + 2k, then its rules and rot6d; a box payload takes the box steps above.
_UV_RANGE, _RAW_POSITIVE, _RAW_VOLUME, _ROT6D_LIST, _ROT6D_ZERO, _ROT6D_PARALLEL = (
    16, 17, 18, 19, 26, 27
)
_RAW_STEPS = tuple(range(5, 17, 2)) + tuple(range(_ROT6D_LIST + 1, _ROT6D_LIST + 7))
_RAW_NAMES = tuple(f"raw.{k}" for k in decoder.RAW_FIELDS) + tuple(f"raw.rot6d[{k}]" for k in range(6))


class _Structure(Exception):
    """A structural failure met while walking records; it ends the walk. slot
    is the object it was met in, -1 before the record's objects."""

    def __init__(self, step: int, field: str, message: str, slot: int = -1):
        super().__init__(message)
        self.step, self.field, self.message, self.slot = step, field, message, slot


class _Failures:
    """The earliest failed check of a batch of records, by position."""

    def __init__(self):
        self.lines = []  # line number of each record walked; None for a bare record
        self.position = None
        self.error = None

    def add(self, position: tuple, error) -> None:
        """Note a failure at position: a SchemaError's (field, message) pair
        or a ready error."""
        if self.position is None or position < self.position:
            self.position, self.error = position, error

    def column(self, bad, rows, objects, step: int, field, message) -> None:
        """A rule over a column: bad marks the failing entries, which are in
        file order; field and message map the first one's index to text."""
        if bad.any():
            i = int(bad.argmax())
            self.add((rows[i], objects[i], step), (field(i), message(i)))

    def numbers(self, values: list, width: int, rows, objects, steps, name):
        """The gathered values as a float64 (-1, width) array, once each is
        checked to be a finite JSON number; column c's check is at steps[c]
        and name(i, c) is the field of entry (i, c)."""
        not_number = None
        numbers = values
        if not set(map(type, values)) <= _NUMBER_TYPES:
            not_number = np.array([type(v) not in _NUMBER_TYPES for v in values])
            numbers = [math.nan if bad else v for v, bad in zip(values, not_number)]
            not_number = not_number.reshape(-1, width)
        try:
            array = np.array(numbers, dtype=float)
        except OverflowError:  # an integer literal beyond float range reads as inf
            array = np.array([_to_float(v) for v in numbers])
        array = array.reshape(-1, width)
        bad = ~np.isfinite(array)
        if not_number is not None:
            bad |= not_number
        if bad.any():
            i, c = divmod(int(bad.argmax()), width)
            if not_number is not None and not_number[i, c]:
                message = f"expected a number, got {type(values[i * width + c]).__name__}"
            else:
                message = "NaN/Inf forbidden"
            self.add((rows[i], objects[i], steps[c]), (name(i, c), message))
        return array

    def raise_first(self) -> None:
        if self.error is None:
            return
        if isinstance(self.error, Exception):
            raise self.error
        field, message = self.error
        error = SchemaError(field, message)
        line = self.lines[self.position[0]]
        if line is None:
            raise error
        raise SchemaError(field, f"line {line}: {error}") from error


def _to_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _field(obj, key: str, step: int, path: str = ""):
    """obj[key]; a record or object without it, or one that is not an
    object, is missing field path + key at step."""
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise _Structure(step, path + key, "missing")


def _string(obj, key: str, step: int) -> str:
    """obj[key], present at step and a string at step + 1."""
    value = _field(obj, key, step)
    if not isinstance(value, str):
        raise _Structure(step + 1, key, "must be a string")
    return value


def _number_list(obj, path: str, key: str, length: int, step: int, out: list) -> None:
    """Gather obj[key], a list of length numbers, into out; path is the
    prefix of the field's name."""
    value = _field(obj, key, step, path)
    if not isinstance(value, list) or len(value) != length:
        raise _Structure(step, path + key, f"expected a list of {length} numbers")
    out += value


def _walk_intrinsics(obj, out: list) -> None:
    """Gather the six numbers of an intrinsics object into out, in
    CameraIntrinsics order. Field k is present at 2 + 2k; when one is
    missing, the fields before it, whose checks precede it, are gathered."""
    try:
        out += obj["fx"], obj["fy"], obj["cx"], obj["cy"], obj["width"], obj["height"]
    except (KeyError, TypeError):
        for k, key in enumerate(CameraIntrinsics._fields):
            out.append(_field(obj, key, 2 + 2 * k, "intrinsics."))


def _walk_box(box, out: list) -> None:
    """Gather the 15 numbers of a box3d object into out: center, dims, rot."""
    for name, length, step in _BOX_LISTS:
        _number_list(box, "box3d.", name, length, step, out)


def _walk_scene(rec, seen: set, image_ids, cams, counts, object_ids, captions, values) -> None:
    """Walk one scene record, appending its image_id, its six intrinsics, its
    number of objects and each object's id, caption and numbers; seen holds
    the image_ids of the records before it."""
    image_id = _string(rec, "image_id", 0)
    image_ids.append(image_id)
    _walk_intrinsics(_field(rec, "intrinsics", 2), cams)
    objects = _field(rec, "objects", _OBJECTS_PRESENT)
    if not isinstance(objects, list):
        raise _Structure(_OBJECTS_LIST, "objects", "must be a list")
    ids = set()
    try:
        for slot, entry in enumerate(objects):
            object_id = _string(entry, "object_id", 0)
            if object_id in ids:
                raise _Structure(2, "object_id", f"duplicate id {object_id!r}")
            ids.add(object_id)
            object_ids.append(object_id)
            captions.append(_string(entry, "caption", 3))
            _walk_box(_field(entry, "box3d", 5), values)
            _number_list(entry, "", "box2d", 4, _BOX2D_LIST, values)
            values.append(_field(entry, "h2d", _H2D_PRESENT))
    except _Structure as failure:
        counts.append(slot + 1)  # the objects begun, the failing one last
        # The object's path is built only here, once the walk has failed.
        failure.slot, failure.field = slot, f"objects[{slot}].{failure.field}"
        raise
    counts.append(len(objects))
    if image_id in seen:
        raise _Structure(0, "image_id", f"duplicate image_id {image_id!r}", _AFTER_OBJECTS)
    seen.add(image_id)


def _walk_raw(raw, out: list) -> None:
    """Gather the 12 numbers of a raw object into out, in raw row order;
    see _walk_intrinsics. Field k is present at 4 + 2k."""
    try:
        out += raw["u_norm"], raw["v_norm"], raw["d_v"], raw["L"], raw["W"], raw["H"]
    except (KeyError, TypeError):
        for k, key in enumerate(decoder.RAW_FIELDS):
            out.append(_field(raw, key, 4 + 2 * k, "raw."))
    _number_list(raw, "raw.", "rot6d", 6, _ROT6D_LIST, out)


# The payload field and its walk, by prediction mode.
_PAYLOADS = {"raw": ("raw", _walk_raw), "box": ("box3d", _walk_box)}


def _walk_prediction(rec, name: str, walk, seen: set, keys: list, values: list) -> None:
    """Walk one prediction record, appending its key and the numbers of its
    payload, rec[name], which walk gathers; seen holds the keys before it."""
    key = _field(rec, "image_id", 0), _field(rec, "object_id", 1)
    if not isinstance(key[0], str) or not isinstance(key[1], str):
        raise _Structure(2, "image_id", "ids must be strings")
    keys.append(key)
    walk(_field(rec, name, 3), values)
    if key in seen:
        raise _Structure(0, "object_id", f"multiple predictions for {key}", _AFTER_OBJECTS)
    seen.add(key)


def _walk_records(fail: _Failures, numbered, walk, *args) -> None:
    """Walk each (line number or None, record) of numbered with
    walk(record, *args) up to the first ParseError or structural fault,
    which fail notes at its position. Callers pad the numbers of a record
    cut short with NaN: every check on them sits after the fault."""
    try:
        for row, (line, rec) in enumerate(numbered):
            fail.lines.append(line)
            walk(rec, *args)
    except ParseError as error:
        fail.add((len(fail.lines), -1, -1), error)
    except _Structure as failure:
        fail.add((row, failure.slot, failure.step), (failure.field, failure.message))


def _check_intrinsics(fail: _Failures, values: list, rows, objects) -> np.ndarray:
    cam = fail.numbers(
        values, _CAM_WIDTH, rows, objects, _INTRINSICS_STEPS, lambda i, c: f"intrinsics.{CameraIntrinsics._fields[c]}"
    )
    fx, fy, cx, cy, width, height = cam.T
    fail.column(
        (fx <= 0) | (fy <= 0) | (width <= 0) | (height <= 0), rows, objects, _INTRINSICS_POSITIVE,
        lambda i: "intrinsics", lambda i: "fx, fy, width, height must be positive",
    )
    fail.column(
        ~((0 <= cx) & (cx <= width) & (0 <= cy) & (cy <= height)), rows, objects, _PRINCIPAL_POINT,
        lambda i: "intrinsics", lambda i: "principal point must lie inside the image",
    )
    return cam


def _check_boxes(fail: _Failures, box: np.ndarray, rows, objects, path) -> None:
    """Rules on (M, 15) box columns (center, dims, row-major rot); path(i)
    is entry i's box field. A near-rotation is stored, in place, as the frame
    of its first two columns."""
    dims = box[:, DIMS]
    fail.column(
        (dims <= 0).any(axis=1), rows, objects, _DIMS_POSITIVE,
        lambda i: f"{path(i)}.dims", lambda i: "dimensions must be positive",
    )
    with np.errstate(over="ignore"):
        volume = dims[:, 0] * dims[:, 1] * dims[:, 2]
    fail.column(
        ~np.isfinite(volume), rows, objects, _VOLUME_FINITE,
        lambda i: f"{path(i)}.dims", lambda i: f"volume L*W*H = {volume[i]} is not finite",
    )
    with np.errstate(invalid="ignore"):
        err, det = rotation_defects(box[:, ROT].reshape(-1, 3, 3))
    fail.column(
        err > _JSON_ROTATION_TOL, rows, objects, _ORTHONORMAL,
        lambda i: f"{path(i)}.rot", lambda i: f"R^T R deviates from identity by {err[i]:.3e}",
    )
    fail.column(
        np.abs(det - 1.0) > _JSON_ROTATION_TOL, rows, objects, _DETERMINANT,
        lambda i: f"{path(i)}.rot", lambda i: f"determinant {float(det[i])} is not 1",
    )
    # A rotation read within _JSON_ROTATION_TOL (rounded through float32,
    # say) would place the exact IoU kernel's corners off its own faces;
    # one orthonormal to rounding keeps its bits.
    near = (err > _CULL_ORTHO_TOL) & (err <= _JSON_ROTATION_TOL)
    if near.any():
        box[near, ROT] = rot6d_to_matrix_batch(box[near][:, _ROT_FIRST_COLUMNS]).reshape(-1, 9)


def _decode_scenes(numbered) -> SceneTable:
    """Validate decoded scene records as one table. numbered yields
    (line number or None, record) and may raise ParseError; each record is
    walked as it arrives, so only its numbers are kept."""
    fail = _Failures()
    image_ids, cam_values, counts, obj_ids, captions, obj_values = [], [], [], [], [], []
    _walk_records(fail, numbered, _walk_scene, set(), image_ids, cam_values, counts, obj_ids, captions, obj_values)
    cam_values += [math.nan] * (_CAM_WIDTH * len(image_ids) - len(cam_values))
    obj_values += [math.nan] * (len(_OBJECT_STEPS) * sum(counts) - len(obj_values))

    scene_rows = np.arange(len(image_ids))
    cam = _check_intrinsics(fail, cam_values, scene_rows, np.full(len(image_ids), -1))
    rows = np.repeat(np.arange(len(counts)), counts)
    slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)

    def field(name):
        return lambda i: f"objects[{slots[i]}].{name}"

    objs = fail.numbers(
        obj_values, len(_OBJECT_STEPS), rows, slots, _OBJECT_STEPS,
        lambda i, c: f"objects[{slots[i]}].{_OBJECT_NAMES[c]}",
    )
    _check_boxes(fail, objs[:, :BOX_WIDTH], rows, slots, field("box3d"))
    fail.column(
        objs[:, 2] <= 0, rows, slots, _CENTER_Z,
        field("box3d.center"), lambda i: "box center must have Z > 0",
    )
    x1, y1, x2, y2 = objs[:, _BOX2D_COLUMNS].T
    camera = CameraIntrinsics(*cam[rows].T)
    width, height = camera.width, camera.height
    fail.column(
        ~((0.0 <= x1) & (x1 <= x2) & (x2 <= width) & (0.0 <= y1) & (y1 <= y2) & (y2 <= height)),
        rows, slots, _BOX2D_BOUNDS, field("box2d"),
        lambda i: f"{objs[i, _BOX2D_COLUMNS].tolist()} must satisfy 0 <= x1 <= x2 <= {width[i]} "
        f"and 0 <= y1 <= y2 <= {height[i]}",
    )
    h2d = objs[:, _H2D_COLUMN]
    fail.column(
        h2d <= HEIGHT2D_EPSILON, rows, slots, _H2D_ABOVE_EPSILON, field("h2d"),
        lambda i: f"2D height {h2d[i]} px must exceed {HEIGHT2D_EPSILON} px",
    )
    fail.raise_first()
    return SceneTable(
        image_ids, cam, rows, obj_ids, captions, objs[:, :BOX_WIDTH], objs[:, _BOX2D_COLUMNS], h2d
    )


def _decode_predictions(numbered, mode: str) -> PredictionTable:
    """Validate decoded prediction records as one table; see _decode_scenes."""
    if mode not in _PAYLOADS:
        raise ValueError(f"unknown prediction mode {mode!r}")
    fail = _Failures()
    keys, values = [], []
    _walk_records(fail, numbered, _walk_prediction, *_PAYLOADS[mode], set(), keys, values)
    width = len(_RAW_STEPS) if mode == "raw" else BOX_WIDTH
    values += [math.nan] * (width * len(keys) - len(values))

    rows, objects = np.arange(len(keys)), np.full(len(keys), -1)
    if mode == "box":
        cols = fail.numbers(
            values, width, rows, objects, _OBJECT_STEPS, lambda i, c: _OBJECT_NAMES[c]
        )
        _check_boxes(fail, cols, rows, objects, lambda i: "box3d")
        fail.raise_first()
        return PredictionTable(keys, cols)

    cols = fail.numbers(values, width, rows, objects, _RAW_STEPS, lambda i, c: _RAW_NAMES[c])
    # Each rule names the first of its columns that fails.
    outside = ~((0.0 <= cols[:, decoder.UV]) & (cols[:, decoder.UV] <= 1.0))
    fail.column(
        outside.any(axis=1), rows, objects, _UV_RANGE,
        lambda i: _RAW_NAMES[outside[i].argmax()], lambda i: "normalized projection must be in [0, 1]",
    )
    not_positive = cols[:, decoder.D_V : decoder.SIZE.stop] <= 0
    fail.column(
        not_positive.any(axis=1), rows, objects, _RAW_POSITIVE,
        lambda i: _RAW_NAMES[decoder.D_V + not_positive[i].argmax()],
        lambda i: "depth and sizes must be positive",
    )
    length, wide, height = cols[:, decoder.SIZE].T
    with np.errstate(over="ignore"):
        volume = length * wide * height
    fail.column(
        ~np.isfinite(volume), rows, objects, _RAW_VOLUME,
        lambda i: "raw.L", lambda i: f"volume L*W*H = {volume[i]} is not finite",
    )
    # Reasoning rejects exactly the rot6d columns rejected here.
    _, _, a_norm, residual_norm = sixd_gram_schmidt(cols[:, decoder.ROT6D])
    fail.column(
        (a_norm < SIXD_EPSILON) | ~np.isfinite(a_norm), rows, objects, _ROT6D_ZERO, lambda i: "raw.rot6d",
        lambda i: "first column is numerically zero" if a_norm[i] < SIXD_EPSILON else "first column norm overflows",
    )
    fail.column(
        (residual_norm < SIXD_EPSILON) | ~np.isfinite(residual_norm), rows, objects, _ROT6D_PARALLEL,
        lambda i: "raw.rot6d",
        lambda i: ("columns are parallel" if residual_norm[i] < SIXD_EPSILON
                   else "second column residual norm overflows"),
    )
    fail.raise_first()
    return PredictionTable(keys, cols)


def intrinsics_from_json(obj) -> CameraIntrinsics:
    """Camera intrinsics, walked and checked as a scene record's are."""
    fail = _Failures()
    values: list = []
    _walk_records(fail, [(None, obj)], _walk_intrinsics, values)
    values += [math.nan] * (_CAM_WIDTH - len(values))
    cam = _check_intrinsics(fail, values, [0], [-1])
    fail.raise_first()
    return CameraIntrinsics(*cam[0].tolist())


def _box_json(box) -> dict:
    row = box_row(box).tolist()
    return {"center": row[CENTER], "dims": row[DIMS], "rot": row[ROT]}


def scene_to_json(record: SceneRecord) -> dict:
    """One scene's JSON object, built from its fields."""
    return {
        "image_id": record.image_id,
        "intrinsics": dict(zip(CameraIntrinsics._fields, map(float, record.intrinsics))),
        "objects": [
            {
                "object_id": obj.object_id,
                "caption": obj.caption,
                "box3d": _box_json(obj.box3d),
                "box2d": [float(x) for x in obj.box2d],
                "h2d": float(obj.h2d),
            }
            for obj in record.objects
        ],
    }


def scene_from_json(obj) -> SceneRecord:
    """One scene record, checked by the same rules as a file of them."""
    return _decode_scenes([(None, obj)])[0]


def prediction_to_json(pred: PredictionRecord) -> dict:
    """One prediction's JSON object, built from its fields."""
    obj = {"image_id": pred.image_id, "object_id": pred.object_id}
    if pred.raw is None:
        obj["box3d"] = _box_json(pred.box3d)
    else:
        row = decoder.raw_row(pred.raw).tolist()
        obj["raw"] = dict(zip(decoder.RAW_FIELDS, row), rot6d=row[decoder.ROT6D])
    return obj


def prediction_from_json(obj, mode: str) -> PredictionRecord:
    """One prediction record, checked by the same rules as a file of them."""
    return _decode_predictions([(None, obj)], mode)[0]


# -- JSONL I/O -----------------------------------------------------------------


# The writers give the bytes dumps_canonical gives for scene_to_json and
# prediction_to_json of each record, one template of a chunk of records at
# a time; the chunk bounds the text and values held at once.
WRITE_CHUNK = 512  # records per % pass

_BOX3D_TEMPLATE = object_template((name, array_template((width,))) for name, width, _ in _BOX_LISTS)
_SCENE_HEAD = object_template(
    [("image_id", STRING), ("intrinsics", object_template((k, FLOAT) for k in CameraIntrinsics._fields)),
     ("objects", "[")]
)[:-1]  # left open: the objects and _SCENE_TAIL follow
_SCENE_TAIL = "]}\n"
_OBJECT_TEMPLATE = object_template(
    [("object_id", STRING), ("caption", STRING), ("box3d", _BOX3D_TEMPLATE),
     ("box2d", array_template((4,))), ("h2d", FLOAT)]
)
_RAW_TEMPLATE = object_template(
    [*((name, FLOAT) for name in decoder.RAW_FIELDS), ("rot6d", array_template((6,)))]
)
_PREDICTION_TEMPLATES = {
    mode: object_template([("image_id", STRING), ("object_id", STRING), (name, payload)]) + "\n"
    for mode, name, payload in (("raw", "raw", _RAW_TEMPLATE), ("box", "box3d", _BOX3D_TEMPLATE))
}


def _columns(strings: list, numbers: np.ndarray) -> list:
    """The values of each row, encoded strings then numbers, as columns for zip."""
    return [*(map(encode_basestring, column) for column in strings), *numbers.T.tolist()]


def _scene_chunks(table: SceneTable):
    numbers = np.hstack([table.boxes, table.box2d, table.h2d[:, None]])
    starts = table._starts
    for first in range(0, len(table), WRITE_CHUNK):
        last = min(first + WRITE_CHUNK, len(table))
        m0, m1 = starts[first], starts[last]
        objects = list(zip(*_columns([table.object_ids[m0:m1], table.captions[m0:m1]], numbers[m0:m1])))
        heads = zip(*_columns([table.image_ids[first:last]], table.cams[first:last]))
        template, values = [], []
        for i, head in zip(range(first, last), heads):
            count = starts[i + 1] - starts[i]
            template.append(_SCENE_HEAD + ",".join([_OBJECT_TEMPLATE] * count) + _SCENE_TAIL)
            values.append(head)
            values += objects[starts[i] - m0 : starts[i + 1] - m0]
        yield "".join(template), chain.from_iterable(values)


def _prediction_chunks(table: PredictionTable):
    template = _PREDICTION_TEMPLATES[table.mode]
    for first in range(0, len(table), WRITE_CHUNK):
        keys = table.keys[first : first + WRITE_CHUNK]
        rows = zip(*_columns(list(zip(*keys)), table.values[first : first + WRITE_CHUNK]))
        yield template * len(keys), chain.from_iterable(rows)


def write_scenes(path, scenes: SceneTable | list[SceneRecord]) -> None:
    """Write scenes as JSONL; a non-finite number raises before the file is opened."""
    table = SceneTable.of(scenes)
    check_finite(table.cams, table.boxes, table.box2d, table.h2d)
    write_templated(path, _scene_chunks(table))


def read_scenes(path) -> SceneTable:
    """Every scene of a JSONL file, as a table. The first bad line in file
    order is reported, whether it fails to parse or to validate."""
    return _decode_scenes(read_jsonl(path))


def write_predictions(path, preds: PredictionTable | list[PredictionRecord]) -> None:
    """Write predictions as JSONL; see write_scenes."""
    table = PredictionTable.of(preds)
    check_finite(table.values)
    write_templated(path, _prediction_chunks(table))


def read_predictions(path, mode: str) -> PredictionTable:
    """Every prediction of a JSONL file, as a table; see read_scenes."""
    return _decode_predictions(read_jsonl(path), mode)
