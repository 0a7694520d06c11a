"""End-to-end evaluation: predictions -> boxes -> metric report.

Raw predictions run through the geometry chain (center reasoning, 6D-to-
matrix conversion, optional viewing-ray frame change); box predictions are
scored directly. Ground-truth objects with no prediction count against
accuracy but are left out of the error means.

Also hosts the toy regression task: scenes are flattened into token
sequences whose image tokens are fixed linear encodings of the target
geometry, which is what makes the decoder trainable and testable at desk
scale.
"""

from __future__ import annotations

import numpy as np

from .box3d import CENTER, DIMS, ROT, box_row, check_dims
from .camera import (
    CameraIntrinsics,
    Point3D,
    project,
    real_to_virtual_depth,
    reason_center,  # noqa: F401  perfbench/tracing.py wraps pipeline.reason_center
    reason_center_batch,
)
from .decoder import (
    D_V,
    RAW_WIDTH,
    ROT6D,
    SIZE,
    UV,
    DecoderConfig,
    DecoderParams,
    predict,  # noqa: F401  perfbench/tracing.py wraps pipeline.predict
    predict_batch,
    raw_row,
)
from .errors import UnmatchedPrediction, reject_first
from .metrics import (
    MetricReport,
    aggregate,
    score_query,  # noqa: F401  perfbench/tracing.py wraps pipeline.score_query
    score_query_batch,
)
from .rotation import (
    allocentric_to_egocentric,  # noqa: F401  perfbench/tracing.py wraps it here
    allocentric_to_egocentric_batch,
    egocentric_to_allocentric_batch,
    matrix_to_rot6d_batch,
    rot6d_to_matrix,  # noqa: F401  perfbench/tracing.py wraps it here
    rot6d_to_matrix_batch,
)
from .scenes import (
    ROTATION_ALLOCENTRIC,
    DatasetProfile,
    PredictionRecord,
    PredictionTable,
    SceneRecord,
    SceneTable,
    SynthRanges,
)


def raw_from_box_batch(
    boxes: np.ndarray,
    cams: list[CameraIntrinsics],
    profile: DatasetProfile,
) -> np.ndarray:
    """The head outputs a perfect network would emit for N boxes, given as
    (N, 15) rows, one camera per box, as (N, RAW_WIDTH) raw rows.

    Queries are checked as if one at a time, depth before rotation: the
    first query behind the camera or with a non-rotation raises.
    """
    check_dims(boxes)
    cam = CameraIntrinsics(*np.array(cams, dtype=float).reshape(-1, len(CameraIntrinsics._fields)).T)
    centers = boxes[:, CENTER]
    behind = centers[:, 2] <= 0.0
    ahead = int(behind.argmax()) if behind.any() else len(behind)
    rot = boxes[:ahead, ROT].reshape(-1, 3, 3)
    if profile.rotation_frame == ROTATION_ALLOCENTRIC:
        rot = egocentric_to_allocentric_batch(rot, centers[:ahead])
    rot6d = matrix_to_rot6d_batch(rot)
    center = Point3D(*centers.T)
    pix = project(center, cam)
    d_v = real_to_virtual_depth(center.Z, cam, profile.virtual_camera)
    return np.column_stack([pix.u / cam.width, pix.v / cam.height, d_v, boxes[:, DIMS], rot6d])


def raw_from_box(box: np.ndarray, cam: CameraIntrinsics, profile: DatasetProfile) -> np.ndarray:
    """:func:`raw_from_box_batch` for one box row: its raw row."""
    return raw_from_box_batch(box_row(box)[None], [cam], profile)[0]


def box_from_raw_columns(
    raw: np.ndarray,
    cams: np.ndarray,
    profile: DatasetProfile,
    h2d: np.ndarray | None = None,
) -> np.ndarray:
    """Geometry reasoning for N queries: head outputs as (N, RAW_WIDTH) raw
    rows -> oriented boxes in the camera frame as (N, 15) rows, with one
    camera (N, 6) (and 2D height) per query."""
    (u_norm, v_norm), d_v, size = raw[:, UV].T, raw[:, D_V], raw[:, SIZE]
    cam = CameraIntrinsics(*cams.T)
    center = reason_center_batch(
        u_norm, v_norm, d_v, size[:, 2], cam, profile.virtual_camera, profile.depth_mode, h2d
    )
    rot = rot6d_to_matrix_batch(raw[:, ROT6D])
    if profile.rotation_frame == ROTATION_ALLOCENTRIC:
        rot = allocentric_to_egocentric_batch(rot, center)
    return check_dims(np.hstack([center, size, rot.reshape(-1, 9)]))


def box_from_raw(
    raw: np.ndarray,
    cam: CameraIntrinsics,
    profile: DatasetProfile,
    h2d: float | None = None,
) -> np.ndarray:
    """:func:`box_from_raw_columns` for one query's raw row: its box row."""
    return box_from_raw_columns(
        raw_row(raw)[None],
        np.array([cam], dtype=float),
        profile,
        None if h2d is None else np.array([h2d], dtype=float),
    )[0]


def _queries(scenes: SceneTable | list[SceneRecord]):
    """Every query of these scenes, in scene order: the ground-truth boxes
    as (M, 15) rows, one camera per box, and the (image_id, object_id) keys."""
    table = SceneTable.of(scenes)
    return table.boxes, table.cams[table.rows], table.keys


def perfect_raw_predictions(
    scenes: SceneTable | list[SceneRecord], profile: DatasetProfile
) -> PredictionTable:
    boxes, cams, keys = _queries(scenes)
    return PredictionTable(keys, raw_from_box_batch(boxes, cams, profile))


def box_predictions_from_gt(scenes: SceneTable | list[SceneRecord]) -> PredictionTable:
    """The ground-truth boxes of these scenes as a box table of their own."""
    boxes, _, keys = _queries(scenes)
    return PredictionTable(keys, boxes.copy())


def scale_virtual_depth(
    preds: PredictionTable | list[PredictionRecord], factor: float
) -> PredictionTable:
    """Multiply a raw table's d_v column by a factor (ablation probe); a box table is copied."""
    preds = PredictionTable.of(preds)
    values = preds.values.copy()
    if preds.mode == "raw":
        values[:, D_V] *= factor
    return PredictionTable(preds.keys, values)


def run_pipeline(
    scenes: SceneTable | list[SceneRecord],
    preds: PredictionTable | list[PredictionRecord],
    profile: DatasetProfile,
    depth_metric: str = "z",
) -> MetricReport:
    """Score predictions against ground truth and aggregate.

    Every prediction must match a ground-truth (image_id, object_id); the
    reverse is not required, and of two predictions for one query the last
    counts. A prediction row that is not finite raises ValueError naming its
    key. All predicted queries are reasoned and scored in one batch.
    """
    scenes, preds = SceneTable.of(scenes), PredictionTable.of(preds)
    gt_keys = scenes.keys
    known = set(gt_keys)
    row_of = {}
    for row, key in enumerate(preds.keys):
        if key not in known:
            raise UnmatchedPrediction(f"prediction for unknown query {key}")
        row_of[key] = row
    reject_first(
        ~np.isfinite(preds.values).all(axis=1), preds.keys, ValueError,
        "prediction for {} is not finite",
    )
    picked = np.array([row_of.get(key, -1) for key in gt_keys], dtype=int)
    queries = (picked >= 0).nonzero()[0]
    # The predicted boxes as (K, 15) rows: raw head outputs go through the
    # geometry chain as one batch, direct boxes are taken as they are.
    boxes = preds.values[picked[queries]]
    if preds.mode == "raw":
        cams = scenes.cams[scenes.rows[queries]]
        boxes = box_from_raw_columns(boxes, cams, profile, scenes.h2d[queries])
    # A query with no prediction keeps IoU 0 and NaN errors.
    scores = np.full((len(gt_keys), 5), np.nan)
    scores[:, 0] = 0.0
    scores[queries] = score_query_batch(boxes, scenes.boxes[queries], depth_metric)
    return aggregate(scores)


# -- toy token task --------------------------------------------------------------


def target_standardization(ranges: SynthRanges, profile: DatasetProfile):
    """Per-component affine whitening for the 12-dim target vector, derived
    from the generation ranges (midpoint and half-range)."""
    vc = profile.virtual_camera
    dv_lo = (vc.fx_v / ranges.fx[1]) * (ranges.image_width[0] / vc.width_v) * ranges.depth[0]
    dv_hi = (vc.fx_v / ranges.fx[0]) * (ranges.image_width[1] / vc.width_v) * ranges.depth[1]
    lo = np.array([0.0, 0.0, dv_lo, ranges.length[0], ranges.width[0], ranges.height[0]] + [-1.0] * 6)
    hi = np.array([1.0, 1.0, dv_hi, ranges.length[1], ranges.width[1], ranges.height[1]] + [1.0] * 6)
    mid = (lo + hi) / 2.0
    half = np.maximum((hi - lo) / 2.0, 1e-6)
    return mid, half


# Every toy sequence is two caption tokens, four image tokens, then the pos
# marker and the query slot: TOY_TOKENS in all. Its fixed token maps are
# drawn from seed _TOY_SEED and its noise from the next seed.
_N_CAPTION, _N_IMAGE = 2, 4
TOY_TOKENS = _N_CAPTION + _N_IMAGE + 2
_TOY_SEED = 7


def build_toy_dataset(
    scenes: SceneTable | list[SceneRecord],
    profile: DatasetProfile,
    ranges: SynthRanges,
    noise_sigma: float = 0.0,
):
    """Embeddings (N, TOY_TOKENS, d_model) for a default
    :class:`DecoderConfig`, targets (N, 12) and (image_id, object_id) keys
    of every query, in scene order.

    The caption tokens and the pos token are fixed for every sequence, and
    each image token is a fixed affine map of the whitened target plus, when
    ``noise_sigma`` > 0, Gaussian noise drawn query by query, image token by
    image token. The query slot, last, is left zero."""
    d = DecoderConfig().d_model
    rng = np.random.default_rng(_TOY_SEED)
    caption_tokens = 0.5 * rng.standard_normal((_N_CAPTION, d))
    pos_token = 0.5 * rng.standard_normal(d)
    image_maps = rng.standard_normal((_N_IMAGE, d, RAW_WIDTH)) / np.sqrt(RAW_WIDTH)
    image_biases = 0.1 * rng.standard_normal((_N_IMAGE, d))
    mid, half = target_standardization(ranges, profile)
    boxes, cams, keys = _queries(scenes)
    targets = raw_from_box_batch(boxes, cams, profile)
    g = (targets - mid) / half
    embeddings = np.zeros((len(g), TOY_TOKENS, d))
    embeddings[:, :_N_CAPTION] = caption_tokens
    image = embeddings[:, _N_CAPTION:-2]
    for i, (m, b) in enumerate(zip(image_maps, image_biases)):
        image[:, i] = np.matmul(m, g[:, :, None])[:, :, 0] + b
    if noise_sigma > 0:
        image += noise_sigma * np.random.default_rng(_TOY_SEED + 1).standard_normal(image.shape)
    embeddings[:, -2] = pos_token
    return embeddings, targets, keys


def decoder_predictions(
    scenes: SceneTable | list[SceneRecord],
    params: DecoderParams,
    profile: DatasetProfile,
    ranges: SynthRanges,
    noise_sigma: float = 0.0,
) -> PredictionTable:
    """Run the trained decoder over the toy encodings of these scenes, as one batch."""
    embeddings, _, keys = build_toy_dataset(scenes, profile, ranges, noise_sigma)
    return PredictionTable(keys, predict_batch(embeddings, params))
