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

from dataclasses import dataclass, replace

import numpy as np

from .box3d import BoxBatch, OrientedBox3D
from .camera import (
    CameraIntrinsics,
    Point3D,
    project,
    real_to_virtual_depth,
    reason_center,  # noqa: F401  perfbench/tracing.py wraps pipeline.reason_center
    reason_center_batch,
)
from .decoder import (
    KIND_CAPTION,
    KIND_IMAGE,
    KIND_POS,
    KIND_QUERY,
    DecoderParams,
    RawHeadOutput,
    TokenSequence,
    predict,
    raw_to_vector,
)
from .errors import UnmatchedPrediction
from .metrics import (
    MetricReport,
    aggregate,
    missing_result,
    score_query,  # noqa: F401  perfbench/tracing.py wraps pipeline.score_query
    score_query_batch,
)
from .rotation import (
    allocentric_to_egocentric,  # noqa: F401  perfbench/tracing.py wraps it here
    allocentric_to_egocentric_batch,
    egocentric_to_allocentric,
    matrix_to_rot6d,
    rot6d_to_matrix,  # noqa: F401  perfbench/tracing.py wraps it here
    rot6d_to_matrix_batch,
)
from .scenes import (
    ROTATION_ALLOCENTRIC,
    DatasetProfile,
    PredictionRecord,
    SceneRecord,
    SynthRanges,
)


def raw_from_box(box: OrientedBox3D, cam: CameraIntrinsics, profile: DatasetProfile) -> RawHeadOutput:
    """The head outputs a perfect network would emit for this box."""
    center = Point3D(*box.center)
    pix = project(center, cam)
    rot = box.rot
    if profile.rotation_frame == ROTATION_ALLOCENTRIC:
        rot = egocentric_to_allocentric(rot, box.center)
    return RawHeadOutput(
        u_norm=pix.u / cam.width,
        v_norm=pix.v / cam.height,
        d_v=real_to_virtual_depth(center.Z, cam, profile.virtual_camera),
        L=float(box.dims[0]),
        W=float(box.dims[1]),
        H=float(box.dims[2]),
        rot6d=matrix_to_rot6d(rot),
    )


def box_from_raw_batch(
    raws: list[RawHeadOutput],
    cams: list[CameraIntrinsics],
    profile: DatasetProfile,
    h2d: list | None = None,
) -> BoxBatch:
    """Geometry reasoning for N queries: head outputs -> oriented boxes in
    the camera frame, one camera (and 2D height) per query."""
    values = np.array([(r.u_norm, r.v_norm, r.d_v, r.L, r.W, r.H) for r in raws], dtype=float)
    values = values.reshape(-1, 6)
    u_norm, v_norm, d_v, _, _, height = values.T
    cam = CameraIntrinsics(*np.array(cams, dtype=float).reshape(-1, 6).T)
    h2d = None if h2d is None else np.asarray(h2d, dtype=float)
    center = reason_center_batch(
        u_norm, v_norm, d_v, height, cam, profile.virtual_camera, profile.depth_mode, h2d
    )
    rot = rot6d_to_matrix_batch(
        np.array([r.rot6d.a for r in raws], dtype=float).reshape(-1, 3),
        np.array([r.rot6d.b for r in raws], dtype=float).reshape(-1, 3),
    )
    if profile.rotation_frame == ROTATION_ALLOCENTRIC:
        rot = allocentric_to_egocentric_batch(rot, center)
    return BoxBatch(center, values[:, 3:], rot)


def box_from_raw(
    raw: RawHeadOutput,
    cam: CameraIntrinsics,
    profile: DatasetProfile,
    h2d: float | None = None,
) -> OrientedBox3D:
    """:func:`box_from_raw_batch` for one query."""
    return box_from_raw_batch([raw], [cam], profile, None if h2d is None else [h2d]).box(0)


def perfect_raw_predictions(scenes: list[SceneRecord], profile: DatasetProfile) -> list[PredictionRecord]:
    return [
        PredictionRecord(r.image_id, o.object_id, raw=raw_from_box(o.box3d, r.intrinsics, profile))
        for r in scenes
        for o in r.objects
    ]


def box_predictions_from_gt(scenes: list[SceneRecord]) -> list[PredictionRecord]:
    return [
        PredictionRecord(r.image_id, o.object_id, box3d=o.box3d)
        for r in scenes
        for o in r.objects
    ]


def scale_virtual_depth(preds: list[PredictionRecord], factor: float) -> list[PredictionRecord]:
    """Multiply every raw prediction's d_v by a factor (ablation probe)."""
    out = []
    for p in preds:
        if p.raw is None:
            out.append(p)
        else:
            out.append(replace(p, raw=replace(p.raw, d_v=p.raw.d_v * factor)))
    return out


def run_pipeline(
    scenes: list[SceneRecord],
    preds: list[PredictionRecord],
    profile: DatasetProfile,
    depth_metric: str = "z",
) -> MetricReport:
    """Score predictions against ground truth and aggregate.

    Every prediction must match a ground-truth (image_id, object_id); the
    reverse is not required. All predicted queries are reasoned and scored
    in one batch.
    """
    gt_index = {}
    for record in scenes:
        for obj in record.objects:
            gt_index[(record.image_id, obj.object_id)] = (record, obj)
    by_key = {}
    for p in preds:
        key = (p.image_id, p.object_id)
        if key not in gt_index:
            raise UnmatchedPrediction(f"prediction for unknown query {key}")
        by_key[key] = p
    results = []
    scored = []  # (slot in results, query id, scene record, gt object, prediction)
    for record in scenes:
        for obj in record.objects:
            query_id = f"{record.image_id}/{obj.object_id}"
            pred = by_key.get((record.image_id, obj.object_id))
            if pred is None:
                results.append(missing_result(query_id))
            else:
                scored.append((len(results), query_id, record, obj, pred))
                results.append(None)
    if scored:
        slots, query_ids, records, objs, picked = zip(*scored)
        pred_boxes = _predicted_boxes(picked, records, objs, profile)
        gt_boxes = BoxBatch.stack([obj.box3d for obj in objs])
        batch = score_query_batch(pred_boxes, gt_boxes, list(query_ids), depth_metric)
        for slot, result in zip(slots, batch):
            results[slot] = result
    return aggregate(results)


def _predicted_boxes(preds, records, objs, profile: DatasetProfile) -> BoxBatch:
    """The predicted box of each query: raw head outputs go through the
    geometry chain as one batch, direct boxes are taken as they are."""
    raw = [k for k, p in enumerate(preds) if p.raw is not None]
    direct = [k for k, p in enumerate(preds) if p.raw is None]
    parts = []
    if raw:
        parts.append(box_from_raw_batch(
            [preds[k].raw for k in raw],
            [records[k].intrinsics for k in raw],
            profile,
            [objs[k].h2d for k in raw],
        ))
    if direct:
        parts.append(BoxBatch.stack([preds[k].box3d for k in direct]))
    if len(parts) == 1:
        return parts[0]
    order = np.argsort(raw + direct)
    return BoxBatch(*(
        np.concatenate([getattr(part, name) for part in parts])[order]
        for name in ("center", "dims", "rot")
    ))


# -- toy token task --------------------------------------------------------------


@dataclass(frozen=True)
class ToyTaskConfig:
    """Deterministic token encoding of scenes for decoder training."""

    d_model: int = 32
    n_caption: int = 2
    n_image: int = 4
    encoding_seed: int = 7
    noise_sigma: float = 0.0


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


@dataclass
class ToyEncoder:
    """Fixed random projections shared by every sequence of a dataset."""

    config: ToyTaskConfig
    caption_tokens: np.ndarray
    pos_token: np.ndarray
    image_maps: list
    image_biases: list
    mid: np.ndarray
    half: np.ndarray

    @staticmethod
    def create(config: ToyTaskConfig, ranges: SynthRanges, profile: DatasetProfile) -> "ToyEncoder":
        rng = np.random.default_rng(config.encoding_seed)
        d = config.d_model
        mid, half = target_standardization(ranges, profile)
        return ToyEncoder(
            config=config,
            caption_tokens=0.5 * rng.standard_normal((config.n_caption, d)),
            pos_token=0.5 * rng.standard_normal(d),
            image_maps=[rng.standard_normal((d, 12)) / np.sqrt(12.0) for _ in range(config.n_image)],
            image_biases=[0.1 * rng.standard_normal(d) for _ in range(config.n_image)],
            mid=mid,
            half=half,
        )

    def encode(self, target: RawHeadOutput, noise_rng: np.random.Generator | None) -> TokenSequence:
        g = (raw_to_vector(target) - self.mid) / self.half
        d = self.config.d_model
        rows = [row for row in self.caption_tokens]
        for m, b in zip(self.image_maps, self.image_biases):
            token = m @ g + b
            if self.config.noise_sigma > 0 and noise_rng is not None:
                token = token + self.config.noise_sigma * noise_rng.standard_normal(d)
            rows.append(token)
        rows.append(self.pos_token)
        rows.append(np.zeros(d))
        kinds = (
            [KIND_CAPTION] * self.config.n_caption
            + [KIND_IMAGE] * self.config.n_image
            + [KIND_POS, KIND_QUERY]
        )
        return TokenSequence(np.stack(rows), tuple(kinds))


def build_toy_dataset(
    scenes: list[SceneRecord],
    profile: DatasetProfile,
    ranges: SynthRanges,
    config: ToyTaskConfig | None = None,
):
    """(sequence, target) training pairs plus the query keys, in scene order."""
    config = config or ToyTaskConfig()
    encoder = ToyEncoder.create(config, ranges, profile)
    noise_rng = np.random.default_rng(config.encoding_seed + 1)
    samples = []
    keys = []
    for record in scenes:
        for obj in record.objects:
            target = raw_from_box(obj.box3d, record.intrinsics, profile)
            samples.append((encoder.encode(target, noise_rng), target))
            keys.append((record.image_id, obj.object_id))
    return samples, keys


def decoder_predictions(
    scenes: list[SceneRecord],
    params: DecoderParams,
    profile: DatasetProfile,
    ranges: SynthRanges,
    config: ToyTaskConfig | None = None,
) -> list[PredictionRecord]:
    """Run the trained decoder over the toy encodings of these scenes."""
    samples, keys = build_toy_dataset(scenes, profile, ranges, config)
    return [
        PredictionRecord(image_id, object_id, raw=predict(seq, params))
        for (seq, _), (image_id, object_id) in zip(samples, keys)
    ]
