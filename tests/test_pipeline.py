import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mono3dg.box3d import BoxBatch, OrientedBox3D, iou3d, iou3d_monte_carlo
from mono3dg.camera import DepthMode
from mono3dg.errors import UnmatchedPrediction
from mono3dg.metrics import score_query, score_query_batch
from mono3dg.pipeline import (
    box_from_raw,
    box_from_raw_batch,
    box_predictions_from_gt,
    build_toy_dataset,
    perfect_raw_predictions,
    raw_from_box,
    run_pipeline,
    scale_virtual_depth,
)
from mono3dg.scenes import (
    INDOOR_PROFILE,
    OUTDOOR_PROFILE,
    PredictionRecord,
    SynthRanges,
    synth_scenes,
)


class TestPerfectPredictions:
    @pytest.mark.parametrize("profile_name", ["indoor", "outdoor"])
    def test_perfect_raw_scores_clean(self, profile_name):
        profile = INDOOR_PROFILE if profile_name == "indoor" else OUTDOOR_PROFILE
        scenes = synth_scenes(40, seed=0, profile_name=profile_name)
        report = run_pipeline(scenes, perfect_raw_predictions(scenes, profile), profile)
        assert report.acc_50 == 1.0 and report.acc_25 == 1.0
        assert report.mean_depth_error == pytest.approx(0.0, abs=1e-9)
        assert report.mean_length_error == pytest.approx(0.0, abs=1e-12)

    def test_box_mode_equals_raw_mode(self):
        scenes = synth_scenes(30, seed=1, profile_name="outdoor")
        raw_report = run_pipeline(
            scenes, perfect_raw_predictions(scenes, OUTDOOR_PROFILE), OUTDOOR_PROFILE
        )
        box_report = run_pipeline(scenes, box_predictions_from_gt(scenes), OUTDOOR_PROFILE)
        assert box_report.acc_25 == raw_report.acc_25
        assert box_report.acc_50 == raw_report.acc_50
        assert abs(box_report.mean_depth_error - raw_report.mean_depth_error) <= 1e-9

    def test_perfect_targets_have_zero_loss_and_unit_iou(self):
        # The decoder-facing consistency contract: targets built from a
        # ground-truth box are a zero of the loss, and pushing them back
        # through the geometry chain reproduces the box.
        from mono3dg.decoder import loss

        scenes = synth_scenes(10, seed=20, profile_name="indoor")
        for record in scenes:
            for obj in record.objects:
                target = raw_from_box(obj.box3d, record.intrinsics, INDOOR_PROFILE)
                assert loss(target, target) == 0.0
                box = box_from_raw(target, record.intrinsics, INDOOR_PROFILE, obj.h2d)
                assert iou3d(box, obj.box3d) >= 1.0 - 1e-6

    def test_raw_box_round_trip_reconstructs_box(self):
        # decode(encode(box)) must reproduce center, dims, and rotation in
        # both rotation frames.
        for profile_name in ("indoor", "outdoor"):
            profile = INDOOR_PROFILE if profile_name == "indoor" else OUTDOOR_PROFILE
            scenes = synth_scenes(20, seed=2, profile_name=profile_name)
            for record in scenes:
                for obj in record.objects:
                    raw = raw_from_box(obj.box3d, record.intrinsics, profile)
                    box = box_from_raw(raw, record.intrinsics, profile, h2d=obj.h2d)
                    assert np.allclose(box.center, obj.box3d.center, atol=1e-9)
                    assert np.allclose(box.dims, obj.box3d.dims, atol=1e-12)
                    assert np.abs(box.rot - obj.box3d.rot).max() <= 1e-9
                    assert iou3d(box, obj.box3d) >= 1.0 - 1e-6


class TestScoring:
    def test_partial_overlap_bucketing(self):
        # Shift one of four boxes so its IoU lands strictly between the two
        # thresholds; verified against the sampling oracle.
        scenes = synth_scenes(4, seed=3, ranges=SynthRanges(objects_per_scene=(1, 1)))
        preds = box_predictions_from_gt(scenes)
        victim = scenes[0].objects[0].box3d
        shift = np.array([0.4 * victim.dims[0], 0.0, 0.0])
        shifted = OrientedBox3D(victim.center + victim.rot @ shift, victim.dims, victim.rot)
        overlap = iou3d(shifted, victim)
        assert 0.25 < overlap < 0.5
        assert iou3d_monte_carlo(shifted, victim, 200_000, seed=0) == pytest.approx(overlap, abs=0.01)
        preds[0] = PredictionRecord(preds[0].image_id, preds[0].object_id, box3d=shifted)
        report = run_pipeline(scenes, preds, INDOOR_PROFILE)
        assert report.acc_25 == 1.0
        assert report.acc_50 == 0.75

    def test_missing_prediction_counts_against_accuracy_only(self):
        scenes = synth_scenes(4, seed=4, ranges=SynthRanges(objects_per_scene=(1, 1)))
        preds = box_predictions_from_gt(scenes)[:3]
        report = run_pipeline(scenes, preds, INDOOR_PROFILE)
        assert report.count == 4
        assert report.acc_50 == 0.75
        assert report.mean_depth_error == pytest.approx(0.0, abs=1e-12)

    def test_unmatched_prediction_raises(self):
        scenes = synth_scenes(2, seed=5)
        preds = box_predictions_from_gt(scenes)
        rogue = PredictionRecord("scene_999999", "ghost", box3d=scenes[0].objects[0].box3d)
        with pytest.raises(UnmatchedPrediction):
            run_pipeline(scenes, preds + [rogue], INDOOR_PROFILE)


def _virtual_only_outdoor():
    return replace(OUTDOOR_PROFILE, depth_mode=DepthMode.VIRTUAL_ONLY)


class TestProfileSensitivity:
    def test_exact_h2d_makes_modes_identical(self):
        scenes = synth_scenes(50, seed=6, profile_name="outdoor")
        preds = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
        fused = run_pipeline(scenes, preds, OUTDOOR_PROFILE)
        virtual_only = run_pipeline(scenes, preds, _virtual_only_outdoor())
        assert fused.mean_depth_error == pytest.approx(virtual_only.mean_depth_error, abs=1e-12)
        assert fused.acc_50 == virtual_only.acc_50 == 1.0

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
    def test_noisy_virtual_depth_prefers_fusion(self, epsilon):
        scenes = synth_scenes(100, seed=7, profile_name="outdoor")
        preds = scale_virtual_depth(
            perfect_raw_predictions(scenes, OUTDOOR_PROFILE), 1.0 + epsilon
        )
        fused = run_pipeline(scenes, preds, OUTDOOR_PROFILE)
        virtual_only = run_pipeline(scenes, preds, _virtual_only_outdoor())
        assert fused.mean_depth_error < virtual_only.mean_depth_error
        # With an exact second branch the fused error is half the noisy one.
        assert fused.mean_depth_error == pytest.approx(
            0.5 * virtual_only.mean_depth_error, rel=1e-9
        )


class TestToyDataset:
    def test_targets_match_scene_geometry(self):
        ranges = SynthRanges(objects_per_scene=(1, 1))
        scenes = synth_scenes(10, seed=8, ranges=ranges)
        dataset, keys = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
        assert len(dataset) == len(keys) == sum(len(r.objects) for r in scenes)
        for (seq, target), (image_id, object_id), record in zip(dataset, keys, scenes):
            assert record.image_id == image_id
            box = box_from_raw(target, record.intrinsics, INDOOR_PROFILE, record.objects[0].h2d)
            assert np.allclose(box.center, record.objects[0].box3d.center, atol=1e-9)

    def test_encoding_is_deterministic(self):
        ranges = SynthRanges(objects_per_scene=(1, 1))
        scenes = synth_scenes(5, seed=9, ranges=ranges)
        a, _ = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
        b, _ = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
        for (seq_a, _), (seq_b, _) in zip(a, b):
            assert np.array_equal(seq_a.embeddings, seq_b.embeddings)


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


class TestSameBitsAsPerQueryCode:
    """SHA-256 of the predicted boxes (center, dims, rot) and of the IoUs of
    every query of two small files, as the per-query code computed them
    before scoring was batched. Both the batch and its single-query
    wrappers must still produce those exact bits."""

    DIGESTS = {
        "outdoor": (
            "dabe51af018e5edaf30752faa6fa44e92c3b08eb63468003fca7003430211fc6",
            "666b160b7dda335e908f852302d53ff1cd49490494e4348943890cedc2c98ea0",
        ),
        "indoor": (
            "a74817bb1d3cae23b34c4a629467eb39e51d590587ab91d30ddb5fa948883eb9",
            "8ce6f92327c10abe480449c92c245487417fe6f71059117f81e5d4a23aa37c81",
        ),
    }

    @pytest.mark.parametrize("profile_name", ["outdoor", "indoor"])
    def test_batch_and_single_query_bits(self, profile_name):
        profile = INDOOR_PROFILE if profile_name == "indoor" else OUTDOOR_PROFILE
        scenes = synth_scenes(60, seed=11, profile_name=profile_name)
        preds = scale_virtual_depth(perfect_raw_predictions(scenes, profile), 1.1)
        queries = [(r, o) for r in scenes for o in r.objects]
        single = [box_from_raw(p.raw, r.intrinsics, profile, o.h2d) for (r, o), p in zip(queries, preds)]
        batch = box_from_raw_batch(
            [p.raw for p in preds], [r.intrinsics for r, _ in queries], profile,
            [o.h2d for _, o in queries],
        )
        gt = BoxBatch.stack(o.box3d for _, o in queries)
        boxes_digest, iou_digest = self.DIGESTS[profile_name]
        assert _digest([np.concatenate([b.center, b.dims, b.rot.ravel()]) for b in single]) == boxes_digest
        assert _digest(np.hstack([batch.center, batch.dims, batch.rot.reshape(-1, 9)])) == boxes_digest
        single_ious = [score_query(b, o.box3d, "q").iou for b, (_, o) in zip(single, queries)]
        batch_ious = [r.iou for r in score_query_batch(batch, gt, ["q"] * len(queries))]
        assert _digest(single_ious) == iou_digest
        assert _digest(batch_ious) == iou_digest
