import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mono3dg import cli
from mono3dg import decoder as D
from mono3dg.box3d import BoxBatch, OrientedBox3D, iou3d, iou3d_monte_carlo
from mono3dg.camera import DepthMode
from mono3dg.errors import NonPositiveDepth, NotARotation, UnmatchedPrediction
from mono3dg.metrics import score_query, score_query_batch
from mono3dg.pipeline import (
    ToyTaskConfig,
    box_from_raw,
    box_from_raw_batch,
    box_predictions_from_gt,
    build_toy_dataset,
    decoder_predictions,
    perfect_raw_predictions,
    raw_from_box,
    raw_from_box_batch,
    run_pipeline,
    scale_virtual_depth,
)
from mono3dg.scenes import (
    INDOOR_PROFILE,
    OUTDOOR_PROFILE,
    PredictionRecord,
    SynthRanges,
    profile_by_name,
    ranges_for_profile,
    synth_scenes,
    write_scenes,
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


def test_indoor_scoring_emits_no_warnings():
    # Every indoor pair goes to the exact kernel, whose stage 1 must not
    # divide by zero or make NaNs on valid input.
    scenes = synth_scenes(60, seed=11, profile_name="indoor")
    preds = scale_virtual_depth(perfect_raw_predictions(scenes, INDOOR_PROFILE), 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_pipeline(scenes, preds, INDOOR_PROFILE)
    assert report.count == sum(len(r.objects) for r in scenes)


class TestToySameBitsAsPerQueryCode:
    """SHA-256 of the toy targets, the toy embeddings and the decoder's
    predictions from fixed initial parameters, and of the checkpoint and
    loss CSV of a small ``train-toy`` run, as the per-query code computed
    them before the toy task was batched. Both the batch and the
    single-query wrappers (``raw_from_box``, ``predict``) must still produce
    those exact bits."""

    DIGESTS = {
        ("indoor", 0.0): (
            "b86fd1bece62adae349db523e3d5e0460b9e6097a93d95955b6bc74d447767ef",
            "2ae766a03b525fe4ba3c41a8ed24668377bd74125bdc336b98a8576ac756982a",
            "d82cc593a8a04a4eaf96367d7cf22c2dcbd9cac98a320496bda13be210495769",
        ),
        ("indoor", 0.1): (
            "b86fd1bece62adae349db523e3d5e0460b9e6097a93d95955b6bc74d447767ef",
            "6a8bdcd8fc72ae4eeb20be738f39ba7eaea0195b381b2ee31b161580e1763ec8",
            "fe45a8089351f6e417ee937a8aeb4a4b8f57ca31786a497f4fc84052567cda35",
        ),
        ("outdoor", 0.0): (
            "317b566bb6fac2e451849a327a235e7a4f4fe97eaff860fe9cc6a42bb05b0b28",
            "fc06b25c9c76b378b86892e63185060562e831e490dad8a4f1b78d14128df490",
            "23e165a0013b163be08f20b18bde17895dfd017ac74c60a8fb62b69d70d77abc",
        ),
        ("outdoor", 0.1): (
            "317b566bb6fac2e451849a327a235e7a4f4fe97eaff860fe9cc6a42bb05b0b28",
            "6651b653eb09e1b526d1f136ea76fcb48c5ebeaaf9c34c40d246df00f6d63e5a",
            "4784b3e3f6a3aa5b85d017b3287fe2f30d53949bfaa350f0166a6e467b8341c4",
        ),
    }
    TRAIN_DIGESTS = (
        "d79530505802ddc11c74759144462c617c15cf153bb71eec88612c8cd07aba0e",
        "043953cdb0069c550ced94faedb15b370e6017225f348591490dd514dd4de1d5",
    )

    @pytest.mark.parametrize("profile_name, sigma", sorted(DIGESTS))
    def test_batch_and_single_query_bits(self, profile_name, sigma):
        profile, ranges = profile_by_name(profile_name), ranges_for_profile(profile_name)
        scenes = synth_scenes(24, seed=13, profile_name=profile_name)
        config = ToyTaskConfig(noise_sigma=sigma)
        params = D.init_params(D.DecoderConfig(), np.random.default_rng(3))
        targets_digest, embeddings_digest, predictions_digest = self.DIGESTS[(profile_name, sigma)]

        samples, _ = build_toy_dataset(scenes, profile, ranges, config)
        assert _digest([D.raw_to_vector(t) for _, t in samples]) == targets_digest
        assert _digest([seq.embeddings for seq, _ in samples]) == embeddings_digest
        preds = decoder_predictions(scenes, params, profile, ranges, config)
        assert _digest([D.raw_to_vector(p.raw) for p in preds]) == predictions_digest
        perfect = perfect_raw_predictions(scenes, profile)
        assert _digest([D.raw_to_vector(p.raw) for p in perfect]) == targets_digest

        single = [raw_from_box(o.box3d, r.intrinsics, profile) for r in scenes for o in r.objects]
        assert _digest([D.raw_to_vector(t) for t in single]) == targets_digest
        single_preds = [D.predict(seq, params) for seq, _ in samples]
        assert _digest([D.raw_to_vector(p) for p in single_preds]) == predictions_digest

    def test_train_toy_checkpoint_and_loss_csv_bits(self, tmp_path, capsys):
        data, ckpt, loss_csv = tmp_path / "toy.jsonl", tmp_path / "ckpt.json", tmp_path / "loss.csv"
        write_scenes(data, synth_scenes(16, seed=5, profile_name="indoor"))
        code = cli.main(["train-toy", "--data", str(data), "--epochs", "3", "--seed", "2",
                         "--batch-size", "8", "--out", str(ckpt), "--loss-csv", str(loss_csv)])
        assert code == 0, capsys.readouterr().err
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (ckpt, loss_csv))
        assert digests == self.TRAIN_DIGESTS


class TestRawFromBoxBatchErrors:
    """The batch raises what the per-query loop would have raised first:
    queries in order, and within one query its depth before its rotation."""

    @staticmethod
    def _queries(profile_name):
        scenes = synth_scenes(6, seed=14, profile_name=profile_name)
        pairs = [(r, o) for r in scenes for o in r.objects]
        return [o.box3d for _, o in pairs], [r.intrinsics for r, _ in pairs]

    @staticmethod
    def _behind(box):
        return OrientedBox3D(box.center * np.array([1.0, 1.0, -1.0]), box.dims, box.rot)

    @staticmethod
    def _scaled(box):
        return OrientedBox3D(box.center, box.dims, 2.0 * box.rot)

    @staticmethod
    def _reflected(box):
        return OrientedBox3D(box.center, box.dims, box.rot * np.array([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("profile_name", ["indoor", "outdoor"])
    @pytest.mark.parametrize("first, second, error", [
        ("_behind", "_scaled", NonPositiveDepth),
        ("_scaled", "_behind", NotARotation),
        ("_reflected", "_scaled", NotARotation),
        ("_behind", "_behind", NonPositiveDepth),
    ])
    def test_first_bad_row_raises_its_error(self, profile_name, first, second, error):
        profile = profile_by_name(profile_name)
        boxes, cams = self._queries(profile_name)
        boxes[2] = getattr(self, first)(boxes[2])
        boxes[4] = getattr(self, second)(boxes[4])
        with pytest.raises(error) as single:
            raw_from_box(boxes[2], cams[2], profile)
        with pytest.raises(error) as batch:
            raw_from_box_batch(BoxBatch.stack(boxes), cams, profile)
        assert str(batch.value) == str(single.value)
