import hashlib
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import haswell_pinned, make_box, under_blas_kernel
from mono3dg import cli
from mono3dg import decoder as D
from mono3dg.box3d import CENTER, DIMS, ROT, iou3d, iou3d_monte_carlo
from mono3dg.camera import DepthMode, reason_center
from mono3dg.errors import NonPositiveDepth, NotARotation, UnmatchedPrediction
from mono3dg.metrics import MetricReport, score_query, score_query_batch
from mono3dg.pipeline import (
    TOY_TOKENS,
    box_from_raw,
    box_from_raw_columns,
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
    PredictionTable,
    SynthRanges,
    profile_by_name,
    ranges_for_profile,
    read_predictions,
    read_scenes,
    synth_scenes,
    write_predictions,
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
                    assert np.allclose(box[CENTER], obj.box3d[CENTER], atol=1e-9)
                    assert np.allclose(box[DIMS], obj.box3d[DIMS], atol=1e-12)
                    assert np.abs(box[ROT] - obj.box3d[ROT]).max() <= 1e-9
                    assert iou3d(box, obj.box3d) >= 1.0 - 1e-6


class TestScoring:
    def test_partial_overlap_bucketing(self):
        # Shift one of four boxes so its IoU lands strictly between the two
        # thresholds; verified against the sampling oracle.
        scenes = synth_scenes(4, seed=3, ranges=SynthRanges(objects_per_scene=(1, 1)))
        preds = list(box_predictions_from_gt(scenes))
        victim = scenes[0].objects[0].box3d
        shift = np.array([0.4 * victim[DIMS][0], 0.0, 0.0])
        shifted = make_box(victim[CENTER] + victim[ROT].reshape(3, 3) @ shift, victim[DIMS], victim[ROT])
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

    @pytest.mark.parametrize("width", [None, 12, 15], ids=["records", "raw-table", "box-table"])
    def test_no_predictions_at_all(self, width):
        scenes = synth_scenes(3, seed=6)
        preds = [] if width is None else PredictionTable([], np.zeros((0, width)))
        report = run_pipeline(scenes, preds, INDOOR_PROFILE)
        assert report == MetricReport(0.0, 0.0, None, None, None, None, sum(len(r.objects) for r in scenes))

    @pytest.mark.parametrize("matched", [False, True])
    def test_unknown_depth_metric_raises(self, matched):
        scenes = synth_scenes(2, seed=5)
        preds = box_predictions_from_gt(scenes) if matched else []
        with pytest.raises(ValueError, match="unknown depth_metric 'bogus'"):
            run_pipeline(scenes, preds, INDOOR_PROFILE, depth_metric="bogus")

    def test_unmatched_prediction_raises(self):
        scenes = synth_scenes(2, seed=5)
        preds = list(box_predictions_from_gt(scenes))
        rogue = PredictionRecord("scene_999999", "ghost", box3d=scenes[0].objects[0].box3d)
        with pytest.raises(UnmatchedPrediction):
            run_pipeline(scenes, preds + [rogue], INDOOR_PROFILE)

    @pytest.mark.parametrize(
        "mode, column, value",
        [("raw", D.D_V, np.nan), ("raw", D.D_V, np.inf), ("box", 0, np.nan)],
        ids=["raw-nan", "raw-inf", "box-nan"],
    )
    def test_non_finite_prediction_row_raises_with_its_key(self, mode, column, value):
        # Scored, a NaN d_v would count as a missing prediction and an inf
        # one would make the mean depth error inf.
        scenes = synth_scenes(20, seed=0, profile_name="outdoor")
        if mode == "raw":
            preds = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
        else:
            preds = box_predictions_from_gt(scenes)
        values = preds.values.copy()
        values[7, column] = value
        with pytest.raises(ValueError, match=re.escape(f"prediction for {preds.keys[7]} is not finite")):
            run_pipeline(scenes, PredictionTable(preds.keys, values), OUTDOOR_PROFILE)


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
        embeddings, targets, keys = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
        n = sum(len(r.objects) for r in scenes)
        assert embeddings.shape == (n, 8, 32) and targets.shape == (n, 12) and len(keys) == n
        for target, (image_id, object_id), record in zip(targets, keys, scenes):
            assert record.image_id == image_id
            box = box_from_raw(target, record.intrinsics, INDOOR_PROFILE, record.objects[0].h2d)
            assert np.allclose(box[CENTER], record.objects[0].box3d[CENTER], atol=1e-9)

    def test_encoding_is_deterministic(self):
        ranges = SynthRanges(objects_per_scene=(1, 1))
        scenes = synth_scenes(5, seed=9, ranges=ranges)
        a, _, _ = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
        b, _, _ = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
        assert np.array_equal(a, b)

    def test_tokens_fit_the_default_decoder(self):
        scenes = synth_scenes(6, seed=10, profile_name="indoor")
        embeddings, targets, _ = build_toy_dataset(scenes, INDOOR_PROFILE, ranges_for_profile("indoor"))
        assert embeddings.shape == (len(targets), TOY_TOKENS, D.DecoderConfig().d_model)
        assert np.isfinite(embeddings).all() and not embeddings[:, -1].any()
        params = D.init_params(D.DecoderConfig(), np.random.default_rng(10))
        _, history = D.train(embeddings, targets, params, D.TrainConfig(epochs=1))
        assert len(history) == 1 and np.isfinite(history[0])


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


class TestSameBitsAsPerQueryCode:
    """SHA-256 of the predicted boxes (center, dims, rot) and of the IoUs of
    every query of two small files, which are the same under every BLAS
    kernel. Both the batch and its single-query wrappers must produce those
    exact bits."""

    DIGESTS = {
        "outdoor": (
            "8f94197c58a33b89a5b42fbae025a8569b18925564bcd9b204ef2c62bd5e6249",
            "666b160b7dda335e908f852302d53ff1cd49490494e4348943890cedc2c98ea0",
        ),
        "indoor": (
            "287e76919b1af71f5b3a91e47588be7de1314715479f6b3f5e0d66092283029e",
            "b5e623e3d42689226d6e3f77395f02f011753ac3366fdd5b7827b9cb93abd069",
        ),
    }

    @pytest.mark.parametrize("profile_name", ["outdoor", "indoor"])
    def test_batch_and_single_query_bits(self, profile_name):
        profile = INDOOR_PROFILE if profile_name == "indoor" else OUTDOOR_PROFILE
        scenes = synth_scenes(60, seed=11, profile_name=profile_name)
        preds = scale_virtual_depth(perfect_raw_predictions(scenes, profile), 1.1)
        queries = [(r, o) for r in scenes for o in r.objects]
        single = [box_from_raw(p.raw, r.intrinsics, profile, o.h2d) for (r, o), p in zip(queries, preds)]
        batch = box_from_raw_columns(preds.values, scenes.cams[scenes.rows], profile, scenes.h2d)
        gt = np.array([o.box3d for _, o in queries])
        boxes_digest, iou_digest = self.DIGESTS[profile_name]
        assert _digest(single) == boxes_digest
        assert _digest(batch) == boxes_digest
        single_centers = [reason_center(p.raw, r.intrinsics, profile.virtual_camera, profile.depth_mode, o.h2d)
                          for (r, o), p in zip(queries, preds)]
        assert np.array(single_centers).tobytes() == batch[:, CENTER].tobytes()
        single_scores = np.array([score_query(b, o.box3d) for b, (_, o) in zip(single, queries)])
        batch_scores = score_query_batch(batch, gt)
        assert single_scores.tobytes() == batch_scores.tobytes()
        assert _digest(single_scores[:, 0]) == iou_digest
        assert _digest(batch_scores[:, 0]) == iou_digest


def test_indoor_scoring_emits_no_warnings():
    # Every indoor pair goes to the exact kernel, whose stage 1 must not
    # divide by zero or make NaNs on valid input.
    scenes = synth_scenes(60, seed=11, profile_name="indoor")
    preds = scale_virtual_depth(perfect_raw_predictions(scenes, INDOOR_PROFILE), 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_pipeline(scenes, preds, INDOOR_PROFILE)
    assert report.count == sum(len(r.objects) for r in scenes)


def _toy_target_digests(profile_name):
    """SHA-256 of the toy targets, and of the same vectors from
    ``perfect_raw_predictions`` and from ``raw_from_box`` query by query."""
    profile, ranges = profile_by_name(profile_name), ranges_for_profile(profile_name)
    scenes = synth_scenes(24, seed=13, profile_name=profile_name)
    _, targets, _ = build_toy_dataset(scenes, profile, ranges)
    perfect = perfect_raw_predictions(scenes, profile)
    single = [raw_from_box(o.box3d, r.intrinsics, profile) for r in scenes for o in r.objects]
    return [_digest(targets), _digest([p.raw for p in perfect]), _digest(single)]


def _toy_model_digests(profile_name, sigma):
    """SHA-256 of the toy embeddings, of the decoder's predictions for them
    from fixed initial parameters, and of ``predict`` query by query."""
    profile, ranges = profile_by_name(profile_name), ranges_for_profile(profile_name)
    scenes = synth_scenes(24, seed=13, profile_name=profile_name)
    params = D.init_params(D.DecoderConfig(), np.random.default_rng(3))
    embeddings, _, _ = build_toy_dataset(scenes, profile, ranges, sigma)
    preds = decoder_predictions(scenes, params, profile, ranges, sigma)
    single = [D.predict(e, params) for e in embeddings]
    return [_digest(embeddings), _digest([p.raw for p in preds]), _digest(single)]


def _train_toy_digests(directory):
    """SHA-256 of the checkpoint and loss CSV of a small ``train-toy`` run."""
    data, ckpt, loss_csv = (Path(directory) / name for name in ("toy.jsonl", "ckpt.json", "loss.csv"))
    write_scenes(data, synth_scenes(16, seed=5, profile_name="indoor"))
    code = cli.main(["train-toy", "--data", str(data), "--epochs", "3", "--seed", "2",
                     "--batch-size", "8", "--out", str(ckpt), "--loss-csv", str(loss_csv)])
    assert code == 0
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in (ckpt, loss_csv)]


class TestToySameBitsAsPerQueryCode:
    """SHA-256 of the toy targets, the toy embeddings and the decoder's
    predictions from fixed initial parameters, and of the checkpoint and
    loss CSV of a small ``train-toy`` run. Both the batch and the
    single-query wrappers (``raw_from_box``, ``predict``) must produce those
    exact bits.

    Targets are geometry, whose bits are the same under every BLAS kernel,
    and are checked in process. The rest goes through the decoder's BLAS
    products, so it runs in a child process under OpenBLAS's Haswell
    kernel, where it was pinned."""

    TARGETS = {
        "indoor": "3398cd10c613e99ac9cadf02cf52f0359df9cdec7eb90ddff918c7650e5aa485",
        "outdoor": "317b566bb6fac2e451849a327a235e7a4f4fe97eaff860fe9cc6a42bb05b0b28",
    }
    # Embeddings and predictions, under the Haswell kernel.
    DIGESTS = {
        ("indoor", 0.0): (
            "9dde4d1796a142f4b254a645683e044c99e1988bd9be6b0b2a9af1ebefbbb22f",
            "a3d2c842ab049495ce885040f6f4de2f6a1251b701d99fac3a17f767c0211dbc",
        ),
        ("indoor", 0.1): (
            "b28be32560a3822e2d37c2a6a73f59b381205ca20da118bed75ff641c634f365",
            "2184db9b710867b4371507d898b258592f63ab93c22d4030e3386912023a1c5d",
        ),
        ("outdoor", 0.0): (
            "fc06b25c9c76b378b86892e63185060562e831e490dad8a4f1b78d14128df490",
            "509dc23fad30e7f7048028cbb79265203437b3d078de680bfbed5aaffe90978d",
        ),
        ("outdoor", 0.1): (
            "6651b653eb09e1b526d1f136ea76fcb48c5ebeaaf9c34c40d246df00f6d63e5a",
            "69a818bcbabb433ada1b179fe27bd9d850faf18d76f83ad1fbe5296f107dd293",
        ),
    }
    # Checkpoint and loss CSV, under the Haswell kernel.
    TRAIN_DIGESTS = [
        "2b3369a26ec7af13934a9b5f16f4cb3cdca25b601a3f6ea06265c9e0c3f1d209",
        "043953cdb0069c550ced94faedb15b370e6017225f348591490dd514dd4de1d5",
    ]

    @pytest.mark.parametrize("profile_name", sorted(TARGETS))
    def test_batch_and_single_query_target_bits(self, profile_name):
        assert _toy_target_digests(profile_name) == [self.TARGETS[profile_name]] * 3

    @haswell_pinned
    @pytest.mark.parametrize("profile_name, sigma", sorted(DIGESTS))
    def test_batch_and_single_query_bits(self, profile_name, sigma):
        embeddings, predictions = self.DIGESTS[(profile_name, sigma)]
        _, digests = under_blas_kernel("Haswell", "test_pipeline", "_toy_model_digests", profile_name, sigma)
        assert digests == [embeddings, predictions, predictions]

    @haswell_pinned
    def test_train_toy_checkpoint_and_loss_csv_bits(self, tmp_path):
        _, digests = under_blas_kernel("Haswell", "test_pipeline", "_train_toy_digests", str(tmp_path))
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
        return make_box(box[CENTER] * np.array([1.0, 1.0, -1.0]), box[DIMS], box[ROT])

    @staticmethod
    def _scaled(box):
        return make_box(box[CENTER], box[DIMS], 2.0 * box[ROT])

    @staticmethod
    def _reflected(box):
        return make_box(box[CENTER], box[DIMS], box[ROT].reshape(3, 3) * [1.0, 1.0, -1.0])

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
            raw_from_box_batch(np.array(boxes), cams, profile)
        assert str(batch.value) == str(single.value)


class TestNonPositiveDims:
    """A box with a dim at or below zero is rejected with one message
    wherever a batch of boxes enters reasoning or scoring."""

    def test_raw_record_in_run_pipeline(self):
        # Virtual-only depth reasons without L, so nothing else catches it.
        scenes = synth_scenes(4, seed=3)
        preds = list(perfect_raw_predictions(scenes, INDOOR_PROFILE))
        raw = preds[1].raw.copy()
        raw[D.SIZE.start] = -1.0  # L
        preds[1] = replace(preds[1], raw=raw)
        with pytest.raises(ValueError, match=r"^box dims must be positive, got \[-1\. "):
            run_pipeline(scenes, preds, INDOOR_PROFILE)

    def test_box_from_raw_columns(self):
        scenes = synth_scenes(4, seed=3)
        raw = perfect_raw_predictions(scenes, INDOOR_PROFILE).values.copy()
        raw[2, 4] = 0.0  # W
        with pytest.raises(ValueError, match=r"^box dims must be positive, got \[\S+ 0\. "):
            box_from_raw_columns(raw, scenes.cams[scenes.rows], INDOOR_PROFILE, scenes.h2d)

    @pytest.mark.parametrize("profile_name", ["indoor", "outdoor"])
    def test_raw_from_box_batch(self, profile_name):
        scenes = synth_scenes(4, seed=3, profile_name=profile_name)
        boxes = scenes.boxes.copy()
        boxes[2, 3] = 0.0  # L
        with pytest.raises(ValueError, match=r"^box dims must be positive, got \[0\. "):
            raw_from_box_batch(boxes, scenes.cams[scenes.rows], profile_by_name(profile_name))


class TestTablesMatchRecords:
    """run_pipeline scores the readers' column tables with the same report
    as the records those tables hold."""

    @staticmethod
    def _files(tmp_path, profile_name, mode, drop):
        profile = profile_by_name(profile_name)
        scenes = synth_scenes(30, seed=25, profile_name=profile_name)
        if mode == "raw":
            preds = scale_virtual_depth(perfect_raw_predictions(scenes, profile), 1.1)
        else:
            preds = [replace(p, box3d=make_box(p.box3d[CENTER] + 0.1, p.box3d[DIMS], p.box3d[ROT]))
                     for p in box_predictions_from_gt(scenes)]
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_scenes(gt, scenes)
        write_predictions(pred, [p for k, p in enumerate(preds) if k % 7 not in drop])
        return gt, pred

    @pytest.mark.parametrize("profile_name", ["outdoor", "indoor"])
    @pytest.mark.parametrize("mode", ["raw", "box"])
    @pytest.mark.parametrize("drop", [(), (2, 5)], ids=["all", "missing"])
    def test_same_report(self, tmp_path, profile_name, mode, drop):
        profile = profile_by_name(profile_name)
        gt, pred = self._files(tmp_path, profile_name, mode, drop)
        scenes, preds = read_scenes(gt), read_predictions(pred, mode)
        report = run_pipeline(scenes, preds, profile)
        assert report == run_pipeline(list(scenes), list(preds), profile)
        assert report.count == sum(len(r.objects) for r in scenes)

    @pytest.mark.parametrize("profile_name", ["outdoor", "indoor"])
    def test_mixed_raw_and_box_list(self, profile_name):
        # Every raw prediction replaced by the box it reasons to, one query
        # at a time: the box report keeps every bit of the raw one. A list
        # of both kinds is no table, and run_pipeline says so.
        profile = profile_by_name(profile_name)
        scenes = synth_scenes(30, seed=26, profile_name=profile_name)
        raw = scale_virtual_depth(perfect_raw_predictions(scenes, profile), 1.1)
        queries = [(r, o) for r in scenes for o in r.objects]
        boxes = [
            PredictionRecord(
                p.image_id, p.object_id, box3d=box_from_raw(p.raw, r.intrinsics, profile, o.h2d)
            )
            for (r, o), p in zip(queries, raw)
        ]
        assert run_pipeline(scenes, boxes, profile) == run_pipeline(scenes, raw, profile)
        mixed = [p if k % 2 else box for k, (p, box) in enumerate(zip(raw, boxes))]
        with pytest.raises(ValueError, match="raw predictions or boxes, not both"):
            run_pipeline(scenes, mixed, profile)

    def test_table_records_write_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_scenes(first, synth_scenes(40, seed=27, profile_name="indoor"))
        write_scenes(second, list(read_scenes(first)))
        assert first.read_bytes() == second.read_bytes()
