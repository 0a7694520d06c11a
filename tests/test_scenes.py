import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from mono3dg.box3d import CENTER, DIMS, ROT
from mono3dg.camera import CameraIntrinsics, VirtualCamera, real_to_virtual_depth
from mono3dg.cli import main
from mono3dg.errors import DegenerateSixD, InvalidRanges, ParseError, SchemaError, ShapeMismatch
from mono3dg import scenes as scenes_module
from mono3dg.jsonio import dumps_canonical, loads_strict
from mono3dg.scenes import (
    FOCAL_PAIR_SUFFIX,
    INDOOR_PROFILE,
    INDOOR_RANGES,
    OUTDOOR_PROFILE,
    OUTDOOR_RANGES,
    PredictionRecord,
    PredictionTable,
    SceneObject,
    SceneRecord,
    SceneTable,
    SynthRanges,
    prediction_from_json,
    prediction_to_json,
    profile_by_name,
    ranges_for_profile,
    read_predictions,
    read_scenes,
    scene_from_json,
    scene_to_json,
    synth_scenes,
    write_predictions,
    write_scenes,
)
from mono3dg.pipeline import box_predictions_from_gt, perfect_raw_predictions
from mono3dg.rotation import SIXD_EPSILON, rot6d_to_matrix_batch


class TestSynth:
    def test_deterministic(self):
        a = synth_scenes(30, seed=5, profile_name="outdoor")
        b = synth_scenes(30, seed=5, profile_name="outdoor")
        assert [dumps_canonical(scene_to_json(r)) for r in a] == [
            dumps_canonical(scene_to_json(r)) for r in b
        ]

    def test_different_seeds_differ(self):
        a = synth_scenes(5, seed=1)
        b = synth_scenes(5, seed=2)
        assert dumps_canonical(scene_to_json(a[0])) != dumps_canonical(scene_to_json(b[0]))

    def test_projected_centers_inside_image(self):
        for profile in ("indoor", "outdoor"):
            for record in synth_scenes(50, seed=3, profile_name=profile):
                cam = record.intrinsics
                for obj in record.objects:
                    x, y, z = obj.box3d[CENTER]
                    u = cam.fx * x / z + cam.cx
                    v = cam.fy * y / z + cam.cy
                    assert 0.0 <= u <= cam.width
                    assert 0.0 <= v <= cam.height

    def test_h2d_is_exact_projected_height(self):
        for record in synth_scenes(20, seed=4, profile_name="outdoor"):
            for obj in record.objects:
                expected = record.intrinsics.fy * obj.box3d[DIMS][2] / obj.box3d[CENTER][2]
                assert obj.h2d == pytest.approx(expected, rel=1e-12)

    def test_outdoor_boxes_are_yaw_only(self):
        for record in synth_scenes(20, seed=6, profile_name="outdoor"):
            for obj in record.objects:
                R = obj.box3d[ROT].reshape(3, 3)
                assert abs(R[2, 0]) <= 1e-12 and abs(R[2, 1]) <= 1e-12
                assert abs(R[0, 2]) <= 1e-12 and abs(R[1, 2]) <= 1e-12

    def test_focal_pairs_preserve_virtual_depth(self):
        records = synth_scenes(100, seed=7, profile_name="outdoor")
        by_id = {r.image_id: r for r in records}
        pairs = [r for r in records if r.image_id.endswith(FOCAL_PAIR_SUFFIX)]
        assert len(pairs) == 10
        vc = VirtualCamera()
        for pair in pairs:
            base = by_id[pair.image_id.removesuffix(FOCAL_PAIR_SUFFIX)]
            assert pair.intrinsics.fx == pytest.approx(2.0 * base.intrinsics.fx)
            for obj_base, obj_pair in zip(base.objects, pair.objects):
                dv_base = real_to_virtual_depth(obj_base.box3d[CENTER][2], base.intrinsics, vc)
                dv_pair = real_to_virtual_depth(obj_pair.box3d[CENTER][2], pair.intrinsics, vc)
                assert dv_pair == pytest.approx(dv_base, rel=1e-9)

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRanges):
            synth_scenes(5, seed=0, ranges=SynthRanges(depth=(8.0, 0.5)))
        with pytest.raises(InvalidRanges):
            synth_scenes(5, seed=0, ranges=SynthRanges(fx=(-100.0, 100.0)))
        with pytest.raises(InvalidRanges):
            synth_scenes(0, seed=0)

    def test_profile_lookup(self):
        assert profile_by_name("indoor") is INDOOR_PROFILE
        assert profile_by_name("outdoor") is OUTDOOR_PROFILE
        with pytest.raises(ValueError):
            profile_by_name("underwater")

    def test_ranges_lookup(self):
        assert ranges_for_profile("indoor") is INDOOR_RANGES
        assert ranges_for_profile("outdoor") is OUTDOOR_RANGES
        with pytest.raises(ValueError, match="outdor"):
            ranges_for_profile("outdor")


class TestSynthBytesPinned:
    """SHA-256 of the files ``mono3dg synth --perfect-preds`` writes for 200
    scenes. Generation and its geometry use no BLAS, so these are the same
    bytes on any host."""

    DIGESTS = {
        ("indoor", 3): (
            "aa718401fec4aa0cc7e64e3dcf57771ba1cc88e9611a8add7d043e6607c615ca",
            "8c42f7afd2c6d6533b75556c4e550dba714947664578f0c952145cb8becd9b47",
        ),
        ("indoor", 4): (
            "969056023e4ab80a1d7ae5a3998dbf242dfc6dfa9f0d2d9e3fb5671ad614f931",
            "89ed296507d0f0115375c88ec4b184ef8050b62a42f6e522b7101a2f64a9513b",
        ),
        ("outdoor", 3): (
            "dc39fc96f77c8c9b3d905c366886e504c3462cc66c1969090a2adca965b14254",
            "0ccf47ff7ab2445ff493f249cf44e62311005a945c2c57c6078554beddacce75",
        ),
        ("outdoor", 4): (
            "8049b257d37422364e98c21279acbbcc7c54339d9217f375600a23f6ce435ee5",
            "980b18e5bbb4334f548293edcb9f3d9876332af1767ae3756067462a808c12fd",
        ),
    }

    @pytest.mark.parametrize("profile, seed", sorted(DIGESTS))
    def test_synth_files(self, tmp_path, capsys, profile, seed):
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        code = main(["synth", "--scenes", "200", "--seed", str(seed), "--profile", profile,
                     "--out", str(gt), "--perfect-preds", str(preds)])
        assert code == 0
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (gt, preds))
        assert digests == self.DIGESTS[profile, seed]


class TestSceneJsonl:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        records = synth_scenes(100, seed=8, profile_name="indoor")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_scenes(first, records)
        write_scenes(second, read_scenes(first))
        assert first.read_bytes() == second.read_bytes()

    def test_float_precision_survives(self, tmp_path):
        records = synth_scenes(5, seed=9)
        path = tmp_path / "scenes.jsonl"
        write_scenes(path, records)
        loaded = read_scenes(path)
        for orig, back in zip(records, loaded):
            assert np.array_equal(orig.objects[0].box3d[CENTER], back.objects[0].box3d[CENTER])
            assert np.array_equal(orig.objects[0].box3d[ROT], back.objects[0].box3d[ROT])

    def test_missing_intrinsics_names_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id":"x","objects":[]}\n')
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert "intrinsics" in str(info.value)

    def test_nan_literal_rejected_with_line_number(self, tmp_path):
        good = dumps_canonical(scene_to_json(synth_scenes(1, seed=0)[0]))
        path = tmp_path / "nan.jsonl"
        path.write_text(good + "\n" + good.replace('"fx":', '"fx":NaN,"junk":', 1) + "\n")
        with pytest.raises(ParseError) as info:
            read_scenes(path)
        assert info.value.line_number == 2

    def test_null_number_rejected(self, tmp_path):
        record = scene_to_json(synth_scenes(1, seed=0)[0])
        record["intrinsics"]["fx"] = None
        path = tmp_path / "null.jsonl"
        path.write_text(dumps_canonical(record) + "\n")
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert "fx" in str(info.value)

    def test_malformed_json_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"image_id": "ok"\n')
        with pytest.raises(ParseError) as info:
            read_scenes(path)
        assert info.value.line_number == 1

    def test_duplicate_object_ids_rejected(self):
        record = scene_to_json(synth_scenes(1, seed=10)[0])
        record["objects"].append(dict(record["objects"][0]))
        with pytest.raises(SchemaError) as info:
            scene_from_json(loads_strict(dumps_canonical(record)))
        assert "object_id" in str(info.value)

    def test_repeated_image_id_rejected_with_line(self, tmp_path):
        records = synth_scenes(3, seed=15, profile_name="outdoor")
        path = tmp_path / "repeated.jsonl"
        write_scenes(path, [*records, records[0]])
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert info.value.field == "image_id"
        assert "line 4" in str(info.value)
        assert repr(records[0].image_id) in str(info.value)

    @pytest.mark.parametrize("h2d", [0.0, 1e-6, -3.0])
    def test_degenerate_h2d_rejected_with_line(self, tmp_path, h2d):
        records = [scene_to_json(r) for r in synth_scenes(2, seed=16, profile_name="outdoor")]
        records[1]["objects"][0]["h2d"] = h2d
        path = tmp_path / "h2d.jsonl"
        path.write_text("".join(dumps_canonical(r) + "\n" for r in records))
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert info.value.field == "objects[0].h2d"
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize(
        "corner, value",
        [(0, 500.0), (1, 400.0), (0, -1.0), (1, -0.5), (2, 1e5), (3, 1e5)],
    )
    def test_bad_box2d_rejected_with_line(self, tmp_path, corner, value):
        records = [scene_to_json(r) for r in synth_scenes(2, seed=17)]
        cam = records[1]["intrinsics"]
        records[1]["objects"][0]["box2d"] = [100.0, 80.0, 300.0, 200.0]
        assert 300.0 <= cam["width"] and 200.0 <= cam["height"]
        records[1]["objects"][0]["box2d"][corner] = value
        path = tmp_path / "box2d.jsonl"
        path.write_text("".join(dumps_canonical(r) + "\n" for r in records))
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert info.value.field == "objects[0].box2d"
        assert "line 2" in str(info.value)

    def test_nonpositive_dims_rejected(self):
        record = scene_to_json(synth_scenes(1, seed=11)[0])
        record["objects"][0]["box3d"]["dims"] = [0.0, 1.0, 1.0]
        with pytest.raises(SchemaError):
            scene_from_json(record)


class TestWritersTakeTablesOrRecords:
    """A writer emits the same bytes from a table and from its records, and
    the one-record serializers give each record's line of the file."""

    def test_scenes(self, tmp_path):
        table = synth_scenes(12, seed=30, profile_name="outdoor")
        from_table, from_records = tmp_path / "table.jsonl", tmp_path / "records.jsonl"
        write_scenes(from_table, table)
        write_scenes(from_records, list(table))
        assert from_table.read_bytes() == from_records.read_bytes()
        lines = from_table.read_text().splitlines()
        assert lines == [dumps_canonical(scene_to_json(r)) for r in table]

    def test_mixed_raw_and_box_predictions(self, tmp_path):
        # A table is raw or box by its width; records of both kinds make none.
        scenes = synth_scenes(6, seed=31)
        raw = list(perfect_raw_predictions(scenes, INDOOR_PROFILE))
        boxes = box_predictions_from_gt(scenes)
        for records, mode, width in ((raw, "raw", 12), (boxes, "box", 15)):
            table = PredictionTable.of(records)
            assert table.mode == mode and table.values.shape[1] == width
            from_table, from_records = tmp_path / "table.jsonl", tmp_path / "records.jsonl"
            write_predictions(from_table, table)
            write_predictions(from_records, records)
            assert from_table.read_bytes() == from_records.read_bytes()
            lines = from_table.read_text().splitlines()
            assert lines == [dumps_canonical(prediction_to_json(p)) for p in records]
            assert all(("raw" in loads_strict(line)) == (mode == "raw") for line in lines)
        mixed = [raw[k] if k % 3 else boxes[k] for k in range(len(raw))]
        with pytest.raises(ValueError, match="raw predictions or boxes, not both"):
            PredictionTable.of(mixed)
        assert PredictionTable.of([]).values.shape == (0, 12)

    def test_hand_built_records_match_the_writers(self, tmp_path):
        # The references read a record's fields, whatever their types: list
        # box rows, integer intrinsics, box2d and h2d, and raw lists.
        box = [1, -2, 10, 4, 2, 1.5, *np.eye(3).ravel().tolist()]
        crate = np.array([2.5, 0.125, 12, 1, 1, 1, *np.eye(3).ravel()])
        scene = SceneRecord(
            "img", CameraIntrinsics(1000, 1000, 640, 360, 1280, 720),
            [SceneObject("a", "a car", box, (10, 20, 110, 220), 200),
             SceneObject("b", "a crate", crate, (0.5, 1, 2, 3.25), 2.5)],
        )
        path = tmp_path / "out.jsonl"
        write_scenes(path, [scene])
        assert path.read_text() == dumps_canonical(scene_to_json(scene)) + "\n"
        assert '"fx":1000,' in path.read_text()
        raw = [0.5, 0.25, 10, 4, 2, 1, 1, 0, 0, 0, 1, 0]
        for pred in (PredictionRecord("img", "a", raw=raw), PredictionRecord("img", "a", box3d=box)):
            write_predictions(path, [pred])
            assert path.read_text() == dumps_canonical(prediction_to_json(pred)) + "\n"

    # Text a JSON string must escape, and % signs a template must not read.
    AWKWARD = 'say "hi" \\ back\nnaïve %s %.17g %% '

    def _awkward_scenes(self):
        table = synth_scenes(12, seed=32, profile_name="outdoor")
        table = dataclasses.replace(
            table,
            image_ids=[f"{self.AWKWARD}{i}" for i in range(len(table))],
            object_ids=[f"{oid}{self.AWKWARD}" for oid in table.object_ids],
            captions=[f"{self.AWKWARD}{m}" for m in range(len(table.captions))],
        )
        # A scene with no objects writes an empty objects list.
        return SceneTable.of([*table[:5], SceneRecord("no objects", table[0].intrinsics), *table[5:]])

    def test_scenes_across_chunks_match_the_reference(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenes_module, "WRITE_CHUNK", 2)
        table = self._awkward_scenes()
        path = tmp_path / "scenes.jsonl"
        write_scenes(path, table)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [dumps_canonical(scene_to_json(r)) for r in table] + [""]
        back = read_scenes(path)
        assert back.image_ids == table.image_ids and back.captions == table.captions
        assert np.array_equal(back.boxes, table.boxes)

    @pytest.mark.parametrize("mode", ["raw", "box"])
    def test_predictions_across_chunks_match_the_reference(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(scenes_module, "WRITE_CHUNK", 2)
        scenes = self._awkward_scenes()
        preds = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
        if mode == "box":
            preds = box_predictions_from_gt(scenes)
        assert len(preds) > 2 * 2  # several chunks
        path = tmp_path / "preds.jsonl"
        write_predictions(path, preds)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [dumps_canonical(prediction_to_json(p)) for p in preds] + [""]
        back = read_predictions(path, mode)
        assert back.keys == preds.keys and np.array_equal(back.values, preds.values)


class TestRejectedWriteLeavesNoFile:
    """A writer checks every number before it opens its file, so a table it
    cannot write creates no file and leaves an existing one as it was."""

    @staticmethod
    def _with_nan_last(kind):
        scenes = synth_scenes(50, seed=33, profile_name="outdoor")
        if kind == "scenes":
            h2d = scenes.h2d.copy()
            h2d[-1] = np.nan
            return write_scenes, dataclasses.replace(scenes, h2d=h2d)
        preds = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
        if kind == "box":
            preds = box_predictions_from_gt(scenes)
        values = preds.values.copy()
        values[-1, -1] = np.inf
        return write_predictions, PredictionTable(preds.keys, values)

    @pytest.mark.parametrize("kind", ["scenes", "raw", "box"])
    def test_path_is_not_created(self, tmp_path, kind):
        write, table = self._with_nan_last(kind)
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="non-finite number"):
            write(path, table)
        assert not path.exists()

    def test_raws_without_rot6d_create_no_file(self, tmp_path):
        # Two 6-number raws hold twelve numbers in all, which must not
        # regroup into one raw row.
        raw = np.array([0.5, 0.5, 2.0, 1.0, 1.0, 1.0])
        preds = [PredictionRecord("img", f"obj{k}", raw=raw) for k in range(2)]
        path = tmp_path / "out.jsonl"
        with pytest.raises(ShapeMismatch):
            write_predictions(path, preds)
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["scenes", "raw", "box"])
    def test_existing_file_keeps_its_bytes(self, tmp_path, kind):
        write, table = self._with_nan_last(kind)
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"kept": true}\n')
        with pytest.raises(ValueError, match="non-finite number"):
            write(path, table)
        assert path.read_bytes() == b'{"kept": true}\n'


class TestPredictionTableShape:
    KEYS = [("img", "obj0"), ("img", "obj1")]

    @pytest.mark.parametrize(
        "shape", [(24,), (2, 13), (2, 6), (1, 12), (3, 15), (2, 12, 1)],
        ids=["flat", "width-13", "width-6", "fewer-rows", "more-rows", "3-d"],
    )
    def test_rejects_values_that_are_not_one_row_per_key(self, shape):
        with pytest.raises(ShapeMismatch, match="prediction values"):
            PredictionTable(self.KEYS, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(11,), (13,), (1, 12)])
    def test_of_rejects_a_raw_that_is_not_one_row(self, shape):
        good = np.array([0.5, 0.5, 2.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        preds = [PredictionRecord("img", "obj0", raw=good), PredictionRecord("img", "obj1", raw=np.ones(shape))]
        with pytest.raises(ShapeMismatch, match="raw head outputs"):
            PredictionTable.of(preds)

    def test_raw_records_are_views_of_their_rows(self):
        table = perfect_raw_predictions(synth_scenes(3, seed=1), INDOOR_PROFILE)
        for record, row in zip(table, table.values):
            assert record.raw.shape == row.shape and np.shares_memory(record.raw, row)
        assert PredictionTable.of(list(table)).values.tobytes() == table.values.tobytes()

    def test_box_records_are_views_of_their_rows(self):
        scenes = synth_scenes(3, seed=1)
        preds = box_predictions_from_gt(scenes)
        for table, boxes in ((preds, [p.box3d for p in preds]),
                             (scenes, [o.box3d for r in scenes for o in r.objects])):
            rows = table.values if table is preds else table.boxes
            for box, row in zip(boxes, rows, strict=True):
                assert box.shape == (15,) and np.shares_memory(box, row)
        assert preds.values.tobytes() == scenes.boxes.tobytes()
        assert SceneTable.of(list(scenes)).boxes.tobytes() == scenes.boxes.tobytes()

    @pytest.mark.parametrize("box, error", [
        (np.ones(14), ShapeMismatch), (np.ones((1, 15)), ShapeMismatch),
        (np.r_[np.zeros(3), 1.0, 0.0, 1.0, np.eye(3).ravel()], ValueError),
    ], ids=["width-14", "2-d", "zero-dim"])
    def test_of_passes_record_boxes_through_box_row(self, box, error):
        records = list(synth_scenes(2, seed=2))
        preds = list(box_predictions_from_gt(records))
        objects = records[-1].objects
        objects[-1] = dataclasses.replace(objects[-1], box3d=box)
        preds[-1] = dataclasses.replace(preds[-1], box3d=box)
        with pytest.raises(error, match=r"^box (\(|dims)"):
            SceneTable.of(records)
        with pytest.raises(error, match=r"^box (\(|dims)"):
            PredictionTable.of(preds)


class TestRecordEquality:
    """Records hold arrays, so == is identity: a record equals itself, and
    two reads of one row are unequal, without raising."""

    def test_equality_is_identity(self):
        scenes = synth_scenes(2, seed=4)
        preds = perfect_raw_predictions(scenes, INDOOR_PROFILE)
        first, second = scenes[0], scenes[0]
        pairs = [
            (first, second),
            (first.objects[0], second.objects[0]),
            (preds[0], preds[0]),
        ]
        for a, b in pairs:
            assert a == a and not a != a
            assert a != b and not a == b


class TestPredictionJsonl:
    def test_raw_round_trip(self, tmp_path):
        scenes = synth_scenes(10, seed=12, profile_name="outdoor")
        preds = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
        path = tmp_path / "preds.jsonl"
        write_predictions(path, preds)
        again = tmp_path / "again.jsonl"
        write_predictions(again, read_predictions(path, "raw"))
        assert path.read_bytes() == again.read_bytes()

    def test_box_round_trip(self, tmp_path):
        scenes = synth_scenes(5, seed=13)
        preds = [
            PredictionRecord(r.image_id, o.object_id, box3d=o.box3d)
            for r in scenes
            for o in r.objects
        ]
        path = tmp_path / "boxes.jsonl"
        write_predictions(path, preds)
        loaded = read_predictions(path, "box")
        assert len(loaded) == len(preds)
        assert np.array_equal(loaded[0].box3d[ROT], preds[0].box3d[ROT])

    def test_mode_mismatch_is_schema_error(self, tmp_path):
        scenes = synth_scenes(3, seed=14)
        preds = perfect_raw_predictions(scenes, INDOOR_PROFILE)
        path = tmp_path / "raw.jsonl"
        write_predictions(path, preds)
        with pytest.raises(SchemaError):
            read_predictions(path, "box")

    def test_duplicate_predictions_rejected(self, tmp_path):
        scenes = synth_scenes(3, seed=15)
        preds = perfect_raw_predictions(scenes, INDOOR_PROFILE)
        path = tmp_path / "dup.jsonl"
        write_predictions(path, [*preds, preds[0]])
        with pytest.raises(SchemaError):
            read_predictions(path, "raw")

    def test_out_of_range_u_norm_rejected(self):
        scenes = synth_scenes(1, seed=16)
        pred = perfect_raw_predictions(scenes, INDOOR_PROFILE)[0]
        obj = prediction_to_json(pred)
        obj["raw"]["u_norm"] = 1.5
        with pytest.raises(SchemaError):
            prediction_from_json(obj, "raw")

    def test_payload_exclusivity(self):
        with pytest.raises(ValueError):
            PredictionRecord("img", "obj")


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


class TestParseTimeGaps:
    def test_overflowing_gt_volume_rejected_with_line(self, tmp_path):
        records = [scene_to_json(r) for r in synth_scenes(2, seed=18)]
        records[1]["objects"][0]["box3d"]["dims"] = [1e200, 1e200, 1.0]
        path = _write_lines(tmp_path / "gt.jsonl", [dumps_canonical(r) for r in records])
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert info.value.field == "objects[0].box3d.dims"
        assert "line 2" in str(info.value)

    def test_overflowing_box_prediction_volume_rejected_with_line(self, tmp_path):
        scenes = synth_scenes(2, seed=19)
        preds = [prediction_to_json(PredictionRecord(r.image_id, o.object_id, box3d=o.box3d))
                 for r in scenes for o in r.objects]
        preds[1]["box3d"]["dims"] = [1.0, 1e200, 1e200]
        path = _write_lines(tmp_path / "boxes.jsonl", [dumps_canonical(p) for p in preds])
        with pytest.raises(SchemaError) as info:
            read_predictions(path, "box")
        assert info.value.field == "box3d.dims"
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("size", ["L", "W", "H"])
    def test_overflowing_raw_volume_rejected_with_line(self, tmp_path, size):
        preds = [prediction_to_json(p)
                 for p in perfect_raw_predictions(synth_scenes(2, seed=20), INDOOR_PROFILE)]
        preds[1]["raw"]["L"] = preds[1]["raw"]["W"] = 1e150
        preds[1]["raw"][size] = 1e200
        path = _write_lines(tmp_path / "raw.jsonl", [dumps_canonical(p) for p in preds])
        with pytest.raises(SchemaError) as info:
            read_predictions(path, "raw")
        assert info.value.field == "raw.L"
        assert "line 2" in str(info.value)

    def test_non_string_caption_rejected_with_line(self, tmp_path):
        records = [scene_to_json(r) for r in synth_scenes(2, seed=21)]
        records[1]["objects"][0]["caption"] = 7
        path = _write_lines(tmp_path / "gt.jsonl", [dumps_canonical(r) for r in records])
        with pytest.raises(SchemaError) as info:
            read_scenes(path)
        assert info.value.field == "objects[0].caption"
        assert "line 2" in str(info.value)
        with pytest.raises(SchemaError):
            scene_from_json(records[1])

    # Gram-Schmidt leaves a residual of norm 8.33e-09 < SIXD_EPSILON off these
    # columns, so reasoning rejects them; b - (a.b/|a|^2) a reads above it.
    NEAR_PARALLEL = [-0.4563801881395214, -0.7608776051984796, -0.46128342023224894,
                     -17638401.102466322, -29406763.788510315, -17827903.57561833]

    def test_near_parallel_rot6d_rejected_with_line(self, tmp_path, capsys):
        scenes = synth_scenes(3, seed=22)
        preds = [prediction_to_json(p) for p in perfect_raw_predictions(scenes, INDOOR_PROFILE)]
        preds[1]["raw"]["rot6d"] = self.NEAR_PARALLEL
        gt = tmp_path / "gt.jsonl"
        write_scenes(gt, scenes)
        path = _write_lines(tmp_path / "raw.jsonl", [dumps_canonical(p) for p in preds])
        with pytest.raises(SchemaError) as info:
            read_predictions(path, "raw")
        assert str(info.value) == "field 'raw.rot6d': line 2: field 'raw.rot6d': columns are parallel"
        code = main(["evaluate", "--gt", str(gt), "--pred", str(path), "--mode", "raw"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "line 2" in err and "raw.rot6d" in err

    @pytest.mark.parametrize("rot6d, message", [
        ([1e200, 0.0, 0.0, 0.0, 1.0, 0.0], "first column norm overflows"),
        ([1.0, 0.0, 0.0, 0.0, 1e200, 0.0], "second column residual norm overflows"),
    ])
    def test_overflowing_rot6d_rejected_with_line(self, tmp_path, capsys, rot6d, message):
        # |a|^2 or |b_perp|^2 overflows to inf, which once left a matrix
        # with two zero columns that scored without complaint.
        scenes = synth_scenes(3, seed=22)
        preds = [prediction_to_json(p) for p in perfect_raw_predictions(scenes, INDOOR_PROFILE)]
        preds[1]["raw"]["rot6d"] = rot6d
        gt = tmp_path / "gt.jsonl"
        write_scenes(gt, scenes)
        path = _write_lines(tmp_path / "raw.jsonl", [dumps_canonical(p) for p in preds])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError) as info:
                read_predictions(path, "raw")
            with pytest.raises(DegenerateSixD, match="is not finite"):
                rot6d_to_matrix_batch(np.array([rot6d]))
        assert str(info.value) == f"field 'raw.rot6d': line 2: field 'raw.rot6d': {message}"
        code = main(["evaluate", "--gt", str(gt), "--pred", str(path), "--mode", "raw"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "line 2" in err and "raw.rot6d" in err

    def test_parse_rejects_rot6d_exactly_when_reasoning_would(self):
        # Near-parallel pairs: b along a at |b| from 1 to 1e9, plus a residual
        # of 0.5-2 SIXD_EPSILON across a. Both verdicts must occur.
        rng = np.random.default_rng(15)
        n = 4000
        a = rng.standard_normal((n, 3))
        across = np.cross(a, rng.standard_normal((n, 3)))
        across *= (rng.uniform(0.5, 2.0, n) * SIXD_EPSILON / np.linalg.norm(across, axis=1))[:, None]
        b = a * (10.0 ** rng.uniform(0.0, 9.0, n) / np.linalg.norm(a, axis=1))[:, None] + across
        record = prediction_to_json(perfect_raw_predictions(synth_scenes(1, seed=23), INDOOR_PROFILE)[0])
        parsed, reasoned = [], []
        for ak, bk in zip(a, b):
            record["raw"]["rot6d"] = ak.tolist() + bk.tolist()
            try:
                prediction_from_json(record, "raw")
                parsed.append(True)
            except SchemaError as error:
                assert error.field == "raw.rot6d" and "columns are parallel" in str(error)
                parsed.append(False)
            try:
                rot6d_to_matrix_batch(np.r_[ak, bk][None])
                reasoned.append(True)
            except DegenerateSixD:
                reasoned.append(False)
        assert parsed == reasoned
        assert 0 < sum(parsed) < n


class TestEarliestBadLineWins:
    """A reader that decodes every line before validating must still report
    the first bad line of the file, whatever its kind of fault."""

    @staticmethod
    def _scene_lines():
        return [dumps_canonical(scene_to_json(r)) for r in synth_scenes(3, seed=22)]

    @staticmethod
    def _raw_lines():
        preds = perfect_raw_predictions(synth_scenes(3, seed=23), INDOOR_PROFILE)
        return [dumps_canonical(prediction_to_json(p)) for p in preds[:3]]

    @staticmethod
    def _bad_scene(line):
        record = loads_strict(line)
        record["intrinsics"]["fx"] = "wide"
        return dumps_canonical(record)

    @staticmethod
    def _bad_raw(line):
        record = loads_strict(line)
        record["raw"]["u_norm"] = 1.5
        return dumps_canonical(record)

    def _read(self, kind, path):
        return read_scenes(path) if kind == "scenes" else read_predictions(path, "raw")

    @pytest.mark.parametrize("kind", ["scenes", "raw"])
    def test_schema_error_before_parse_error(self, tmp_path, kind):
        lines = self._scene_lines() if kind == "scenes" else self._raw_lines()
        bad = self._bad_scene if kind == "scenes" else self._bad_raw
        lines[1], lines[2] = bad(lines[1]), "{not json"
        with pytest.raises(SchemaError) as info:
            self._read(kind, _write_lines(tmp_path / "f.jsonl", lines))
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("kind", ["scenes", "raw"])
    def test_parse_error_before_schema_error(self, tmp_path, kind):
        lines = self._scene_lines() if kind == "scenes" else self._raw_lines()
        bad = self._bad_scene if kind == "scenes" else self._bad_raw
        lines[1], lines[2] = "{not json", bad(lines[2])
        with pytest.raises(ParseError) as info:
            self._read(kind, _write_lines(tmp_path / "f.jsonl", lines))
        assert info.value.line_number == 2

    def test_repeated_image_id_before_bad_field(self, tmp_path):
        lines = self._scene_lines()
        lines[1], lines[2] = lines[0], self._bad_scene(lines[2])
        with pytest.raises(SchemaError) as info:
            read_scenes(_write_lines(tmp_path / "f.jsonl", lines))
        assert info.value.field == "image_id"
        assert "line 2" in str(info.value)

    def test_repeated_prediction_before_bad_field(self, tmp_path):
        lines = self._raw_lines()
        lines[1], lines[2] = lines[0], self._bad_raw(lines[2])
        with pytest.raises(SchemaError) as info:
            read_predictions(_write_lines(tmp_path / "f.jsonl", lines), "raw")
        assert info.value.field == "object_id"
        assert "line 2" in str(info.value)


_DELETE = object()


def _set(record, path, value):
    """record with the entry at path (keys and indices) replaced by value,
    or removed when value is _DELETE; an empty path replaces the record."""
    if not path:
        return value
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


# (kind, path, value) of each malformed second line; the value "line 1"
# stands for a copy of the first record (a duplicate key).
_MALFORMED = {
    # scenes: a missing key at each level
    "scene missing image_id": ("scenes", ("image_id",), _DELETE),
    "scene missing intrinsics": ("scenes", ("intrinsics",), _DELETE),
    "scene missing fx": ("scenes", ("intrinsics", "fx"), _DELETE),
    "scene missing height": ("scenes", ("intrinsics", "height"), _DELETE),
    "scene missing objects": ("scenes", ("objects",), _DELETE),
    "scene missing object_id": ("scenes", ("objects", 1, "object_id"), _DELETE),
    "scene missing caption": ("scenes", ("objects", 1, "caption"), _DELETE),
    "scene missing box3d": ("scenes", ("objects", 1, "box3d"), _DELETE),
    "scene missing center": ("scenes", ("objects", 1, "box3d", "center"), _DELETE),
    "scene missing dims": ("scenes", ("objects", 1, "box3d", "dims"), _DELETE),
    "scene missing rot": ("scenes", ("objects", 1, "box3d", "rot"), _DELETE),
    "scene missing box2d": ("scenes", ("objects", 1, "box2d"), _DELETE),
    "scene missing h2d": ("scenes", ("objects", 1, "h2d"), _DELETE),
    # scenes: a record or object that is not a dict
    "scene record list": ("scenes", (), [1, 2]),
    "scene record string": ("scenes", (), "abc"),
    "scene record number": ("scenes", (), 5),
    "scene record null": ("scenes", (), None),
    "scene object list": ("scenes", ("objects", 1), []),
    "scene object string": ("scenes", ("objects", 1), "obj"),
    "scene object number": ("scenes", ("objects", 0), 3),
    # scenes: null, a string or a number where an object is read
    "scene intrinsics null": ("scenes", ("intrinsics",), None),
    "scene intrinsics string": ("scenes", ("intrinsics",), "abc"),
    "scene objects null": ("scenes", ("objects",), None),
    "scene box3d null": ("scenes", ("objects", 1, "box3d"), None),
    "scene box3d number": ("scenes", ("objects", 0, "box3d"), 2),
    # scenes: a list where a dict is expected, and a dict where a list is
    "scene intrinsics list": ("scenes", ("intrinsics",), [1000.0, 1000.0, 500.0, 400.0, 1000.0, 800.0]),
    "scene box3d list": ("scenes", ("objects", 1, "box3d"), [[0.0, 0.0, 5.0], [1.0, 1.0, 1.0]]),
    "scene objects dict": ("scenes", ("objects",), {"0": {}}),
    "scene center dict": ("scenes", ("objects", 1, "box3d", "center"), {"x": 0.0, "y": 0.0, "z": 5.0}),
    "scene box2d dict": ("scenes", ("objects", 0, "box2d"), {"a": 1, "b": 2, "c": 3, "d": 4}),
    "scene rot dict": ("scenes", ("objects", 1, "box3d", "rot"), {str(k): 0.0 for k in range(9)}),
    # scenes: strings where number lists are expected, and wrong lengths
    "scene center abc": ("scenes", ("objects", 1, "box3d", "center"), "abc"),
    "scene box2d abcd": ("scenes", ("objects", 1, "box2d"), "abcd"),
    "scene rot string": ("scenes", ("objects", 0, "box3d", "rot"), "abcdefghi"),
    "scene dims short": ("scenes", ("objects", 1, "box3d", "dims"), [1.0, 1.0]),
    # scenes: true, null or a string in place of a number
    "scene fx true": ("scenes", ("intrinsics", "fx"), True),
    "scene cy null": ("scenes", ("intrinsics", "cy"), None),
    "scene center null": ("scenes", ("objects", 1, "box3d", "center", 2), None),
    "scene dims string": ("scenes", ("objects", 1, "box3d", "dims", 0), "1"),
    "scene rot true": ("scenes", ("objects", 0, "box3d", "rot", 4), True),
    "scene box2d null": ("scenes", ("objects", 1, "box2d", 3), None),
    "scene h2d true": ("scenes", ("objects", 1, "h2d"), True),
    # scenes: ids that are not strings, and duplicates
    "scene image_id number": ("scenes", ("image_id",), 5),
    "scene object_id null": ("scenes", ("objects", 1, "object_id"), None),
    "scene caption number": ("scenes", ("objects", 0, "caption"), 7),
    "scene duplicate object_id": ("scenes", ("objects", 1, "object_id"), "obj_000001_0"),
    "scene duplicate image_id": ("scenes", ("image_id",), "scene_000000"),
    # scenes: numbers that break a rule over the columns
    "scene fx zero": ("scenes", ("intrinsics", "fx"), 0),
    "scene cx negative": ("scenes", ("intrinsics", "cx"), -1),
    "scene center behind": ("scenes", ("objects", 1, "box3d", "center", 2), -1),
    "scene rot skewed": ("scenes", ("objects", 1, "box3d", "rot", 0), 2),
    "scene rot reflection": ("scenes", ("objects", 1, "box3d", "rot"), [1, 0, 0, 0, 1, 0, 0, 0, -1]),
    # raw predictions
    "raw missing image_id": ("raw", ("image_id",), _DELETE),
    "raw missing object_id": ("raw", ("object_id",), _DELETE),
    "raw missing raw": ("raw", ("raw",), _DELETE),
    "raw missing u_norm": ("raw", ("raw", "u_norm"), _DELETE),
    "raw missing H": ("raw", ("raw", "H"), _DELETE),
    "raw missing rot6d": ("raw", ("raw", "rot6d"), _DELETE),
    "raw record list": ("raw", (), []),
    "raw record string": ("raw", (), "abc"),
    "raw record number": ("raw", (), 7),
    "raw payload null": ("raw", ("raw",), None),
    "raw payload string": ("raw", ("raw",), "abc"),
    "raw payload list": ("raw", ("raw",), [0.5, 0.5, 3.0, 1.0, 1.0, 1.0]),
    "raw rot6d dict": ("raw", ("raw", "rot6d"), {str(k): 1.0 for k in range(6)}),
    "raw rot6d string": ("raw", ("raw", "rot6d"), "abcdef"),
    "raw rot6d short": ("raw", ("raw", "rot6d"), [1.0, 0.0, 0.0, 0.0, 1.0]),
    "raw u_norm true": ("raw", ("raw", "u_norm"), True),
    "raw d_v null": ("raw", ("raw", "d_v"), None),
    "raw L string": ("raw", ("raw", "L"), "2"),
    "raw rot6d null": ("raw", ("raw", "rot6d", 5), None),
    "raw rot6d zero a": ("raw", ("raw", "rot6d"), [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
    "raw rot6d parallel": ("raw", ("raw", "rot6d"), [1.0, 2.0, -0.5, -2.0, -4.0, 1.0]),
    "raw rot6d overflowing a": ("raw", ("raw", "rot6d"), [1e200, 0.0, 0.0, 0.0, 1.0, 0.0]),
    "raw rot6d overflowing b": ("raw", ("raw", "rot6d"), [1.0, 0.0, 0.0, 0.0, 1e200, 0.0]),
    "raw image_id number": ("raw", ("image_id",), 3),
    "raw v_norm above one": ("raw", ("raw", "v_norm"), 1.5),
    "raw d_v zero": ("raw", ("raw", "d_v"), 0),
    "raw L negative": ("raw", ("raw", "L"), -1.0),
    "raw W negative": ("raw", ("raw", "W"), -1.0),
    "raw H zero": ("raw", ("raw", "H"), 0.0),
    "raw duplicate key": ("raw", (), "line 1"),
    # box predictions
    "box missing box3d": ("box", ("box3d",), _DELETE),
    "box missing center": ("box", ("box3d", "center"), _DELETE),
    "box missing object_id": ("box", ("object_id",), _DELETE),
    "box record null": ("box", (), None),
    "box payload list": ("box", ("box3d",), [0.0, 0.0, 5.0]),
    "box payload number": ("box", ("box3d",), 1.5),
    "box payload null": ("box", ("box3d",), None),
    "box center abc": ("box", ("box3d", "center"), "abc"),
    "box rot dict": ("box", ("box3d", "rot"), {"r": 1.0}),
    "box dims true": ("box", ("box3d", "dims", 1), True),
    "box rot null": ("box", ("box3d", "rot", 0), None),
    "box object_id number": ("box", ("object_id",), 4.0),
    "box duplicate key": ("box", (), "line 1"),
    "box dims zero": ("box", ("box3d", "dims", 1), 0),
    "box rot reflection": ("box", ("box3d", "rot"), [1, 0, 0, 0, 1, 0, 0, 0, -1]),
}

# (kind, [(path, value), ...]) of each second line with two faults; the
# first in reading order is reported.
_MALFORMED_TWICE = {
    "scene object_id number, caption missing": (
        "scenes", [(("objects", 1, "object_id"), 5), (("objects", 1, "caption"), _DELETE)]
    ),
    "scene center abc, dims missing": (
        "scenes", [(("objects", 1, "box3d", "center"), "abc"), (("objects", 1, "box3d", "dims"), _DELETE)]
    ),
    "scene h2d null, next object_id missing": (
        "scenes", [(("objects", 0, "h2d"), None), (("objects", 1, "object_id"), _DELETE)]
    ),
    "raw u_norm true, rot6d short": (
        "raw", [(("raw", "u_norm"), True), (("raw", "rot6d"), [1.0, 0.0, 0.0, 0.0, 1.0])]
    ),
    "raw u_norm above one, H missing": ("raw", [(("raw", "u_norm"), 2.0), (("raw", "H"), _DELETE)]),
    "raw image_id number, raw missing": ("raw", [(("image_id",), 3), (("raw",), _DELETE)]),
}
_EDITS = {name: (kind, [(path, value)]) for name, (kind, path, value) in _MALFORMED.items()}
_EDITS.update(_MALFORMED_TWICE)


class TestStructuralErrorsPinned:
    """The error of each malformed second line of a three-line file, as the
    reader reported it when it checked every field through one helper call:
    the field and the message after 'line 2:'. A faster walk must raise the
    same error at the same place, and of two faults in a line the first."""

    EXPECTED = {
        'scene missing image_id': ('image_id', 'missing'),
        'scene missing intrinsics': ('intrinsics', 'missing'),
        'scene missing fx': ('intrinsics.fx', 'missing'),
        'scene missing height': ('intrinsics.height', 'missing'),
        'scene missing objects': ('objects', 'missing'),
        'scene missing object_id': ('objects[1].object_id', 'missing'),
        'scene missing caption': ('objects[1].caption', 'missing'),
        'scene missing box3d': ('objects[1].box3d', 'missing'),
        'scene missing center': ('objects[1].box3d.center', 'missing'),
        'scene missing dims': ('objects[1].box3d.dims', 'missing'),
        'scene missing rot': ('objects[1].box3d.rot', 'missing'),
        'scene missing box2d': ('objects[1].box2d', 'missing'),
        'scene missing h2d': ('objects[1].h2d', 'missing'),
        'scene record list': ('image_id', 'missing'),
        'scene record string': ('image_id', 'missing'),
        'scene record number': ('image_id', 'missing'),
        'scene record null': ('image_id', 'missing'),
        'scene object list': ('objects[1].object_id', 'missing'),
        'scene object string': ('objects[1].object_id', 'missing'),
        'scene object number': ('objects[0].object_id', 'missing'),
        'scene intrinsics null': ('intrinsics.fx', 'missing'),
        'scene intrinsics string': ('intrinsics.fx', 'missing'),
        'scene objects null': ('objects', 'must be a list'),
        'scene box3d null': ('objects[1].box3d.center', 'missing'),
        'scene box3d number': ('objects[0].box3d.center', 'missing'),
        'scene intrinsics list': ('intrinsics.fx', 'missing'),
        'scene box3d list': ('objects[1].box3d.center', 'missing'),
        'scene objects dict': ('objects', 'must be a list'),
        'scene center dict': ('objects[1].box3d.center', 'expected a list of 3 numbers'),
        'scene box2d dict': ('objects[0].box2d', 'expected a list of 4 numbers'),
        'scene rot dict': ('objects[1].box3d.rot', 'expected a list of 9 numbers'),
        'scene center abc': ('objects[1].box3d.center', 'expected a list of 3 numbers'),
        'scene box2d abcd': ('objects[1].box2d', 'expected a list of 4 numbers'),
        'scene rot string': ('objects[0].box3d.rot', 'expected a list of 9 numbers'),
        'scene dims short': ('objects[1].box3d.dims', 'expected a list of 3 numbers'),
        'scene fx true': ('intrinsics.fx', 'expected a number, got bool'),
        'scene cy null': ('intrinsics.cy', 'expected a number, got NoneType'),
        'scene center null': ('objects[1].box3d.center[2]', 'expected a number, got NoneType'),
        'scene dims string': ('objects[1].box3d.dims[0]', 'expected a number, got str'),
        'scene rot true': ('objects[0].box3d.rot[4]', 'expected a number, got bool'),
        'scene box2d null': ('objects[1].box2d[3]', 'expected a number, got NoneType'),
        'scene h2d true': ('objects[1].h2d', 'expected a number, got bool'),
        'scene image_id number': ('image_id', 'must be a string'),
        'scene object_id null': ('objects[1].object_id', 'must be a string'),
        'scene caption number': ('objects[0].caption', 'must be a string'),
        'scene duplicate object_id': ('objects[1].object_id', "duplicate id 'obj_000001_0'"),
        'scene duplicate image_id': ('image_id', "duplicate image_id 'scene_000000'"),
        'scene fx zero': ('intrinsics', 'fx, fy, width, height must be positive'),
        'scene cx negative': ('intrinsics', 'principal point must lie inside the image'),
        'scene center behind': ('objects[1].box3d.center', 'box center must have Z > 0'),
        'scene rot skewed': ('objects[1].box3d.rot', 'R^T R deviates from identity by 3.891e+00'),
        'scene rot reflection': ('objects[1].box3d.rot', 'determinant -1.0 is not 1'),
        'scene object_id number, caption missing': ('objects[1].object_id', 'must be a string'),
        'scene center abc, dims missing': ('objects[1].box3d.center', 'expected a list of 3 numbers'),
        'scene h2d null, next object_id missing': ('objects[0].h2d', 'expected a number, got NoneType'),
        'raw missing image_id': ('image_id', 'missing'),
        'raw missing object_id': ('object_id', 'missing'),
        'raw missing raw': ('raw', 'missing'),
        'raw missing u_norm': ('raw.u_norm', 'missing'),
        'raw missing H': ('raw.H', 'missing'),
        'raw missing rot6d': ('raw.rot6d', 'missing'),
        'raw record list': ('image_id', 'missing'),
        'raw record string': ('image_id', 'missing'),
        'raw record number': ('image_id', 'missing'),
        'raw payload null': ('raw.u_norm', 'missing'),
        'raw payload string': ('raw.u_norm', 'missing'),
        'raw payload list': ('raw.u_norm', 'missing'),
        'raw rot6d dict': ('raw.rot6d', 'expected a list of 6 numbers'),
        'raw rot6d string': ('raw.rot6d', 'expected a list of 6 numbers'),
        'raw rot6d short': ('raw.rot6d', 'expected a list of 6 numbers'),
        'raw u_norm true': ('raw.u_norm', 'expected a number, got bool'),
        'raw d_v null': ('raw.d_v', 'expected a number, got NoneType'),
        'raw L string': ('raw.L', 'expected a number, got str'),
        'raw rot6d null': ('raw.rot6d[5]', 'expected a number, got NoneType'),
        'raw rot6d zero a': ('raw.rot6d', 'first column is numerically zero'),
        'raw rot6d parallel': ('raw.rot6d', 'columns are parallel'),
        'raw rot6d overflowing a': ('raw.rot6d', 'first column norm overflows'),
        'raw rot6d overflowing b': ('raw.rot6d', 'second column residual norm overflows'),
        'raw image_id number': ('image_id', 'ids must be strings'),
        'raw v_norm above one': ('raw.v_norm', 'normalized projection must be in [0, 1]'),
        'raw d_v zero': ('raw.d_v', 'depth and sizes must be positive'),
        'raw L negative': ('raw.L', 'depth and sizes must be positive'),
        'raw W negative': ('raw.W', 'depth and sizes must be positive'),
        'raw H zero': ('raw.H', 'depth and sizes must be positive'),
        'raw u_norm true, rot6d short': ('raw.u_norm', 'expected a number, got bool'),
        'raw u_norm above one, H missing': ('raw.H', 'missing'),
        'raw image_id number, raw missing': ('image_id', 'ids must be strings'),
        'raw duplicate key': ('object_id', "multiple predictions for ('scene_000000', 'obj_000000_0')"),
        'box missing box3d': ('box3d', 'missing'),
        'box missing center': ('box3d.center', 'missing'),
        'box missing object_id': ('object_id', 'missing'),
        'box record null': ('image_id', 'missing'),
        'box payload list': ('box3d.center', 'missing'),
        'box payload number': ('box3d.center', 'missing'),
        'box payload null': ('box3d.center', 'missing'),
        'box center abc': ('box3d.center', 'expected a list of 3 numbers'),
        'box rot dict': ('box3d.rot', 'expected a list of 9 numbers'),
        'box dims true': ('box3d.dims[1]', 'expected a number, got bool'),
        'box rot null': ('box3d.rot[0]', 'expected a number, got NoneType'),
        'box object_id number': ('image_id', 'ids must be strings'),
        'box duplicate key': ('object_id', "multiple predictions for ('scene_000000', 'obj_000000_0')"),
        'box dims zero': ('box3d.dims', 'dimensions must be positive'),
        'box rot reflection': ('box3d.rot', 'determinant -1.0 is not 1'),
    }

    @pytest.mark.parametrize("name", sorted(_EDITS))
    def test_error_is_pinned(self, tmp_path, name):
        kind, edits = _EDITS[name]
        scenes = synth_scenes(3, seed=24, ranges=SynthRanges(objects_per_scene=(2, 2)))
        if kind == "scenes":
            records = [scene_to_json(r) for r in scenes]
        elif kind == "raw":
            records = [prediction_to_json(p) for p in perfect_raw_predictions(scenes, INDOOR_PROFILE)[:3]]
        else:
            records = [prediction_to_json(PredictionRecord(r.image_id, r.objects[0].object_id,
                                                           box3d=r.objects[0].box3d)) for r in scenes]
        for path, value in edits:
            if value == "line 1":
                value = dict(records[0])
            records[1] = _set(records[1], path, value)
        file = _write_lines(tmp_path / "f.jsonl", [dumps_canonical(r) for r in records])
        with pytest.raises(SchemaError) as info:
            read_scenes(file) if kind == "scenes" else read_predictions(file, kind)
        field, message = self.EXPECTED[name]
        assert info.value.field == field
        assert str(info.value) == f"field '{field}': line 2: field '{field}': {message}"
