import numpy as np
import pytest

from mono3dg.camera import VirtualCamera, real_to_virtual_depth
from mono3dg.errors import InvalidRanges, ParseError, SchemaError
from mono3dg.jsonio import dumps_canonical, loads_strict
from mono3dg.scenes import (
    FOCAL_PAIR_SUFFIX,
    INDOOR_PROFILE,
    OUTDOOR_PROFILE,
    PredictionRecord,
    SynthRanges,
    prediction_from_json,
    prediction_to_json,
    profile_by_name,
    read_predictions,
    read_scenes,
    scene_from_json,
    scene_to_json,
    synth_scenes,
    write_predictions,
    write_scenes,
)
from mono3dg.pipeline import perfect_raw_predictions


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
                    x, y, z = obj.box3d.center
                    u = cam.fx * x / z + cam.cx
                    v = cam.fy * y / z + cam.cy
                    assert 0.0 <= u <= cam.width
                    assert 0.0 <= v <= cam.height

    def test_h2d_is_exact_projected_height(self):
        for record in synth_scenes(20, seed=4, profile_name="outdoor"):
            for obj in record.objects:
                expected = record.intrinsics.fy * obj.box3d.dims[2] / obj.box3d.center[2]
                assert obj.h2d == pytest.approx(expected, rel=1e-12)

    def test_outdoor_boxes_are_yaw_only(self):
        for record in synth_scenes(20, seed=6, profile_name="outdoor"):
            for obj in record.objects:
                R = obj.box3d.rot
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
                dv_base = real_to_virtual_depth(obj_base.box3d.center[2], base.intrinsics, vc)
                dv_pair = real_to_virtual_depth(obj_pair.box3d.center[2], pair.intrinsics, vc)
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
            assert np.array_equal(orig.objects[0].box3d.center, back.objects[0].box3d.center)
            assert np.array_equal(orig.objects[0].box3d.rot, back.objects[0].box3d.rot)

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
        write_scenes(path, records + records[:1])
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
        assert np.array_equal(loaded[0].box3d.rot, preds[0].box3d.rot)

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
        write_predictions(path, preds + [preds[0]])
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
