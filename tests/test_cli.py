import json
from dataclasses import replace

import pytest

from mono3dg.box3d import OrientedBox3D
from mono3dg.cli import main
from mono3dg.jsonio import loads_strict
from mono3dg.pipeline import box_predictions_from_gt, perfect_raw_predictions, scale_virtual_depth
from mono3dg.scenes import profile_by_name, synth_scenes, write_predictions, write_scenes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthEvaluate:
    def test_end_to_end_perfect(self, tmp_path, capsys):
        scenes = tmp_path / "scenes.jsonl"
        preds = tmp_path / "preds.jsonl"
        code, out, _ = run_cli(
            capsys,
            "synth", "--scenes", "20", "--seed", "9", "--profile", "outdoor",
            "--out", str(scenes), "--perfect-preds", str(preds),
        )
        assert code == 0
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "evaluate", "--gt", str(scenes), "--pred", str(preds),
            "--mode", "raw", "--profile", "outdoor", "--report", str(report),
        )
        assert code == 0
        assert "Acc@0.5 100.0" in out
        assert "DepthError 0.00" in out
        payload = loads_strict(report.read_text())
        assert payload["acc_50"] == 1.0
        assert payload["mean_depth_error"] <= 1e-9

    def test_identical_seeds_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        pa, pb = tmp_path / "pa.jsonl", tmp_path / "pb.jsonl"
        for out, preds in ((a, pa), (b, pb)):
            code, _, _ = run_cli(
                capsys,
                "synth", "--scenes", "15", "--seed", "4", "--profile", "indoor",
                "--out", str(out), "--perfect-preds", str(preds),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert pa.read_bytes() == pb.read_bytes()

    def test_unknown_object_id_fails_with_named_id(self, tmp_path, capsys):
        scenes = tmp_path / "scenes.jsonl"
        preds = tmp_path / "preds.jsonl"
        run_cli(capsys, "synth", "--scenes", "3", "--seed", "0", "--out", str(scenes),
                "--perfect-preds", str(preds))
        lines = preds.read_text().strip().splitlines()
        record = json.loads(lines[0])
        record["object_id"] = "nonexistent_object"
        lines[0] = json.dumps(record)
        preds.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys,
            "evaluate", "--gt", str(scenes), "--pred", str(preds), "--mode", "raw",
        )
        assert code == 1
        assert "nonexistent_object" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "evaluate", "--gt", str(tmp_path / "nope.jsonl"),
            "--pred", str(tmp_path / "nope2.jsonl"), "--mode", "raw",
        )
        assert code == 2
        assert "I/O" in err

    def test_malformed_gt_is_validation_error(self, tmp_path, capsys):
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("{not json\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        code, _, err = run_cli(
            capsys, "evaluate", "--gt", str(scenes), "--pred", str(preds), "--mode", "raw",
        )
        assert code == 1
        assert "line 1" in err


class TestSeedEnvVar:
    def test_env_seed_applies_and_flag_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MONO3DG_SEED", "77")
        env_out = tmp_path / "env.jsonl"
        explicit_out = tmp_path / "explicit.jsonl"
        flag_out = tmp_path / "flag.jsonl"
        run_cli(capsys, "synth", "--scenes", "5", "--out", str(env_out))
        run_cli(capsys, "synth", "--scenes", "5", "--seed", "77", "--out", str(explicit_out))
        run_cli(capsys, "synth", "--scenes", "5", "--seed", "1", "--out", str(flag_out))
        assert env_out.read_bytes() == explicit_out.read_bytes()
        assert env_out.read_bytes() != flag_out.read_bytes()

    def test_non_integer_env_seed_is_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MONO3DG_SEED", "abc")
        code, out, err = run_cli(capsys, "gradcheck")
        assert code == 1
        assert out == ""
        assert err == "error: MONO3DG_SEED must be an integer, got 'abc'\n"


class TestProject:
    def test_projects_point(self, capsys):
        intrinsics = '{"fx":1000,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}'
        code, out, _ = run_cli(capsys, "project", "--intrinsics", intrinsics, "--point", "1,0,5")
        assert code == 0
        payload = loads_strict(out.strip())
        assert payload == {"u": 1160.0, "v": 540.0}

    def test_behind_camera_is_validation_error(self, capsys):
        intrinsics = '{"fx":1000,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}'
        code, _, err = run_cli(capsys, "project", "--intrinsics", intrinsics, "--point", "0,0,-1")
        assert code == 1
        assert err

    @pytest.mark.parametrize("point", ["1,0,inf", "1,0,1e400", "1,0,nan"])
    def test_non_finite_point_is_validation_error(self, capsys, point):
        intrinsics = '{"fx":1000,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}'
        code, out, err = run_cli(capsys, "project", "--intrinsics", intrinsics, "--point", point)
        assert code == 1
        assert out == ""
        assert f"--point coordinates must be finite, got {point}" in err

    @pytest.mark.parametrize("point", ["1,0,x", "1,0,5,"])
    def test_non_numeric_point_is_validation_error(self, capsys, point):
        intrinsics = '{"fx":1000,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}'
        code, out, err = run_cli(capsys, "project", "--intrinsics", intrinsics, "--point", point)
        assert code == 1
        assert out == ""
        assert err == f"error: --point expects three numbers X,Y,Z, got {point}\n"

    def test_intrinsics_that_are_not_json_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "project", "--intrinsics", "{fx:1}", "--point", "1,0,5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --intrinsics is not JSON: Expecting property name")


class TestGradcheck:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 0
        assert "max relative gradient error" in out


class TestTrainToy:
    def test_smoke(self, tmp_path, capsys):
        scenes = tmp_path / "scenes.jsonl"
        run_cli(capsys, "synth", "--scenes", "6", "--seed", "2", "--out", str(scenes))
        ckpt = tmp_path / "ckpt.json"
        code, out, _ = run_cli(
            capsys,
            "train-toy", "--data", str(scenes), "--epochs", "3", "--seed", "0",
            "--out", str(ckpt),
        )
        assert code == 0
        assert ckpt.exists()
        loss_csv = tmp_path / "ckpt.json.loss.csv"
        assert loss_csv.exists()
        lines = loss_csv.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 4

    def test_deterministic_artifacts(self, tmp_path, capsys):
        scenes = tmp_path / "scenes.jsonl"
        run_cli(capsys, "synth", "--scenes", "5", "--seed", "3", "--out", str(scenes))
        outputs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.json"
            code, _, _ = run_cli(
                capsys,
                "train-toy", "--data", str(scenes), "--epochs", "2", "--seed", "5",
                "--out", str(ckpt),
            )
            assert code == 0
            outputs.append((ckpt.read_bytes(), (tmp_path / f"{name}.json.loss.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--batch-size", "0"), ("--batch-size", "-1")])
    def test_meaningless_sizes_are_validation_errors(self, tmp_path, capsys, flag, value):
        scenes = tmp_path / "scenes.jsonl"
        run_cli(capsys, "synth", "--scenes", "3", "--seed", "4", "--out", str(scenes))
        ckpt = tmp_path / "ckpt.json"
        code, _, err = run_cli(capsys, "train-toy", "--data", str(scenes), "--out", str(ckpt), flag, value)
        assert code == 1
        assert flag[2:].replace("-", "_") in err
        assert not ckpt.exists()


class TestGoldenReports:
    """`evaluate` report bytes on small synthesized files, pinned literally.

    Each literal was produced by the per-query scoring code before scoring
    was batched; any change in the bits of an IoU near a threshold, of a
    center or of an error sum shows up here.
    """

    GOLDEN = {
        "outdoor_raw": (
            '{"acc_25":0.23376623376623376,"acc_50":0.064935064935064929,'
            '"mean_depth_error":1.5491852701744395,"mean_length_error":0,'
            '"mean_width_error":0,"mean_height_error":0,"count":77}'
        ),
        "outdoor_raw_euclidean": (
            '{"acc_25":0.23376623376623376,"acc_50":0.064935064935064929,'
            '"mean_depth_error":1.6836898864775367,"mean_length_error":0,'
            '"mean_width_error":0,"mean_height_error":0,"count":77}'
        ),
        "outdoor_raw_missing": (
            '{"acc_25":0.23376623376623376,"acc_50":0.064935064935064929,'
            '"mean_depth_error":1.5530034573967566,"mean_length_error":0,'
            '"mean_width_error":0,"mean_height_error":0,"count":77}'
        ),
        "outdoor_box": (
            '{"acc_25":0.62337662337662336,"acc_50":0.31168831168831168,'
            '"mean_depth_error":0.36559664612760212,"mean_length_error":0.21673424286557377,'
            '"mean_width_error":0.085607750597629789,"mean_height_error":0.081598137848133315,'
            '"count":77}'
        ),
        "indoor_raw": (
            '{"acc_25":0.50632911392405067,"acc_50":0.26582278481012656,'
            '"mean_depth_error":0.49194657709911005,"mean_length_error":0,'
            '"mean_width_error":0,"mean_height_error":0,"count":79}'
        ),
        "indoor_box": (
            '{"acc_25":0.60759493670886078,"acc_50":0.30379746835443039,'
            '"mean_depth_error":0.27415324683352804,"mean_length_error":0.063833701541747848,'
            '"mean_width_error":0.067791750353082367,"mean_height_error":0.064362165054066361,'
            '"count":79}'
        ),
    }

    @staticmethod
    def _inputs(tmp_path, profile_name):
        scenes = synth_scenes(40, seed=3, profile_name=profile_name)
        gt = tmp_path / f"gt_{profile_name}.jsonl"
        write_scenes(gt, scenes)
        raw = scale_virtual_depth(perfect_raw_predictions(scenes, profile_by_name(profile_name)), 1.1)
        boxes = []
        for k, p in enumerate(box_predictions_from_gt(scenes)):
            b = p.box3d
            shift = b.rot @ ((0.05 * (k % 10)) * b.dims)
            boxes.append(replace(p, box3d=OrientedBox3D(b.center + shift, 1.05 * b.dims, b.rot)))
        return gt, raw, boxes

    @staticmethod
    def _evaluate(capsys, tmp_path, gt, preds, mode, profile_name, *extra):
        pred_path = tmp_path / "preds.jsonl"
        write_predictions(pred_path, preds)
        report = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "evaluate", "--gt", str(gt), "--pred", str(pred_path), "--mode", mode,
            "--profile", profile_name, "--report", str(report), *extra,
        )
        assert code == 0, err
        return report.read_text(encoding="utf-8")

    @pytest.mark.parametrize("profile_name", ["outdoor", "indoor"])
    def test_reports_match_golden(self, tmp_path, capsys, profile_name):
        gt, raw, boxes = self._inputs(tmp_path, profile_name)
        got = {
            f"{profile_name}_raw": self._evaluate(capsys, tmp_path, gt, raw, "raw", profile_name),
            f"{profile_name}_box": self._evaluate(capsys, tmp_path, gt, boxes, "box", profile_name),
        }
        if profile_name == "outdoor":
            got["outdoor_raw_euclidean"] = self._evaluate(
                capsys, tmp_path, gt, raw, "raw", profile_name, "--depth-metric", "euclidean"
            )
            got["outdoor_raw_missing"] = self._evaluate(
                capsys, tmp_path, gt, raw[:5] + raw[6:], "raw", profile_name
            )
        for name, text in got.items():
            assert text == self.GOLDEN[name] + "\n", name
