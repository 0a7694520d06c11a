import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

import test_pipeline
from conftest import fresh_python, haswell_pinned, make_box
from mono3dg import decoder, fusion
from mono3dg.box3d import CENTER, DIMS, ROT
from mono3dg.cli import main
from mono3dg.jsonio import dumps_canonical, loads_strict
from mono3dg.pipeline import box_predictions_from_gt, perfect_raw_predictions, scale_virtual_depth
from mono3dg.rotation import rotation_defects
from mono3dg.scenes import profile_by_name, read_scenes, synth_scenes, write_predictions, write_scenes


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


class TestHelp:
    @pytest.mark.parametrize("command, options", [
        ("synth", {"--scenes", "--seed", "--profile", "--out", "--perfect-preds"}),
        ("evaluate", {"--gt", "--pred", "--mode", "--profile", "--report", "--depth-metric"}),
        ("project", {"--intrinsics", "--point"}),
        ("train-toy", {"--data", "--epochs", "--seed", "--out", "--profile", "--batch-size", "--loss-csv"}),
        ("gradcheck", {"--seed"}),
    ])
    def test_every_subcommand_names_its_options(self, capsys, command, options):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: mono3dg {command} ")
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == options | {"--help"}


class TestNearRotations:
    def test_float32_rotations_are_read_as_frames(self, tmp_path, capsys):
        # Rounded through float32, a rotation is off by ~5e-8 and passes the
        # reader's 1e-6 check. Stored as read, its corners sat off the exact
        # kernel's faces (Acc@0.5 read far below 100 on perfect predictions),
        # and train-toy rejected it against validate_rotation's 1e-9.
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        code, _, _ = run_cli(
            capsys, "synth", "--scenes", "40", "--seed", "3", "--out", str(gt), "--perfect-preds", str(preds)
        )
        assert code == 0
        records = [loads_strict(line) for line in gt.read_text().splitlines()]
        for record in records:
            for obj in record["objects"]:
                obj["box3d"]["rot"] = np.float32(obj["box3d"]["rot"]).tolist()
        gt.write_text("".join(dumps_canonical(record) + "\n" for record in records))
        rot = np.array([obj["box3d"]["rot"] for record in records for obj in record["objects"]])
        assert (rotation_defects(rot.reshape(-1, 3, 3))[0] > 1e-12).all()

        stored = read_scenes(gt).boxes[:, ROT]
        err, det = rotation_defects(stored.reshape(-1, 3, 3))
        assert err.max() <= 1e-15 and np.abs(det - 1.0).max() <= 1e-15
        assert np.abs(stored - rot).max() <= 1e-6
        code, out, _ = run_cli(capsys, "evaluate", "--gt", str(gt), "--pred", str(preds), "--mode", "raw")
        assert code == 0 and "Acc@0.5 100.0" in out
        ckpt = tmp_path / "ckpt.json"
        code, _, err = run_cli(capsys, "train-toy", "--data", str(gt), "--epochs", "1", "--seed", "0", "--out", str(ckpt))
        assert code == 0, err


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

    def test_non_integer_env_seed_is_ignored_without_seed_option(self, capsys, monkeypatch):
        monkeypatch.setenv("MONO3DG_SEED", "abc")
        intrinsics = '{"fx":1000,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}'
        code, out, err = run_cli(capsys, "project", "--intrinsics", intrinsics, "--point", "1,0,5")
        assert code == 0
        assert out == '{"u":1160,"v":540}\n'
        assert err == ""


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

    @pytest.mark.parametrize("intrinsics, field, message", [
        ("[1,2,3]", "fx", "missing"),
        ('{"fx":1000,"fy":1000,"cx":960,"width":1920,"height":1080}', "cy", "missing"),
        ('{"fx":true,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}', "fx", "expected a number, got bool"),
    ])
    def test_malformed_intrinsics_name_the_field(self, capsys, intrinsics, field, message):
        code, out, err = run_cli(capsys, "project", "--intrinsics", intrinsics, "--point", "1,0,5")
        assert code == 1
        assert out == ""
        assert err == f"error: field 'intrinsics.{field}': {message}\n"


class TestGradcheck:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 0
        assert "max relative gradient error" in out

    def test_fails_on_scaled_attention_gradients(self, capsys, monkeypatch):
        exact = fusion.cross_branch_attention_grads

        def scaled(*args):
            g = exact(*args)
            return fusion.AttentionParams(1.01 * g.w_q, 1.01 * g.w_k, 1.01 * g.w_v)

        monkeypatch.setattr(fusion, "cross_branch_attention_grads", scaled)
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 1
        worst = float(re.fullmatch(r"max relative gradient error: (\S+)\n", out).group(1))
        assert worst > 1e-3
        assert err == "gradcheck FAILED (tolerance 1e-05)\n"

    def test_fails_on_scaled_decoder_attention_gradients(self, capsys, monkeypatch):
        # fusion binds its own attention_backward, so only the decoder's changes
        exact = decoder.attention_backward

        def scaled(d_out, cache):
            return tuple(1.01 * g for g in exact(d_out, cache))

        monkeypatch.setattr(decoder, "attention_backward", scaled)
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 1
        assert float(re.fullmatch(r"max relative gradient error: (\S+)\n", out).group(1)) > 1e-5
        assert err == "gradcheck FAILED (tolerance 1e-05)\n"


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


class TestColdStart:
    """Only the decoder needs scipy (gelu's ``erf``). A fresh ``python -m
    mono3dg.cli`` process loads it when training runs the decoder, and
    never for ``synth``, ``evaluate`` or ``project``."""

    CODE = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('mono3dg.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, *sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )

    @classmethod
    def _run(cls, *argv, env=None):
        """Exit code and loaded ``scipy*`` modules of ``python -m mono3dg.cli *argv``."""
        code, *modules = fresh_python(cls.CODE, *argv, env=env).splitlines()[-1].split()
        return int(code), modules

    def test_synth_evaluate_project_leave_scipy_unloaded(self, tmp_path):
        scenes, preds = tmp_path / "scenes.jsonl", tmp_path / "preds.jsonl"
        runs = [
            ["synth", "--scenes", "5", "--seed", "1", "--profile", "indoor", "--out", str(scenes),
             "--perfect-preds", str(preds)],
            ["evaluate", "--gt", str(scenes), "--pred", str(preds), "--mode", "raw", "--profile", "indoor"],
            ["project", "--point", "0.5,-0.2,4", "--intrinsics",
             '{"fx": 700, "fy": 700, "cx": 320, "cy": 240, "width": 640, "height": 480}'],
        ]
        for argv in runs:
            assert self._run(*argv) == (0, []), argv[0]

    @haswell_pinned
    def test_train_toy_loads_scipy_special_and_keeps_its_bits(self, tmp_path):
        data, ckpt, loss_csv = (tmp_path / name for name in ("toy.jsonl", "ckpt.json", "loss.csv"))
        write_scenes(data, synth_scenes(16, seed=5, profile_name="indoor"))
        code, modules = self._run("train-toy", "--data", str(data), "--epochs", "3", "--seed", "2",
                                  "--batch-size", "8", "--out", str(ckpt), "--loss-csv", str(loss_csv),
                                  env={"OPENBLAS_CORETYPE": "Haswell"})
        assert code == 0
        assert "scipy.special" in modules
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (ckpt, loss_csv)]
        assert digests == test_pipeline.TestToySameBitsAsPerQueryCode.TRAIN_DIGESTS


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
            shift = b[ROT].reshape(3, 3) @ ((0.05 * (k % 10)) * b[DIMS])
            boxes.append(replace(p, box3d=make_box(b[CENTER] + shift, 1.05 * b[DIMS], b[ROT])))
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

    @pytest.mark.parametrize("mode", ["raw", "box"])
    def test_no_predictions_at_all(self, tmp_path, capsys, mode):
        gt, _, _ = self._inputs(tmp_path, "outdoor")
        text = self._evaluate(capsys, tmp_path, gt, [], mode, "outdoor")
        assert text == '{"acc_25":0,"acc_50":0,"count":77}\n'
