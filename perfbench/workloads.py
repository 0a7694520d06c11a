"""The benchmark's workloads: set-up, timed loop and output checks.

Every workload is a closed loop with one caller: each call into the CLI or
the library starts when the previous one has returned. CLI calls run
in-process through ``cli.main``; only ``cli_start_s`` starts fresh
interpreters. All mono3dg names are looked up through their modules at call
time, so the traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mono3dg import box3d, camera, cli, decoder, jsonio, pipeline, scenes

EVAL_SCENES = 2000
SHARD_SCENES = 100
DEPTH_SCALE = 1.1  # only d_v is perturbed, so L/W/H errors must be exactly 0
EVAL_SETUPS = 3
MIN_PASSES = 2

TOY_SCENES = 256
TOY_EPOCHS = 2  # the fewest that still let the loss check compare two epochs
TOY_BATCH = 16
TOY_SETUPS = 7
MIN_TRAIN_CALLS = 20  # enough for a tail percentile with ten samples beyond

CLI_START_SAMPLES = 9  # the fewest a run takes
CLI_START_EVERY_S = 4.0
CLI_START_ARGS = (
    "project",
    "--intrinsics",
    '{"fx":1000,"fy":1000,"cx":960,"cy":540,"width":1920,"height":1080}',
    "--point",
    "1,0,5",
)

ORACLE_PAIRS = 12
ORACLE_SAMPLES = 1_000_000
ORACLE_TOL = 0.005  # acceptance criterion C5, Monte-Carlo agreement
BEV_TOL = 1e-9  # acceptance criterion C5, yaw-only fast path agreement

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Ledger:
    """Every CLI exit code and check result of one run."""

    def __init__(self):
        self.calls = 0
        self.failed_calls: list[str] = []
        self.library_calls = 0
        self.checks: dict[str, bool] = {}
        self.notes: dict[str, str] = {}

    def cli(self, argv: list) -> None:
        """Run ``mono3dg <argv>`` in-process; its standard output is discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        self.record(code, argv)

    def record(self, code: int, argv) -> None:
        self.calls += 1
        if code != 0:
            self.failed_calls.append(f"exit {code}: mono3dg {' '.join(map(str, argv))}")

    def check(self, name: str, ok: bool, note: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok and note and name not in self.notes:
            self.notes[name] = note

    @property
    def attempted(self) -> int:
        return self.calls + self.library_calls

    @property
    def correct(self) -> bool:
        return not self.failed_calls and all(self.checks.values())


def tail(values: list) -> tuple:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = -(-n * p // 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[int(rank) - 1]
    raise ValueError(f"{n} samples cannot give a percentile with {TAIL_BEYOND} beyond it")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class EvalWorkload:
    """synth -> scale d_v by 1.1 -> 20 shards -> ``evaluate --mode raw`` per shard."""

    setups = EVAL_SETUPS

    def __init__(self, profile: str, seed: int, workdir: Path, ledger: Ledger):
        self.profile = profile
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.shards: list[tuple] = []
        self.reports: list[list] = []

    def setup(self) -> None:
        gt_all = self.workdir / "scenes.jsonl"
        perfect = self.workdir / "perfect.jsonl"
        self.ledger.cli(["synth", "--scenes", EVAL_SCENES, "--seed", self.seed,
                         "--profile", self.profile, "--out", gt_all, "--perfect-preds", perfect])
        preds = scenes.read_predictions(perfect, "raw")
        self.ledger.library_calls += 1
        by_image: dict = {}
        for p in pipeline.scale_virtual_depth(preds, DEPTH_SCALE):
            by_image.setdefault(p.image_id, []).append(p)
        lines = gt_all.read_text(encoding="utf-8").splitlines(keepends=True)
        self.shards = []
        for k, first in enumerate(range(0, len(lines), SHARD_SCENES)):
            chunk = lines[first:first + SHARD_SCENES]
            gt = self.workdir / f"gt_{k:02d}.jsonl"
            pred = self.workdir / f"pred_{k:02d}.jsonl"
            gt.write_text("".join(chunk), encoding="utf-8")
            ids = [json.loads(line)["image_id"] for line in chunk]
            scenes.write_predictions(pred, [p for i in ids for p in by_image[i]])
            self.ledger.library_calls += 1
            self.shards.append((gt, pred))

    def run(self, seconds: float, tracer, cli_starts: CliStarts) -> dict:
        queries = sum(_gt_queries(gt) for gt, _ in self.shards)
        pass_s, shard_ms = [], []
        deadline = time.perf_counter() + seconds
        # Start another pass only if at least half of it fits before the deadline.
        while len(pass_s) < MIN_PASSES or time.perf_counter() + pass_s[-1] / 2 < deadline:
            p = len(self.reports)
            reports = []
            busy = 0.0
            for k, (gt, pred) in enumerate(self.shards):
                report = self.workdir / f"report_{p:03d}_{k:02d}.json"
                tracer.request = f"pass-{p}/shard-{k:02d}"
                start = time.perf_counter()
                self.ledger.cli(["evaluate", "--gt", gt, "--pred", pred, "--mode", "raw",
                                 "--profile", self.profile, "--report", report])
                elapsed = time.perf_counter() - start
                busy += elapsed
                shard_ms.append(elapsed * 1e3)
                reports.append(report)
                cli_starts.due()
            pass_s.append(busy)
            self.reports.append(reports)
        percentile, tail_ms = tail(shard_ms)
        return {
            "score_qps": len(pass_s) * queries / sum(pass_s),
            "request_p50_ms": statistics.median(shard_ms),
            "request_tail_ms": tail_ms,
            "tail_percentile": percentile,
            "request_samples": len(shard_ms),
            "passes": len(pass_s),
            "queries_per_pass": queries,
            "samples": {"pass_qps": [queries / t for t in pass_s], "request_ms": shard_ms},
            "units": {"pass": len(pass_s)},
        }

    def check(self) -> None:
        led = self.ledger
        for k, (gt, _) in enumerate(self.shards):
            expected = _gt_queries(gt)
            first = self.reports[0][k].read_bytes()
            for reports in self.reports:
                data = reports[k].read_bytes()
                led.check("report_repeats_identical", data == first, f"shard {k}")
                report = json.loads(data)
                led.check("report_count_equals_queries", report["count"] == expected,
                          f"shard {k}: count {report['count']} != {expected}")
                for key in ("mean_length_error", "mean_width_error", "mean_height_error"):
                    led.check("size_errors_exactly_zero", report.get(key) == 0.0,
                              f"shard {k}: {key}={report.get(key)}")
        self._check_oracles()

    def _check_oracles(self) -> None:
        """Exact IoU of a seeded sample of scored pairs against the
        Monte-Carlo oracle and, for yaw-only boxes, the BEV fast path."""
        rng = np.random.default_rng(self.seed)
        profile = scenes.profile_by_name(self.profile)
        worst_mc = worst_bev = 0.0
        for k in rng.choice(len(self.shards), size=ORACLE_PAIRS):
            gt_path, pred_path = self.shards[int(k)]
            records = scenes.read_scenes(gt_path)
            preds = {(p.image_id, p.object_id): p for p in scenes.read_predictions(pred_path, "raw")}
            record = records[int(rng.integers(len(records)))]
            obj = record.objects[int(rng.integers(len(record.objects)))]
            raw = preds[(record.image_id, obj.object_id)].raw
            box = pipeline.box_from_raw(raw, record.intrinsics, profile, h2d=obj.h2d)
            exact = box3d.iou3d(box, obj.box3d)
            mc = box3d.iou3d_monte_carlo(box, obj.box3d, ORACLE_SAMPLES, seed=int(rng.integers(2**31)))
            worst_mc = max(worst_mc, abs(exact - mc))
            if self.profile == "outdoor":
                worst_bev = max(worst_bev, abs(exact - box3d.iou3d_bev_yaw(box, obj.box3d)))
        self.ledger.check("iou_matches_monte_carlo", worst_mc <= ORACLE_TOL, f"worst {worst_mc:.3e}")
        if self.profile == "outdoor":
            self.ledger.check("iou_matches_bev_yaw", worst_bev <= BEV_TOL, f"worst {worst_bev:.3e}")


def _gt_queries(gt: Path) -> int:
    with open(gt, encoding="utf-8") as fh:
        return sum(len(json.loads(line)["objects"]) for line in fh if line.strip())


class TrainToyWorkload:
    """synth 256 indoor scenes -> ``train-toy`` -> load, predict and score."""

    setups = TOY_SETUPS

    def __init__(self, seed: int, workdir: Path, ledger: Ledger):
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.data = workdir / "toy.jsonl"
        self.ckpt = workdir / "toy_ckpt.json"
        self.loss_csv = workdir / "toy_loss.csv"
        self.records: list = []
        self.outputs: list[tuple] = []
        self.scores: list = []
        self.first_last_loss: list[tuple] = []

    def setup(self) -> None:
        self.ledger.cli(["synth", "--scenes", TOY_SCENES, "--seed", self.seed,
                         "--profile", "indoor", "--out", self.data])
        self.records = scenes.read_scenes(self.data)
        self.ledger.library_calls += 1

    def run(self, seconds: float, tracer, cli_starts: CliStarts) -> dict:
        records = self.records
        queries = sum(len(r.objects) for r in records)
        train_ms, score_s = [], []
        deadline = time.perf_counter() + seconds
        while len(train_ms) < MIN_TRAIN_CALLS or time.perf_counter() < deadline:
            tracer.request = f"train-{len(train_ms)}"
            start = time.perf_counter()
            self.ledger.cli(["train-toy", "--data", self.data, "--epochs", TOY_EPOCHS,
                             "--seed", self.seed, "--batch-size", TOY_BATCH,
                             "--out", self.ckpt, "--loss-csv", self.loss_csv])
            train_ms.append((time.perf_counter() - start) * 1e3)
            self._keep_outputs()
            cli_starts.due()
            tracer.request = f"score-{len(score_s)}"
            start = time.perf_counter()
            params = decoder.load_checkpoint(self.ckpt)
            preds = pipeline.decoder_predictions(records, params, scenes.INDOOR_PROFILE,
                                                 scenes.INDOOR_RANGES)
            report = pipeline.run_pipeline(records, preds, scenes.INDOOR_PROFILE)
            score_s.append(time.perf_counter() - start)
            self.ledger.library_calls += 1
            self.scores.append((report.count, queries))
        percentile, tail_ms = tail(train_ms)
        p50_ms = statistics.median(train_ms)
        return {
            "score_qps": len(score_s) * queries / sum(score_s),
            "request_p50_ms": p50_ms,
            "request_tail_ms": tail_ms,
            "tail_percentile": percentile,
            "request_samples": len(train_ms),
            "score_passes": len(score_s),
            "samples": {"score_qps": [queries / t for t in score_s], "request_ms": train_ms},
            "train_samples_per_s": TOY_EPOCHS * queries / (p50_ms / 1e3),
            "units": {"train": len(train_ms), "score": len(score_s)},
        }

    def _keep_outputs(self) -> None:
        self.outputs.append((_sha(self.ckpt), _sha(self.loss_csv)))
        with open(self.loss_csv, encoding="utf-8") as fh:
            losses = [float(row.split(",")[1]) for row in fh.read().splitlines()[1:]]
        self.first_last_loss.append((losses[0], losses[-1]))

    def check(self) -> None:
        led = self.ledger
        led.check("checkpoint_repeats_identical", len({c for c, _ in self.outputs}) == 1)
        led.check("loss_csv_repeats_identical", len({l for _, l in self.outputs}) == 1)
        for first, last in self.first_last_loss:
            led.check("loss_decreases", last < first, f"first {first} last {last}")
        for count, queries in self.scores:
            led.check("toy_report_count_equals_queries", count == queries, f"{count} != {queries}")


class CliStarts:
    """Wall times of fresh interpreters running ``mono3dg.cli project``.

    The workloads take one sample every CLI_START_EVERY_S seconds of their
    timed loop, so the samples spread over the whole run and see the same
    host load as the in-process figures, instead of a few seconds at its end.
    """

    def __init__(self, root: Path, ledger: Ledger):
        self.root = root
        self.ledger = ledger
        self.times: list[float] = []
        self.next_at = 0.0
        intrinsics = scenes.intrinsics_from_json(jsonio.loads_strict(CLI_START_ARGS[2]))
        pix = camera.project(camera.Point3D(1.0, 0.0, 5.0), intrinsics)
        self.expected = jsonio.dumps_canonical({"u": pix.u, "v": pix.v}) + "\n"

    def due(self) -> None:
        """Take a sample if the last one is CLI_START_EVERY_S seconds old."""
        if time.perf_counter() >= self.next_at:
            self.sample()
            self.next_at = time.perf_counter() + CLI_START_EVERY_S

    def top_up(self) -> list:
        while len(self.times) < CLI_START_SAMPLES:
            self.sample()
        return self.times

    def sample(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"),
                                                           env.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "mono3dg.cli", *CLI_START_ARGS],
                              cwd=self.root, env=env, capture_output=True, text=True, check=False)
        self.times.append(time.perf_counter() - start)
        self.ledger.record(proc.returncode, ["project", "(fresh interpreter)"])
        self.ledger.check("cli_project_output", proc.stdout == self.expected,
                          proc.stdout + proc.stderr)
