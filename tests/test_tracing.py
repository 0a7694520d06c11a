"""The benchmark's tracer still finds every function it wraps, and its
workloads' library calls still run and pass their checks.

perfbench/tracing.py wraps package functions by name at the modules where
their callers look them up, and perfbench/workloads.py calls the package
directly; a refactor that renames, moves or retypes one of them would
otherwise only show at benchmark time.
"""

import importlib.util
from pathlib import Path

import mono3dg
from mono3dg import box3d, cli, metrics, pipeline
import pytest
from mono3dg.pipeline import perfect_raw_predictions, scale_virtual_depth
from mono3dg.scenes import OUTDOOR_PROFILE, profile_by_name, synth_scenes, write_predictions, write_scenes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup_sites(tracing):
    sites = {}
    for name, modules in tracing.TIMED_FUNCTIONS.items():
        attr = name.split(".")[1]
        for site in modules:
            module = importlib.import_module(f"mono3dg.{site}") if site else mono3dg
            sites[(module.__name__, attr)] = getattr(module, attr)
    return sites


def test_tracer_installs_traces_and_uninstalls(tmp_path, capsys):
    tracing = _load_perfbench("tracing")
    before = _lookup_sites(tracing)
    scenes = synth_scenes(6, seed=3, profile_name="outdoor")
    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    write_scenes(gt, scenes)
    raw = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
    write_predictions(pred, scale_virtual_depth(raw, 1.1))

    tracer = tracing.Tracer()
    tracer.install(mono3dg)
    try:
        assert pipeline.run_pipeline is not before[("mono3dg.pipeline", "run_pipeline")]
        tracer.request = "pass-0"
        code = cli.main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--mode", "raw",
                         "--profile", "outdoor"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "scenes.read_scenes", "scenes.read_predictions",
            "pipeline.run_pipeline", "metrics.aggregate"} <= names
    assert _lookup_sites(tracing) == before
    assert metrics.iou3d is box3d.iou3d


@pytest.mark.parametrize("profile_name", ["outdoor", "indoor"])
def test_eval_oracle_checks_pass(tmp_path, profile_name):
    # The benchmark's record-level box_from_raw -> iou3d, iou3d_monte_carlo
    # and (outdoor) iou3d_bev_yaw calls, on one small shard.
    workloads = _load_perfbench("workloads")
    workloads.ORACLE_PAIRS = 2
    scenes = synth_scenes(8, seed=5, profile_name=profile_name)
    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    write_scenes(gt, scenes)
    raw = perfect_raw_predictions(scenes, profile_by_name(profile_name))
    write_predictions(pred, scale_virtual_depth(raw, workloads.DEPTH_SCALE))
    ledger = workloads.Ledger()
    workload = workloads.EvalWorkload(profile_name, 3, tmp_path, ledger)
    workload.shards = [(gt, pred)]
    workload._check_oracles()
    expected = {"iou_matches_monte_carlo"} | ({"iou_matches_bev_yaw"} if profile_name == "outdoor" else set())
    assert set(ledger.checks) == expected
    assert ledger.correct, ledger.notes
