"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py wraps package functions by name at the modules where
their callers look them up; a refactor that renames or moves one of them
would otherwise only show at benchmark time.
"""

import importlib.util
from pathlib import Path

import mono3dg
from mono3dg import box3d, cli, metrics, pipeline
from mono3dg.pipeline import perfect_raw_predictions, scale_virtual_depth
from mono3dg.scenes import OUTDOOR_PROFILE, synth_scenes, write_predictions, write_scenes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
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
    tracing = _load_tracing()
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
