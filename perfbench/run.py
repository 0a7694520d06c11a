"""mono3dg benchmark: run one workload, or compare two sets of runs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval-outdoor --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run builds its inputs from ``--seed``, sets them up several times (the
median is ``setup_s``), measures for ``--seconds``, then checks every
output. With ``--trace 1`` it measures ``--seconds / 2`` untraced and
``--seconds / 2`` traced, reports the per-layer figures from the traced half
and the tracing overhead as traced minus untraced, and writes the spans to
``.perfbench-out/``. Every run appends its full record (provenance, sample
counts, checks, failure accounting) to ``--out``; the last line of standard
output is the result summary.

See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("eval-outdoor", "train-toy")
# End-to-end metrics measured separately in each half of a traced run.
PHASE_METRICS = ("setup_s", "score_qps", "request_p50_ms", "request_tail_ms")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl",
                        help="JSONL file the full run record is appended to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def import_package():
    """Import mono3dg from this checkout's src/, single-threaded BLAS."""
    src = ROOT / "src"
    if not (src / "mono3dg" / "__init__.py").is_file():
        raise SystemExit(f"error: no mono3dg sources under {src}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import mono3dg

    if Path(mono3dg.__file__).resolve().parent != (src / "mono3dg").resolve():
        raise SystemExit(f"error: imported mono3dg from {mono3dg.__file__}, not {src}")
    return mono3dg


def provenance(args, workloads) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(ROOT / "src"),
        "seed": args.seed,
        "seconds": args.seconds,
        "eval_scenes": workloads.EVAL_SCENES,
        "shard_scenes": workloads.SHARD_SCENES,
        "toy_scenes": workloads.TOY_SCENES,
        "toy_epochs": workloads.TOY_EPOCHS,
        "toy_batch": workloads.TOY_BATCH,
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def make_workload(name: str, seed: int, workdir: Path, ledger, workloads):
    if name == "train-toy":
        return workloads.TrainToyWorkload(seed, workdir, ledger)
    return workloads.EvalWorkload(name.split("-", 1)[1], seed, workdir, ledger)


def measure(workload, seconds: float, tracer, cli_starts) -> dict:
    """Set up ``workload.setups`` times, then run its timed loop."""
    setup_s = []
    for k in range(workload.setups):
        tracer.request = f"setup-{k}"
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    figures = workload.run(seconds, tracer, cli_starts)
    figures["setup_s"] = statistics.median(setup_s)
    figures["samples"]["setup_s"] = setup_s
    figures["units"]["setup"] = len(setup_s)
    return figures


def run(args) -> int:
    package = import_package()
    import tracing
    import workloads

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ledger = workloads.Ledger()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "started_at": started, "provenance": provenance(args, workloads)}
    try:
        workload = make_workload(args.workload, args.seed, workdir, ledger, workloads)
        cli_starts = workloads.CliStarts(ROOT, ledger)
        if args.trace:
            untraced = measure(workload, args.seconds / 2, tracing.Tracer(), cli_starts)
            tracer = tracing.Tracer()
            tracer.install(package)
            try:
                figures = measure(workload, args.seconds / 2, tracer, cli_starts)
            finally:
                tracer.uninstall()
            record["trace_overhead"] = {m: figures[m] - untraced[m] for m in PHASE_METRICS}
            record["layers"] = tracer.layer_metrics(figures["units"])
            record["spans"] = len(tracer.spans)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            figures = measure(workload, args.seconds, tracing.Tracer(), cli_starts)
        figures["samples"]["cli_start_s"] = cli_starts.top_up()
        figures["cli_start_s"] = statistics.median(figures["samples"]["cli_start_s"])
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.check()
    except Exception:  # a crash fails the run: report it, but print no figures
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(1, ledger.attempted),
                          "failed": len(ledger.failed_calls), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["figures"] = {k: v for k, v in figures.items() if k not in ("units", "samples")}
    record["units"] = figures["units"]
    record["samples"] = figures["samples"]
    record["accounting"] = {
        "cli_calls": ledger.calls,
        "cli_failed": len(ledger.failed_calls),
        "failed_ratio": len(ledger.failed_calls) / ledger.calls,
        "library_calls": ledger.library_calls,
        "failures": ledger.failed_calls,
        "checks": ledger.checks,
        "check_notes": ledger.notes,
    }
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            layer, stat = m["name"].rsplit(".", 1)
            metrics[m["name"]] = {"value": record["layers"][layer][stat], "unit": m["unit"]}
    else:
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    record["correct"] = ledger.correct
    record["metrics"] = metrics if ledger.correct else {}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({k: record[k] for k in ("workload", "seed", "figures", "accounting")}))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed_calls),
        "metrics": record["metrics"],
    }))
    return 0 if ledger.correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, SPEC)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
