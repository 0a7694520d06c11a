"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Each input is a JSONL file of run records as ``run.py --out`` appends them.
Run i of the parent is paired with run i of the change, per workload, in the
order the runs were made. The two runs of a pair must run back to back, and
the side that runs first must alternate from pair to pair, so that drift in
the machine's load falls on both sides; otherwise no gain is claimed.

A pairing of metric and workload is:
- ``improved`` when there are at least 10 pairs, the change wins at least
  9/10 of them (ties count for neither side), the change's median is
  better, and the gap between the medians is larger than the parent's
  interquartile range;
- ``unresolved`` when it is not improved and the parent's own interquartile
  range, as a share of its median, is wider than the metric's bound, unless
  every change run reads better than every parent run (then ``no worse``);
- ``worse`` when the change's median is worse than the parent's by more
  than the bound, as a share of the parent's median;
- ``no worse`` otherwise.

A run whose checks failed carries no metrics. When the change has more
such runs on a workload than the parent, every metric of that workload is
``worse``; otherwise pairs with a failed run are left out.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict:
    """workload -> untraced run records in file order, failed runs included."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def alternating(parent: list, change: list) -> bool:
    """True when each pair ran back to back and the side that ran first
    alternates from pair to pair."""
    times = sorted(r["started_at"] for r in parent + change)
    firsts = []
    for p, c in zip(parent, change):
        lo, hi = sorted((p["started_at"], c["started_at"]))
        if times.index(hi) != times.index(lo) + 1:
            return False
        firsts.append(p["started_at"] < c["started_at"])
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(parent: list, change: list, better: str, bound: float, paired_ok: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (paired_ok and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > 0 and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    if (p_q3 - p_q1) / abs(p_med) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return "no worse" if all_better else "unresolved"
    if sign * (p_med - c_med) / abs(p_med) > bound:
        return "worse"
    return "no worse"


def main(parent_path: Path, change_path: Path, benchmark_path: Path) -> int:
    spec = json.loads(benchmark_path.read_text(encoding="utf-8"))
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    header = (f"{'workload':<13} {'metric':<16} {'n':>3} {'parent q1/med/q3':>34} "
              f"{'change q1/med/q3':>34} {'wins':>6}  verdict")
    print(header)
    worst = "no worse"
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        n = min(len(parent), len(change))
        parent, change = parent[:n], change[:n]
        paired_ok = n > 0 and alternating(parent, change)
        more_failures = sum(not r["correct"] for r in change) > sum(not r["correct"] for r in parent)
        pairs = [(p, c) for p, c in zip(parent, change) if p["correct"] and c["correct"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if more_failures or not pairs:
                result = "worse" if more_failures else "unresolved"
                print(f"{workload:<13} {name:<16} {len(pairs):>3} {'-':>34} {'-':>34} {'-':>6}  {result}")
                worst = _worse_of(worst, result)
                continue
            p_vals = [p["metrics"][name]["value"] for p, _ in pairs]
            c_vals = [c["metrics"][name]["value"] for _, c in pairs]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for p, c in zip(p_vals, c_vals) if sign * (c - p) > 0)
            result = verdict(p_vals, c_vals, metric["better"], metric["bound"], paired_ok)
            worst = _worse_of(worst, result)
            print(f"{workload:<13} {name:<16} {len(pairs):>3} {_fmt(quartiles(p_vals)):>34} "
                  f"{_fmt(quartiles(c_vals)):>34} {wins:>3}/{len(pairs):<2}  {result}")
        if n and not paired_ok:
            print(f"{workload:<13} pairs are not back to back with alternating order: no gain claimed")
    print(f"overall: {worst}")
    return 1 if worst == "worse" else 0


def _worse_of(current: str, result: str) -> str:
    """Overall verdict: worse beats unresolved beats everything else."""
    rank = {"worse": 2, "unresolved": 1}
    return max(current, result, key=lambda v: rank.get(v, 0))


def _fmt(q: tuple) -> str:
    return "/".join(f"{v:.4g}" for v in q)
