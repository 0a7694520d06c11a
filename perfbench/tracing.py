"""In-memory spans around the calls into mono3dg's public functions.

The traced run replaces each timed function with a wrapper at the module
where its caller looks the name up (``box3d.iou3d`` is wrapped as
``metrics.iou3d``, ``camera.reason_center`` as ``pipeline.reason_center``),
so the package itself is not edited. The wrappers exist only while a
``Tracer`` is installed; the untraced run never sees them.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``. Spans stay
in a list until the run ends and are then written out once.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time

# Span name -> the modules (relative to the mono3dg package) whose attribute
# of the same function name is wrapped. Each module listed is a place where a
# caller on a benchmark path resolves the name at call time.
TIMED_FUNCTIONS = {
    "box3d.iou3d": ("metrics",),
    "box3d.iou3d_bev_yaw": ("box3d", ""),
    "camera.reason_center": ("pipeline",),
    "rotation.rot6d_to_matrix": ("pipeline",),
    "rotation.allocentric_to_egocentric": ("pipeline",),
    "scenes.read_scenes": ("cli", "scenes"),
    "scenes.read_predictions": ("cli", "scenes"),
    "scenes.scene_from_json": ("scenes",),
    "scenes.prediction_from_json": ("scenes",),
    "jsonio.loads_strict": ("jsonio", "decoder", "cli"),
    "scenes.synth_scenes": ("cli",),
    "scenes.write_scenes": ("cli",),
    "scenes.write_predictions": ("cli", "scenes"),
    "jsonio.dumps_canonical": ("jsonio", "cli", "decoder", "scenes"),
    "pipeline.run_pipeline": ("cli", "pipeline"),
    "pipeline.box_from_raw": ("pipeline",),
    "pipeline.build_toy_dataset": ("cli", "pipeline"),
    "pipeline.decoder_predictions": ("pipeline",),
    "pipeline.perfect_raw_predictions": ("cli",),
    "metrics.score_query": ("pipeline",),
    "metrics.aggregate": ("pipeline",),
    "decoder.backward": ("decoder",),
    "decoder.train": ("decoder",),
    "decoder.predict": ("pipeline",),
    "decoder.save_checkpoint": ("decoder",),
    "decoder.write_loss_history": ("decoder",),
    "decoder.load_checkpoint": ("decoder",),
    "cli.main": ("cli",),
}

# Calls whose result counts toward a useful-outcome ratio: IoU > 0.
NONZERO_COUNTED = "box3d.iou3d"


class Tracer:
    """Collects nested spans for one traced run (single thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.nonzero = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if name == NONZERO_COUNTED and result > 0.0:
                self.nonzero += 1
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every timed function at each of its lookup sites."""
        for name, sites in TIMED_FUNCTIONS.items():
            attr = name.split(".")[1]
            original = getattr(importlib.import_module(f"{package.__name__}.{name.split('.')[0]}"), attr)
            wrapped = self._wrap(name, original)
            for site in sites:
                module = importlib.import_module(f"{package.__name__}.{site}") if site else package
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not {name}")
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}))
                fh.write("\n")

    def layer_metrics(self, units: dict) -> dict:
        """Per-layer figures per unit of work.

        A request id reads ``<kind>-<n>`` (optionally ``/<part>``); counts and
        times of its spans are divided by ``units[kind]``, the number of such
        units run (set-ups, passes over the shards, train-toy calls, scoring
        passes), so the figures do not grow with run length. Percentiles use
        every span of a name.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {name: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
                 for name in TIMED_FUNCTIONS}
        for index, (name, start, end, _, request) in enumerate(self.spans):
            weight = 1.0 / units[request.split("-", 1)[0]]
            entry = stats[name]
            entry["calls"] += weight
            entry["busy_s"] += weight * (end - start) * 1e-9
            entry["self_s"] += weight * (end - start - child_ns[index]) * 1e-9
            entry["durations"].append(end - start)
        out = {}
        for name, entry in stats.items():
            durations = sorted(entry.pop("durations"))
            entry["p50_us"] = _percentile(durations, 50) * 1e-3
            entry["p99_us"] = _percentile(durations, 99) * 1e-3
            out[name] = entry
        calls = sum(1 for span in self.spans if span[0] == NONZERO_COUNTED)
        out[NONZERO_COUNTED]["nonzero_ratio"] = self.nonzero / calls if calls else 0.0
        out[NONZERO_COUNTED]["nonzero_base"] = calls
        return out


def _percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return float(sorted_values[int(rank) - 1])
