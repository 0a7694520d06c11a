"""Per-query grounding scores and dataset-level aggregation.

One predicted box is scored against one ground-truth box per query; there is
no assignment step. Accuracy thresholds are strict: a query counts toward
Acc@t only when its IoU exceeds t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import box3d
# iou3d stays importable here, where the benchmark's tracer wraps it.
from .box3d import CENTER, DIMS, OrientedBox3D, iou3d  # noqa: F401

REPORT_COLUMNS = (
    "Acc@0.25",
    "Acc@0.5",
    "DepthError",
    "LengthError",
    "WidthError",
    "HeightError",
)


@dataclass(frozen=True)
class QueryResult:
    """Scores for one query. Error fields are None for a missing prediction,
    which keeps the query in the accuracy denominator but out of the error
    means."""

    query_id: str
    iou: float
    depth_error: float | None
    length_error: float | None
    width_error: float | None
    height_error: float | None

    @property
    def missing(self) -> bool:
        return self.depth_error is None


@dataclass(frozen=True)
class MetricReport:
    acc_25: float
    acc_50: float
    mean_depth_error: float | None
    mean_length_error: float | None
    mean_width_error: float | None
    mean_height_error: float | None
    count: int


def score_query_batch(
    pred: np.ndarray,
    gt: np.ndarray,
    query_ids: list,
    depth_metric: str = "z",
) -> list[QueryResult]:
    """Score N predicted boxes against their ground truths, both given as
    (N, 15) rows. depth_metric='z' uses |dZ| along the optical axis;
    'euclidean' uses the full center distance (comparison mode only).

    Pairs whose two boxes are both yaw-only are scored together by the BEV
    kernel, which agrees with the exact kernel to rounding and costs a
    fraction of it; every other pair is scored together by the exact
    kernel."""
    # Each kernel checks only its share of the pairs; checking both whole
    # batches first reports the first bad row of pred, then of gt.
    box3d.check_dims(pred)
    box3d.check_dims(gt)
    pred_center, gt_center = pred[:, CENTER], gt[:, CENTER]
    if depth_metric == "z":
        depth_errors = np.abs(pred_center[:, 2] - gt_center[:, 2]).tolist()
    elif depth_metric == "euclidean":
        depth_errors = [math.dist(p, g) for p, g in zip(pred_center.tolist(), gt_center.tolist())]
    else:
        raise ValueError(f"unknown depth_metric {depth_metric!r}")
    bev = box3d.yaw_only(pred) & box3d.yaw_only(gt)
    iou = np.empty(len(query_ids))
    # Both kernels are resolved on box3d at call time, so a wrapper
    # installed there (a tracer, a test) sees the calls.
    if bev.any():
        iou[bev] = box3d.iou3d_bev_yaw_batch(pred[bev], gt[bev])
    if not bev.all():
        iou[~bev] = box3d.iou3d_batch(pred[~bev], gt[~bev])
    size_errors = np.abs(pred[:, DIMS] - gt[:, DIMS]).tolist()
    return [
        QueryResult(query_id, value, depth, *sizes)
        for query_id, value, depth, sizes in zip(query_ids, iou.tolist(), depth_errors, size_errors)
    ]


def score_query(
    pred: OrientedBox3D,
    gt: OrientedBox3D,
    query_id: str,
    depth_metric: str = "z",
) -> QueryResult:
    """:func:`score_query_batch` for one query."""
    return score_query_batch(pred.row[None], gt.row[None], [query_id], depth_metric)[0]


def missing_result(query_id: str) -> QueryResult:
    """Sentinel for a ground-truth object that received no prediction."""
    return QueryResult(query_id, 0.0, None, None, None, None)


def _mean_in_order(values: list[float]) -> float:
    """Mean with the sum taken left to right. The builtin ``sum`` compensates
    float rounding since Python 3.12, which would tie report bytes to the
    interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def aggregate(results: list[QueryResult]) -> MetricReport:
    count = len(results)
    if count == 0:
        return MetricReport(0.0, 0.0, None, None, None, None, 0)
    acc_25 = sum(1 for r in results if r.iou > 0.25) / count
    acc_50 = sum(1 for r in results if r.iou > 0.5) / count
    scored = [r for r in results if not r.missing]
    if scored:
        means = (
            _mean_in_order([r.depth_error for r in scored]),
            _mean_in_order([r.length_error for r in scored]),
            _mean_in_order([r.width_error for r in scored]),
            _mean_in_order([r.height_error for r in scored]),
        )
    else:
        means = (None, None, None, None)
    return MetricReport(acc_25, acc_50, *means, count)


def format_report(report: MetricReport) -> str:
    """One-line table in the headline column order; accuracies as percent
    with one decimal, errors in meters with two."""
    def err(value: float | None) -> str:
        return "-" if value is None else f"{value:.2f}"

    cells = [
        f"Acc@0.25 {100.0 * report.acc_25:.1f}",
        f"Acc@0.5 {100.0 * report.acc_50:.1f}",
        f"DepthError {err(report.mean_depth_error)}",
        f"LengthError {err(report.mean_length_error)}",
        f"WidthError {err(report.mean_width_error)}",
        f"HeightError {err(report.mean_height_error)}",
        f"count {report.count}",
    ]
    return " | ".join(cells)


def report_to_json(report: MetricReport) -> dict:
    """Machine-readable report; mean-error keys are omitted when absent."""
    out: dict = {"acc_25": report.acc_25, "acc_50": report.acc_50}
    for key, value in (
        ("mean_depth_error", report.mean_depth_error),
        ("mean_length_error", report.mean_length_error),
        ("mean_width_error", report.mean_width_error),
        ("mean_height_error", report.mean_height_error),
    ):
        if value is not None:
            out[key] = value
    out["count"] = report.count
    return out
