"""Per-query grounding scores and dataset-level aggregation.

One predicted box is scored against one ground-truth box per query; there is
no assignment step. Accuracy thresholds are strict: a query counts toward
Acc@t only when its IoU exceeds t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import box3d
from .box3d import OrientedBox3D, iou3d, is_yaw_only

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


def score_query(
    pred: OrientedBox3D,
    gt: OrientedBox3D,
    query_id: str,
    depth_metric: str = "z",
) -> QueryResult:
    """Score one prediction. depth_metric='z' uses |dZ| along the optical
    axis; 'euclidean' uses the full center distance (comparison mode only).

    A pair of yaw-only boxes is scored by the BEV kernel, which agrees with
    the exact kernel to rounding and costs a fraction of it."""
    if depth_metric == "z":
        depth_error = abs(float(pred.center[2]) - float(gt.center[2]))
    elif depth_metric == "euclidean":
        depth_error = float(math.dist(tuple(pred.center), tuple(gt.center)))
    else:
        raise ValueError(f"unknown depth_metric {depth_metric!r}")
    if is_yaw_only(pred) and is_yaw_only(gt):
        # Resolved on the module at call time, so a wrapper installed on
        # box3d (perfbench's tracer) sees the call.
        iou = box3d.iou3d_bev_yaw(pred, gt)
    else:
        iou = iou3d(pred, gt)
    return QueryResult(
        query_id=query_id,
        iou=iou,
        depth_error=depth_error,
        length_error=abs(float(pred.dims[0]) - float(gt.dims[0])),
        width_error=abs(float(pred.dims[1]) - float(gt.dims[1])),
        height_error=abs(float(pred.dims[2]) - float(gt.dims[2])),
    )


def missing_result(query_id: str) -> QueryResult:
    """Sentinel for a ground-truth object that received no prediction."""
    return QueryResult(query_id, 0.0, None, None, None, None)


def aggregate(results: list[QueryResult]) -> MetricReport:
    count = len(results)
    if count == 0:
        return MetricReport(0.0, 0.0, None, None, None, None, 0)
    acc_25 = sum(1 for r in results if r.iou > 0.25) / count
    acc_50 = sum(1 for r in results if r.iou > 0.5) / count
    scored = [r for r in results if not r.missing]
    if scored:
        n = len(scored)
        means = (
            sum(r.depth_error for r in scored) / n,
            sum(r.length_error for r in scored) / n,
            sum(r.width_error for r in scored) / n,
            sum(r.height_error for r in scored) / n,
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
