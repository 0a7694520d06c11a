"""Per-query grounding scores and dataset-level aggregation.

One predicted box is scored against one ground-truth box per query; there is
no assignment step. A query's scores are its (5,) row: the IoU, then the
depth, length, width and height errors; N queries' are (N, 5) rows.
Accuracy thresholds are strict: a query counts toward Acc@t only when its
IoU exceeds t.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import box3d
# iou3d stays importable here, where the benchmark's tracer wraps it.
from .box3d import CENTER, DIMS, box_row, iou3d  # noqa: F401
from .errors import ShapeMismatch

REPORT_COLUMNS = (
    "Acc@0.25",
    "Acc@0.5",
    "DepthError",
    "LengthError",
    "WidthError",
    "HeightError",
)


@dataclass(frozen=True)
class MetricReport:
    acc_25: float
    acc_50: float
    mean_depth_error: float | None
    mean_length_error: float | None
    mean_width_error: float | None
    mean_height_error: float | None
    count: int


def score_query_batch(pred: np.ndarray, gt: np.ndarray, depth_metric: str = "z") -> np.ndarray:
    """Score N predicted boxes against their ground truths, both given as
    (N, 15) rows, as (N, 5) score rows: the IoU, then the depth, length,
    width and height errors. depth_metric='z' uses |dZ| along the optical
    axis; 'euclidean' uses the full center distance (comparison mode only).

    Pairs whose two boxes are both yaw-only are scored together by the BEV
    kernel, which agrees with the exact kernel to rounding and costs a
    fraction of it; every other pair is scored together by the exact
    kernel."""
    # Each kernel checks only its share of the pairs; checking both whole
    # batches first reports the first bad row of pred, then of gt.
    box3d.check_dims(pred)
    box3d.check_dims(gt)
    scores = np.empty((len(pred), 5))
    pred_center, gt_center = pred[:, CENTER], gt[:, CENTER]
    if depth_metric == "z":
        scores[:, 1] = np.abs(pred_center[:, 2] - gt_center[:, 2])
    elif depth_metric == "euclidean":
        scores[:, 1] = [math.dist(p, g) for p, g in zip(pred_center.tolist(), gt_center.tolist())]
    else:
        raise ValueError(f"unknown depth_metric {depth_metric!r}")
    scores[:, 2:] = np.abs(pred[:, DIMS] - gt[:, DIMS])
    bev = box3d.yaw_only(pred) & box3d.yaw_only(gt)
    # Both kernels are resolved on box3d at call time, so a wrapper
    # installed there (a tracer, a test) sees the calls.
    if bev.any():
        scores[bev, 0] = box3d.iou3d_bev_yaw_batch(pred[bev], gt[bev])
    if not bev.all():
        scores[~bev, 0] = box3d.iou3d_batch(pred[~bev], gt[~bev])
    return scores


def score_query(pred: np.ndarray, gt: np.ndarray, depth_metric: str = "z") -> np.ndarray:
    """:func:`score_query_batch` for one query's pair of box rows: its (5,) score row."""
    return score_query_batch(box_row(pred)[None], box_row(gt)[None], depth_metric)[0]


def aggregate(scores: np.ndarray) -> MetricReport:
    """Acc@0.25, Acc@0.5 and the mean errors of (N, 5) score rows, as
    :func:`score_query_batch` returns them; raises ShapeMismatch for any
    other shape. A row with NaN errors is a query that received no
    prediction: it counts toward accuracy and stays out of the means."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != 5:
        raise ShapeMismatch(f"score rows {scores.shape} vs (N, 5)")
    count = len(scores)
    if count == 0:
        return MetricReport(0.0, 0.0, None, None, None, None, 0)
    iou, errors = scores[:, 0], scores[~np.isnan(scores[:, 1]), 1:]
    accuracies = [int(np.count_nonzero(iou > t)) / count for t in (0.25, 0.5)]
    means = [None] * 4
    if len(errors):
        # Each column is summed in index order. The builtin sum compensates
        # float rounding since Python 3.12, which would tie report bytes to
        # the interpreter, and a 1-D ndarray.sum adds pairwise.
        means = (np.add.accumulate(errors, axis=0)[-1] / len(errors)).tolist()
    return MetricReport(*accuracies, *means, count)


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
    """Machine-readable report, keyed by MetricReport's fields in order;
    mean-error keys are omitted when absent."""
    return {k: v for k, v in asdict(report).items() if v is not None}
