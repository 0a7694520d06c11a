import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3dg import box3d, metrics
from conftest import make_box
from mono3dg.box3d import CENTER, DIMS, ROT, iou3d
from mono3dg.metrics import (
    REPORT_COLUMNS,
    MetricReport,
    QueryResult,
    aggregate,
    format_report,
    report_to_json,
    score_query,
)


def axis_box(center, dims):
    return make_box(center, dims, np.eye(3))


def yaw_rot(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def flipped_yaw_rot(yaw: float) -> np.ndarray:
    # A half turn about an in-plane axis: z maps to -z, still yaw-only.
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])


def result_with_iou(iou: float) -> QueryResult:
    return QueryResult(f"q{iou}", iou, 0.1, 0.1, 0.1, 0.1)


class TestScoreQuery:
    def test_perfect(self):
        box = axis_box([1, 2, 10], [2, 1, 1.5])
        r = score_query(box, box, "q0")
        assert r.iou == pytest.approx(1.0, abs=1e-12)
        assert r.depth_error == r.length_error == r.width_error == r.height_error == 0.0

    def test_depth_error_is_z_difference(self):
        gt = axis_box([0, 0, 10], [2, 1, 1])
        pred = axis_box([0, 0, 12], [2, 1, 1])
        assert score_query(pred, gt, "q").depth_error == pytest.approx(2.0)

    def test_dimension_errors_componentwise(self):
        gt = axis_box([0, 0, 10], [2, 1, 1])
        pred = axis_box([0, 0, 10], [1.5, 1, 1.2])
        r = score_query(pred, gt, "q")
        assert r.length_error == pytest.approx(0.5)
        assert r.width_error == pytest.approx(0.0)
        assert r.height_error == pytest.approx(0.2)

    def test_euclidean_depth_option(self):
        gt = axis_box([0, 0, 10], [2, 1, 1])
        pred = axis_box([3, 4, 10], [2, 1, 1])
        assert score_query(pred, gt, "q", depth_metric="z").depth_error == 0.0
        assert score_query(pred, gt, "q", depth_metric="euclidean").depth_error == pytest.approx(5.0)
        with pytest.raises(ValueError):
            score_query(pred, gt, "q", depth_metric="chebyshev")


class TestYawOnlyRouting:
    CASES = {
        "contained": (
            make_box([1.0, 2.0, 20.0], [4.0, 2.0, 1.5], yaw_rot(0.3)),
            make_box([1.2, 2.1, 20.1], [1.0, 0.5, 0.5], yaw_rot(-1.1)),
        ),
        "touching_faces": (
            make_box([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.7)),
            make_box(
                [2.0 * math.cos(0.7), 2.0 * math.sin(0.7), 10.0], [2.0, 1.0, 1.0], yaw_rot(0.7)
            ),
        ),
        "touching_top": (
            make_box([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.2)),
            make_box([0.3, 0.1, 11.0], [2.0, 1.0, 1.0], yaw_rot(1.2)),
        ),
        "disjoint": (
            make_box([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.2)),
            make_box([5.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(2.0)),
        ),
        "flipped": (
            make_box([0.0, 0.0, 10.0], [3.0, 1.5, 1.0], flipped_yaw_rot(0.4)),
            make_box([0.5, 0.2, 10.3], [2.5, 1.2, 1.4], yaw_rot(-0.6)),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_exact_iou(self, case):
        pred, gt = self.CASES[case]
        assert box3d.yaw_only(np.array([pred, gt])).all()
        assert score_query(pred, gt, "q").iou == pytest.approx(iou3d(pred, gt), abs=1e-9)

    def test_yaw_only_pair_skips_exact_clipper(self, monkeypatch):
        def fail(a, b):
            raise AssertionError("exact clipper called on a yaw-only pair")

        monkeypatch.setattr(metrics, "iou3d", fail)
        monkeypatch.setattr(box3d, "iou3d_batch", fail)
        pred, gt = self.CASES["flipped"]
        assert score_query(pred, gt, "q").iou > 0.0

    def test_tilted_pair_never_reaches_bev(self, monkeypatch):
        def fail(a, b):
            raise AssertionError("BEV kernel called on a tilted pair")

        monkeypatch.setattr(box3d, "iou3d_bev_yaw", fail)
        monkeypatch.setattr(box3d, "iou3d_bev_yaw_batch", fail)
        gt = make_box([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.3))
        tilted_rot = yaw_rot(0.5)
        tilted_rot[2, 0] = 1e-6
        pred = make_box([0.1, 0.0, 10.0], [2.0, 1.0, 1.0], tilted_rot)
        assert not box3d.yaw_only(pred[None])[0]
        assert score_query(pred, gt, "q").iou == iou3d(pred, gt)
        assert score_query(gt, pred, "q").iou == iou3d(gt, pred)

    @staticmethod
    def _tilted(box: np.ndarray) -> np.ndarray:
        rot = box[ROT].reshape(3, 3).copy()
        rot[2, 0] = 1e-6
        return make_box(box[CENTER], box[DIMS], rot)

    def test_mixed_batch_routes_each_pair(self, monkeypatch):
        pairs = [self.CASES[name] for name in sorted(self.CASES)]
        tilted = [(self._tilted(pred), gt) for pred, gt in pairs]
        tilted += [(gt, self._tilted(pred)) for pred, gt in pairs[:2]]
        rows = pairs + tilted
        exact_rows = []
        iou3d_batch = box3d.iou3d_batch

        def counting_iou3d_batch(a, b):
            exact_rows.extend(zip(a[:, box3d.CENTER].tolist(), b[:, box3d.CENTER].tolist()))
            return iou3d_batch(a, b)

        monkeypatch.setattr(box3d, "iou3d_batch", counting_iou3d_batch)
        scores = metrics.score_query_batch(
            np.array([p for p, _ in rows]),
            np.array([g for _, g in rows]),
        )
        assert exact_rows == [(p[CENTER].tolist(), g[CENTER].tolist()) for p, g in tilted]
        for (pred, gt), score in zip(pairs, scores):
            assert score[0] == pytest.approx(iou3d(pred, gt), abs=1e-9)
        for (pred, gt), score in zip(tilted, scores[len(pairs):]):
            assert not box3d.yaw_only(np.array([pred, gt])).all()
            assert score[0] == iou3d(pred, gt)
        # Each row of the batch is what scoring that pair alone gives.
        monkeypatch.undo()
        for k, ((pred, gt), score) in enumerate(zip(rows, scores)):
            assert score_query(pred, gt, f"q{k}") == QueryResult(f"q{k}", *score.tolist())


class TestAggregate:
    def test_fixture_accuracies(self):
        report = aggregate([result_with_iou(v) for v in (0.6, 0.3, 0.2, 0.0)])
        assert report.acc_25 == 0.5
        assert report.acc_50 == 0.25
        assert report.count == 4

    def test_single_perfect(self):
        report = aggregate([QueryResult("q", 1.0, 0.0, 0.0, 0.0, 0.0)])
        assert report.acc_25 == report.acc_50 == 1.0
        assert report.mean_depth_error == 0.0

    def test_threshold_is_strict(self):
        report = aggregate([result_with_iou(0.25)])
        assert report.acc_25 == 0.0
        report = aggregate([result_with_iou(0.25 + 1e-12)])
        assert report.acc_25 == 1.0
        assert aggregate([result_with_iou(0.5)]).acc_50 == 0.0

    def test_empty(self):
        report = aggregate([])
        assert report == MetricReport(0.0, 0.0, None, None, None, None, 0)

    def test_missing_excluded_from_means_included_in_accuracy(self):
        results = [QueryResult("a", 1.0, 2.0, 0.0, 0.0, 0.0), QueryResult("b", 0.0, None, None, None, None)]
        report = aggregate(results)
        assert report.count == 2
        assert report.acc_25 == 0.5
        assert report.mean_depth_error == pytest.approx(2.0)

    def test_means_sum_left_to_right(self):
        # Compensated summation (the builtin sum since Python 3.12) totals
        # 1.0000000000000002e16 here; adding in index order rounds both ones away.
        results = [QueryResult(f"q{i}", 1.0, e, 0.0, 0.0, 0.0) for i, e in enumerate([1e16, 1.0, 1.0])]
        assert aggregate(results).mean_depth_error == 1e16 / 3

    def test_means_sum_left_to_right_past_the_pairwise_block(self):
        # numpy adds a 1-D sum pairwise once it is 8 or more long, which
        # totals 1.0000000000000016e16 here; in index order every one is lost.
        errors = [1e16] + [1.0] * 16
        results = [QueryResult(f"q{i}", 1.0, e, 0.0, e, 0.0) for i, e in enumerate(errors)]
        scores = np.array([[1.0, e, 0.0, e, 0.0] for e in errors])
        for report in (aggregate(results), aggregate(scores)):
            assert report.mean_depth_error == report.mean_width_error == 1e16 / 17
        assert np.sum(errors) / 17 != 1e16 / 17

    def test_score_rows_with_nan_errors_count_only_toward_accuracy(self):
        scores = np.array([[0.6, 2.0, 0.5, 0.0, 0.25], [0.0, np.nan, np.nan, np.nan, np.nan]])
        report = aggregate(scores)
        assert report == aggregate(
            [QueryResult("a", 0.6, 2.0, 0.5, 0.0, 0.25), QueryResult("b", 0.0, None, None, None, None)]
        ) == MetricReport(0.5, 0.5, 2.0, 0.5, 0.0, 0.25, 2)
        assert [type(v) for v in astuple(report)] == [float] * 6 + [int]

    def test_monotone_in_single_iou(self):
        base = [result_with_iou(v) for v in (0.6, 0.3, 0.2, 0.0)]
        improved = list(base)
        improved[2] = result_with_iou(0.9)
        before, after = aggregate(base), aggregate(improved)
        assert after.acc_25 >= before.acc_25
        assert after.acc_50 >= before.acc_50

    @given(st.permutations([0.0, 0.2, 0.26, 0.4, 0.55, 0.9]))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, ious):
        report = aggregate([result_with_iou(v) for v in ious])
        reference = aggregate([result_with_iou(v) for v in sorted(ious)])
        assert report == reference

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_acc50_never_exceeds_acc25(self, ious):
        report = aggregate([result_with_iou(v) for v in ious])
        assert report.acc_50 <= report.acc_25 <= 1.0


class TestFormatReport:
    def test_fixture_line(self):
        report = aggregate(
            [
                QueryResult("a", 0.6, 0.1, 0.0, 0.0, 0.0),
                QueryResult("b", 0.3, 0.5, 0.0, 0.0, 0.0),
                QueryResult("c", 0.2, 0.3, 0.0, 0.0, 0.0),
                QueryResult("d", 0.0, 0.3, 0.0, 0.0, 0.0),
            ]
        )
        text = format_report(report)
        assert text.startswith("Acc@0.25 50.0 | Acc@0.5 25.0 | DepthError 0.30")
        assert "count 4" in text

    def test_column_order(self):
        text = format_report(aggregate([result_with_iou(0.6)]))
        positions = [text.index(col) for col in REPORT_COLUMNS]
        assert positions == sorted(positions)

    def test_empty_report_blank_errors(self):
        text = format_report(aggregate([]))
        assert "count 0" in text
        for cell in text.split(" | "):
            name = cell.split()[0]
            if name.endswith("Error"):
                assert not re.search(r"\d", cell.split()[1])

    def test_percent_and_meter_formatting(self):
        report = MetricReport(0.3333, 0.1111, 1.23456, 0.0, 0.5, 0.449, 9)
        text = format_report(report)
        assert "Acc@0.25 33.3" in text
        assert "DepthError 1.23" in text
        assert "HeightError 0.45" in text


class TestReportJson:
    def test_full_schema(self):
        report = aggregate([QueryResult("a", 0.6, 0.1, 0.2, 0.3, 0.4)])
        obj = report_to_json(report)
        assert set(obj) == {
            "acc_25",
            "acc_50",
            "mean_depth_error",
            "mean_length_error",
            "mean_width_error",
            "mean_height_error",
            "count",
        }
        assert obj["count"] == 1

    def test_empty_omits_means(self):
        obj = report_to_json(aggregate([]))
        assert set(obj) == {"acc_25", "acc_50", "count"}
        assert obj["count"] == 0
        assert not any(math.isnan(v) for v in obj.values())
