import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3dg import box3d, metrics
from mono3dg.box3d import OrientedBox3D, iou3d
from mono3dg.metrics import (
    REPORT_COLUMNS,
    MetricReport,
    QueryResult,
    aggregate,
    format_report,
    missing_result,
    report_to_json,
    score_query,
)


def axis_box(center, dims):
    return OrientedBox3D(np.asarray(center, float), np.asarray(dims, float), np.eye(3))


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
            OrientedBox3D([1.0, 2.0, 20.0], [4.0, 2.0, 1.5], yaw_rot(0.3)),
            OrientedBox3D([1.2, 2.1, 20.1], [1.0, 0.5, 0.5], yaw_rot(-1.1)),
        ),
        "touching_faces": (
            OrientedBox3D([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.7)),
            OrientedBox3D(
                [2.0 * math.cos(0.7), 2.0 * math.sin(0.7), 10.0], [2.0, 1.0, 1.0], yaw_rot(0.7)
            ),
        ),
        "touching_top": (
            OrientedBox3D([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.2)),
            OrientedBox3D([0.3, 0.1, 11.0], [2.0, 1.0, 1.0], yaw_rot(1.2)),
        ),
        "disjoint": (
            OrientedBox3D([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.2)),
            OrientedBox3D([5.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(2.0)),
        ),
        "flipped": (
            OrientedBox3D([0.0, 0.0, 10.0], [3.0, 1.5, 1.0], flipped_yaw_rot(0.4)),
            OrientedBox3D([0.5, 0.2, 10.3], [2.5, 1.2, 1.4], yaw_rot(-0.6)),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_exact_iou(self, case):
        pred, gt = self.CASES[case]
        assert box3d.is_yaw_only(pred) and box3d.is_yaw_only(gt)
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
        gt = OrientedBox3D([0.0, 0.0, 10.0], [2.0, 1.0, 1.0], yaw_rot(0.3))
        tilted_rot = yaw_rot(0.5)
        tilted_rot[2, 0] = 1e-6
        pred = OrientedBox3D([0.1, 0.0, 10.0], [2.0, 1.0, 1.0], tilted_rot)
        assert not box3d.is_yaw_only(pred)
        assert score_query(pred, gt, "q").iou == iou3d(pred, gt)
        assert score_query(gt, pred, "q").iou == iou3d(gt, pred)

    @staticmethod
    def _tilted(box: OrientedBox3D) -> OrientedBox3D:
        rot = box.rot.copy()
        rot[2, 0] = 1e-6
        return OrientedBox3D(box.center, box.dims, rot)

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
        results = metrics.score_query_batch(
            np.array([p.row for p, _ in rows]),
            np.array([g.row for _, g in rows]),
            [f"q{k}" for k in range(len(rows))],
        )
        assert exact_rows == [(p.center.tolist(), g.center.tolist()) for p, g in tilted]
        for (pred, gt), result in zip(pairs, results):
            assert result.iou == pytest.approx(iou3d(pred, gt), abs=1e-9)
        for (pred, gt), result in zip(tilted, results[len(pairs):]):
            assert not (box3d.is_yaw_only(pred) and box3d.is_yaw_only(gt))
            assert result.iou == iou3d(pred, gt)
        # Each row of the batch is what scoring that pair alone gives.
        monkeypatch.undo()
        for (pred, gt), result in zip(rows, results):
            assert score_query(pred, gt, result.query_id) == result


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
        results = [QueryResult("a", 1.0, 2.0, 0.0, 0.0, 0.0), missing_result("b")]
        report = aggregate(results)
        assert report.count == 2
        assert report.acc_25 == 0.5
        assert report.mean_depth_error == pytest.approx(2.0)

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
