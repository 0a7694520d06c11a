"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are stated inline and match the ones frozen at design time; the
training thresholds in criterion 8 were confirmed against full training
runs before being pinned here.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import make_box, overlapping_box_pair, random_intrinsics
from mono3dg import decoder as D
from mono3dg.box3d import CENTER, iou3d, iou3d_bev_yaw, iou3d_monte_carlo
from mono3dg.camera import (
    CameraIntrinsics,
    DepthMode,
    Point3D,
    VirtualCamera,
    backproject_center,
    fuse_depth,
    project,
    real_to_virtual_depth,
    virtual_to_real_depth,
)
from mono3dg.cli import main
from mono3dg.fusion import AttentionParams, cross_branch_attention
from mono3dg.metrics import REPORT_COLUMNS, QueryResult, aggregate, format_report
from mono3dg.pipeline import (
    box_from_raw,
    perfect_raw_predictions,
    raw_from_box,
    run_pipeline,
    scale_virtual_depth,
    build_toy_dataset,
    decoder_predictions,
)
from mono3dg.rotation import (
    EulerAngles,
    Rot6D,
    euler_to_matrix,
    geodesic_distance,
    matrix_to_euler,
    matrix_to_rot6d,
    random_rotation,
    rot6d_to_matrix,
)
from mono3dg.scenes import (
    INDOOR_PROFILE,
    OUTDOOR_PROFILE,
    SynthRanges,
    synth_scenes,
)
from test_decoder import FD_FLOOR, FD_STEP, FD_TOL, make_sequence, make_target, small_config
from test_fusion import naive_attention
from test_decoder import naive_forward


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_c1_projection_round_trip():
    rng = np.random.default_rng(0)
    n = 100_000
    fx = rng.uniform(500, 2000, n)
    fy = fx * rng.uniform(0.95, 1.05, n)
    w = rng.uniform(640, 2048, n)
    h = w * rng.uniform(0.5, 0.8, n)
    cx = w * rng.uniform(0.45, 0.55, n)
    cy = h * rng.uniform(0.45, 0.55, n)
    X = rng.uniform(-5, 5, n)
    Y = rng.uniform(-5, 5, n)
    Z = rng.uniform(0.1, 100, n)
    start = time.perf_counter()
    worst = 0.0
    for i in range(n):
        cam = CameraIntrinsics(fx[i], fy[i], cx[i], cy[i], w[i], h[i])
        p = Point3D(X[i], Y[i], Z[i])
        back = backproject_center(project(p, cam), p.Z, cam)
        scale = max(abs(p.X), abs(p.Y), p.Z)
        err = max(abs(back.X - p.X), abs(back.Y - p.Y), abs(back.Z - p.Z)) / scale
        if err > worst:
            worst = err
    elapsed = time.perf_counter() - start
    _report(
        "C1 projection-round-trip",
        worst <= 1e-9 and elapsed < 1.0,
        f"max rel err {worst:.2e}, {elapsed:.2f} s for 1e5 pairs",
    )


def test_c2_virtual_depth_algebra():
    rng = np.random.default_rng(1)
    worst_inverse = 0.0
    worst_pair = 0.0
    for _ in range(10_000):
        cam = random_intrinsics(rng)
        vc = VirtualCamera(rng.uniform(200, 1500), rng.uniform(500, 3000))
        z = rng.uniform(0.1, 100.0)
        back = virtual_to_real_depth(real_to_virtual_depth(z, cam, vc), cam, vc)
        worst_inverse = max(worst_inverse, abs(back - z) / z)
        k = rng.uniform(0.25, 4.0)
        scaled = cam._replace(fx=k * cam.fx)
        dv_a = real_to_virtual_depth(z, cam, vc)
        dv_b = real_to_virtual_depth(k * z, scaled, vc)
        worst_pair = max(worst_pair, abs(dv_a - dv_b) / dv_a)

    worst_vc = 0.0
    vc_a = VirtualCamera(500.0, 1000.0)
    vc_b = VirtualCamera(1250.0, 640.0)
    profile_a = replace(INDOOR_PROFILE, virtual_camera=vc_a)
    profile_b = replace(INDOOR_PROFILE, virtual_camera=vc_b)
    scenes = synth_scenes(1000, seed=2, ranges=SynthRanges(objects_per_scene=(1, 1)))
    for record in scenes:
        obj = record.objects[0]
        center_a = box_from_raw(
            raw_from_box(obj.box3d, record.intrinsics, profile_a),
            record.intrinsics, profile_a, obj.h2d,
        )[CENTER]
        center_b = box_from_raw(
            raw_from_box(obj.box3d, record.intrinsics, profile_b),
            record.intrinsics, profile_b, obj.h2d,
        )[CENTER]
        scale = max(np.abs(center_a).max(), 1e-300)
        worst_vc = max(worst_vc, np.abs(center_a - center_b).max() / scale)
    _report(
        "C2 virtual-depth-algebra",
        worst_inverse <= 1e-12 and worst_pair <= 1e-9 and worst_vc <= 1e-12,
        f"inverse {worst_inverse:.2e}, focal-pair {worst_pair:.2e}, vc-choice {worst_vc:.2e}",
    )


def test_c3_depth_fusion_and_reconstruction():
    assert fuse_depth(4.0, 6.0, DepthMode.FUSED_AVERAGE) == 5.0
    assert fuse_depth(3.0, 5.0, DepthMode.FUSED_AVERAGE) == 4.0
    worst = 0.0
    for profile_name, profile in (("indoor", INDOOR_PROFILE), ("outdoor", OUTDOOR_PROFILE)):
        ranges = replace(
            synth_ranges_for(profile_name), objects_per_scene=(2, 2)
        )
        scenes = synth_scenes(5000, seed=3, ranges=ranges, profile_name=profile_name)
        count = 0
        for record in scenes:
            for obj in record.objects:
                raw = raw_from_box(obj.box3d, record.intrinsics, profile)
                box = box_from_raw(raw, record.intrinsics, profile, h2d=obj.h2d)
                worst = max(worst, float(np.abs(box[CENTER] - obj.box3d[CENTER]).max()))
                count += 1
        assert count >= 10_000
    _report(
        "C3 depth-fusion-reconstruction",
        worst <= 1e-9,
        f"max center error {worst:.2e} m over 1e4 boxes per profile",
    )


def synth_ranges_for(profile_name: str) -> SynthRanges:
    from mono3dg.scenes import ranges_for_profile

    return ranges_for_profile(profile_name)


def test_c4_rotation_suite():
    rng = np.random.default_rng(4)
    worst_ortho = worst_det = 0.0
    produced = 0
    while produced < 10_000:
        r = Rot6D(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        try:
            R = rot6d_to_matrix(r)
        except Exception:
            continue
        produced += 1
        worst_ortho = max(worst_ortho, float(np.abs(R.T @ R - np.eye(3)).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(R)) - 1.0))

    worst_round = 0.0
    for _ in range(10_000):
        R = random_rotation(rng)
        worst_round = max(
            worst_round, float(np.abs(rot6d_to_matrix(matrix_to_rot6d(R)) - R).max())
        )

    continuity_ok = True
    for _ in range(10_000):
        R = random_rotation(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-4, 0.01)
        K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        R2 = R @ (np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K))
        dist = geodesic_distance(R, R2)
        d6 = np.abs(matrix_to_rot6d(R).as_array() - matrix_to_rot6d(R2).as_array()).max()
        if d6 > 2.0 * dist:
            continuity_ok = False
            break

    delta, phi = 5e-4, 1.2
    r1 = euler_to_matrix(EulerAngles(pitch=math.pi / 2 - delta, roll=0.0, yaw=0.0))
    r2 = euler_to_matrix(EulerAngles(pitch=math.pi / 2 - delta, roll=phi, yaw=phi))
    e1, e2 = matrix_to_euler(r1), matrix_to_euler(r2)
    witness_ok = (
        geodesic_distance(r1, r2) <= 1e-3
        and max(abs(e1.pitch - e2.pitch), abs(e1.roll - e2.roll), abs(e1.yaw - e2.yaw)) > 1.0
    )
    _report(
        "C4 rotation-suite",
        worst_ortho <= 1e-9 and worst_det <= 1e-9 and worst_round <= 1e-9
        and continuity_ok and witness_ok,
        f"ortho {worst_ortho:.2e}, det {worst_det:.2e}, round-trip {worst_round:.2e}, "
        f"continuity {continuity_ok}, euler witness {witness_ok}",
    )


def test_c5_iou_correctness():
    start = time.perf_counter()
    unit = make_box(np.zeros(3), np.ones(3), np.eye(3))
    offset = make_box([0.5, 0, 0], np.ones(3), np.eye(3))
    analytic_ok = (
        abs(iou3d(unit, unit) - 1.0) <= 1e-12
        and abs(iou3d(unit, offset) - 1.0 / 3.0) <= 1e-12
        and iou3d(unit, make_box([100, 0, 0], np.ones(3), np.eye(3))) == 0.0
    )

    rng = np.random.default_rng(5)
    worst_fast = 0.0
    for _ in range(1000):
        a, b = overlapping_box_pair(rng, yaw_only=True)
        worst_fast = max(worst_fast, abs(iou3d_bev_yaw(a, b) - iou3d(a, b)))

    worst_mc = 0.0
    for i in range(200):
        a, b = overlapping_box_pair(rng, yaw_only=False)
        worst_mc = max(worst_mc, abs(iou3d(a, b) - iou3d_monte_carlo(a, b, 1_000_000, seed=i)))
    elapsed = time.perf_counter() - start
    _report(
        "C5 iou-correctness",
        analytic_ok and worst_fast <= 1e-9 and worst_mc <= 0.005 and elapsed < 60.0,
        f"analytic {analytic_ok}, fast-vs-exact {worst_fast:.2e}, "
        f"exact-vs-mc {worst_mc:.4f}, {elapsed:.1f} s",
    )


def test_c6_metrics_fixture():
    results = [
        QueryResult(f"q{i}", iou, 0.0, 0.0, 0.0, 0.0)
        for i, iou in enumerate((0.6, 0.3, 0.2, 0.0))
    ]
    report = aggregate(results)
    text = format_report(report)
    exactly_quarter = aggregate([QueryResult("q", 0.25, 0.0, 0.0, 0.0, 0.0)])
    positions = [text.index(col) for col in REPORT_COLUMNS]
    _report(
        "C6 metrics-fixture",
        report.acc_25 == 0.5
        and report.acc_50 == 0.25
        and "Acc@0.25 50.0" in text
        and "Acc@0.5 25.0" in text
        and exactly_quarter.acc_25 == 0.0
        and positions == sorted(positions),
        f"acc25 {100 * report.acc_25}, acc50 {100 * report.acc_50}, strict@0.25 ok, column order ok",
    )


def test_c7_attention_decoder_numerics():
    rng = np.random.default_rng(6)
    worst_oracle = 0.0
    for _ in range(10):
        f = rng.standard_normal((2, 3, 4))
        t_vit = rng.standard_normal((3, 4))
        params = AttentionParams(*(rng.standard_normal((4, 3)) for _ in range(3)))
        got = cross_branch_attention(t_vit, f, params)
        expected = naive_attention(t_vit, f.reshape(-1, 4), params)
        worst_oracle = max(worst_oracle, float(np.abs(got - expected).max()))
    for _ in range(10):
        config = small_config()
        params = D.init_params(config, rng)
        seq = D.substitute_query(make_sequence(rng), params.query)
        worst_oracle = max(
            worst_oracle, float(np.abs(D.forward(seq, params) - naive_forward(seq, params)).max())
        )

    worst_grad = 0.0
    groups_checked = set()
    for seed in range(20):
        inner = np.random.default_rng(200 + seed)
        params = D.init_params(small_config(), inner)
        seq = make_sequence(inner)
        target = make_target(inner)
        _, grads = D.backward(seq, params, target)
        pdict = dict(params.named_arrays())
        for name, grad in grads.named_arrays():
            groups_checked.add(name)
            flat = pdict[name].ravel()
            for idx in inner.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + FD_STEP
                up, _ = D.backward(seq, params, target)
                flat[idx] = orig - FD_STEP
                down, _ = D.backward(seq, params, target)
                flat[idx] = orig
                fd = (up - down) / (2 * FD_STEP)
                a = grad.ravel()[idx]
                worst_grad = max(worst_grad, abs(a - fd) / max(abs(a), abs(fd), FD_FLOOR))
    query_covered = "query" in groups_checked
    _report(
        "C7 attention-decoder-numerics",
        worst_oracle <= 1e-12 and worst_grad <= FD_TOL and query_covered,
        f"oracle {worst_oracle:.2e}, gradcheck {worst_grad:.2e} over 20 instances, "
        f"{len(groups_checked)} parameter groups incl. query",
    )


def test_c8_toy_training():
    ranges = SynthRanges(objects_per_scene=(1, 1))
    scenes = synth_scenes(256, seed=11, ranges=ranges, profile_name="indoor")
    embeddings, targets, _ = build_toy_dataset(scenes, INDOOR_PROFILE, ranges)
    params = D.init_params(D.DecoderConfig(), np.random.default_rng(0))
    cfg = D.TrainConfig(epochs=500, batch_size=16, seed=0)
    start = time.perf_counter()
    trained, history = D.train(embeddings, targets, params, cfg)
    elapsed = time.perf_counter() - start
    preds = decoder_predictions(scenes, trained, INDOOR_PROFILE, ranges)
    report = run_pipeline(scenes, preds, INDOOR_PROFILE)
    _report(
        "C8 toy-training",
        elapsed <= 300.0
        and history[-1] < 0.1 * history[0]
        and report.mean_depth_error <= 0.2
        and report.acc_25 >= 0.7,
        f"{elapsed:.0f} s, loss {history[0]:.3f}->{history[-1]:.3f} "
        f"(ratio {history[-1] / history[0]:.3f}), depth {report.mean_depth_error:.3f} m, "
        f"acc25 {report.acc_25:.3f}",
    )


def test_c9_cli_end_to_end(tmp_path, capsys):
    scenes = tmp_path / "scenes.jsonl"
    preds = tmp_path / "preds.jsonl"
    code_synth = main(
        ["synth", "--scenes", "25", "--seed", "21", "--profile", "outdoor",
         "--out", str(scenes), "--perfect-preds", str(preds)]
    )
    code_eval = main(
        ["evaluate", "--gt", str(scenes), "--pred", str(preds), "--mode", "raw",
         "--profile", "outdoor"]
    )
    out = capsys.readouterr().out
    scenes2 = tmp_path / "scenes2.jsonl"
    preds2 = tmp_path / "preds2.jsonl"
    main(["synth", "--scenes", "25", "--seed", "21", "--profile", "outdoor",
          "--out", str(scenes2), "--perfect-preds", str(preds2)])
    identical = (
        scenes.read_bytes() == scenes2.read_bytes()
        and preds.read_bytes() == preds2.read_bytes()
    )
    ok = (
        code_synth == 0
        and code_eval == 0
        and "Acc@0.5 100.0" in out
        and "DepthError 0.00" in out
        and "LengthError 0.00" in out
        and "WidthError 0.00" in out
        and "HeightError 0.00" in out
        and identical
    )
    _report(
        "C9 cli-end-to-end",
        ok,
        f"synth {code_synth}, evaluate {code_eval}, byte-identical {identical}",
    )


def test_c10_fusion_ablation_direction():
    scenes = synth_scenes(
        1000, seed=12, ranges=replace(synth_ranges_for("outdoor"), objects_per_scene=(1, 1)),
        profile_name="outdoor",
    )
    virtual_only = replace(OUTDOOR_PROFILE, depth_mode=DepthMode.VIRTUAL_ONLY)
    base = perfect_raw_predictions(scenes, OUTDOOR_PROFILE)
    outcomes = []
    for epsilon in (0.05, 0.1, 0.2):
        noisy = scale_virtual_depth(base, 1.0 + epsilon)
        fused_err = run_pipeline(scenes, noisy, OUTDOOR_PROFILE).mean_depth_error
        virtual_err = run_pipeline(scenes, noisy, virtual_only).mean_depth_error
        outcomes.append((epsilon, fused_err, virtual_err))
    ok = all(f < v for _, f, v in outcomes)
    detail = "; ".join(f"eps={e}: fused {f:.3f} < virtual {v:.3f}" for e, f, v in outcomes)
    _report("C10 fusion-ablation-direction", ok, detail)
