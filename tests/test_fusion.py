import hashlib

import numpy as np
import pytest

from conftest import haswell_pinned, under_blas_kernel
from mono3dg.errors import EmptyValidMask, ShapeMismatch
from mono3dg.fusion import (
    AttentionParams,
    DepthMap,
    LinearMap,
    add_fuse,
    apply_linear_map,
    branch_split,
    cross_branch_attention,
    cross_branch_attention_grads,
    depth_head,
    depth_head_loss_grads,
    depth_l1_loss,
    softplus,
)


def identity_map(channels: int) -> LinearMap:
    return LinearMap(np.eye(channels), np.zeros(channels))


def naive_per_cell(grid, m: LinearMap):
    rows, cols, _ = grid.shape
    out = np.zeros((rows, cols, m.weight.shape[1]))
    for r in range(rows):
        for c in range(cols):
            for j in range(m.weight.shape[1]):
                acc = m.bias[j]
                for i in range(grid.shape[2]):
                    acc += grid[r, c, i] * m.weight[i, j]
                out[r, c, j] = acc
    return out


class TestBranchSplit:
    def test_identity_maps(self):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((3, 4, 5))
        spatial, rgb = branch_split(grid, identity_map(5), identity_map(5))
        assert np.array_equal(spatial, grid) and np.array_equal(rgb, grid)

    def test_zero_rgb_map(self):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((2, 2, 3))
        _, rgb = branch_split(grid, identity_map(3), LinearMap(np.zeros((3, 3)), np.zeros(3)))
        assert np.all(rgb == 0.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        grid = rng.standard_normal((4, 4, 8))
        m1 = LinearMap(rng.standard_normal((8, 6)), rng.standard_normal(6))
        m2 = LinearMap(rng.standard_normal((8, 6)), rng.standard_normal(6))
        spatial, rgb = branch_split(grid, m1, m2)
        assert np.abs(spatial - naive_per_cell(grid, m1)).max() <= 1e-12
        assert np.abs(rgb - naive_per_cell(grid, m2)).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            branch_split(np.zeros((2, 2, 3)), identity_map(4), identity_map(4))
        with pytest.raises(ShapeMismatch):
            apply_linear_map(np.zeros((2, 3)), identity_map(3))


class TestDepthHead:
    def test_positive_everywhere(self):
        rng = np.random.default_rng(3)
        grid = 5.0 * rng.standard_normal((4, 4, 6))
        m = LinearMap(rng.standard_normal((6, 1)), rng.standard_normal(1))
        depth = depth_head(grid, m)
        assert np.all(depth.data > 0.0)
        assert depth.valid.all()

    def test_loss_zero_on_equal(self):
        d = DepthMap.dense(np.full((3, 3), 2.0))
        assert depth_l1_loss(d, d) == 0.0

    def test_loss_constant_offset(self):
        gt = DepthMap.dense(np.full((3, 3), 2.0))
        pred = DepthMap.dense(np.full((3, 3), 3.0))
        assert depth_l1_loss(pred, gt) == pytest.approx(1.0)

    def test_loss_half_cells_off_by_two(self):
        gt = DepthMap.dense(np.full((2, 4), 1.0))
        data = np.full((2, 4), 1.0)
        data[:, :2] += 2.0
        assert depth_l1_loss(DepthMap.dense(data), gt) == pytest.approx(1.0)

    def test_only_valid_cells_count(self):
        gt = DepthMap(np.full((2, 2), 1.0), np.array([[True, False], [False, False]]))
        pred = DepthMap.dense(np.array([[2.0, 99.0], [99.0, 99.0]]))
        assert depth_l1_loss(pred, gt) == pytest.approx(1.0)

    def test_empty_mask(self):
        gt = DepthMap(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(EmptyValidMask):
            depth_l1_loss(DepthMap.dense(np.ones((2, 2))), gt)

    def test_mask_of_another_shape_rejected(self):
        # A (1, 4) mask used to broadcast over all three rows: the loss read 1.0.
        with pytest.raises(ShapeMismatch):
            pred = DepthMap(np.full((3, 4), 2.0), np.array([[True, False, True, False]]))
            depth_l1_loss(pred, DepthMap.dense(np.ones((3, 4))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        grid = rng.standard_normal((3, 3, 5))
        m = LinearMap(rng.standard_normal((5, 1)), rng.standard_normal(1))
        gt = DepthMap.dense(softplus(rng.standard_normal((3, 3))))
        grads = depth_head_loss_grads(grid, m, gt)
        step = 1e-6

        def loss_at():
            return depth_l1_loss(depth_head(grid, m), gt)

        for arr, grad in ((m.weight, grads.weight), (m.bias, grads.bias)):
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_at()
                flat[idx] = orig - step
                down = loss_at()
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                a = grad.ravel()[idx]
                assert abs(a - fd) <= 1e-5 * max(abs(a), abs(fd), 1e-3)

    def test_gradients_reject_a_ground_truth_of_another_shape(self):
        # A (1, 4) ground truth would broadcast against a (3, 4) prediction.
        rng = np.random.default_rng(5)
        grid = rng.standard_normal((3, 4, 5))
        m = LinearMap(rng.standard_normal((5, 1)), rng.standard_normal(1))
        gt = DepthMap.dense(np.ones((1, 4)))
        with pytest.raises(ShapeMismatch, match=r"^depth maps differ: \(3, 4\) vs \(1, 4\)$"):
            depth_l1_loss(depth_head(grid, m), gt)
        with pytest.raises(ShapeMismatch, match=r"^depth maps differ: \(3, 4\) vs \(1, 4\)$"):
            depth_head_loss_grads(grid, m, gt)

    def test_gradients_reject_a_head_of_two_channels(self):
        # The gradient once read channel 0 only and returned (4, 1) / (1,)
        # gradients for a (4, 2) / (2,) head that depth_head rejects.
        rng = np.random.default_rng(6)
        grid = rng.standard_normal((3, 3, 4))
        m = LinearMap(rng.standard_normal((4, 2)), rng.standard_normal(2))
        gt = DepthMap.dense(np.ones((3, 3)))
        for run in (lambda: depth_head(grid, m), lambda: depth_head_loss_grads(grid, m, gt)):
            with pytest.raises(ShapeMismatch, match=r"^depth head must emit 1 channel, got 2$"):
                run()


class TestAddFuse:
    def test_zero_identity(self):
        grid = np.random.default_rng(5).standard_normal((2, 3, 4))
        assert np.array_equal(add_fuse(grid, np.zeros_like(grid)), grid)

    def test_cancellation(self):
        grid = np.random.default_rng(6).standard_normal((2, 3, 4))
        assert np.all(add_fuse(grid, -grid) == 0.0)

    def test_commutative(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 2, 3))
        assert np.array_equal(add_fuse(a, b), add_fuse(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            add_fuse(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))


def naive_attention(t_vit, cells, params):
    """Triple-loop reference with explicit softmax."""
    n_tokens = t_vit.shape[0]
    d_k = params.w_q.shape[1]
    out = np.zeros((n_tokens, d_k))
    q = t_vit @ params.w_q
    k = cells @ params.w_k
    v = cells @ params.w_v
    for t in range(n_tokens):
        logits = np.array([q[t] @ k[c] / np.sqrt(d_k) for c in range(cells.shape[0])])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        for c in range(cells.shape[0]):
            out[t] += weights[c] * v[c]
    return out


def _attention_digests():
    """SHA-256 of the cross-branch attention outputs and of their (w_q, w_k,
    w_v) gradients over 300 seeded cases."""
    outputs, grads = hashlib.sha256(), hashlib.sha256()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n_tokens, channels, d_k, rows, cols = (int(x) for x in rng.integers(1, 9, size=5))
        t_vit = 3.0 * rng.standard_normal((n_tokens, channels))
        f = rng.standard_normal((rows, cols, channels))
        params = AttentionParams(*(rng.standard_normal((channels, d_k)) for _ in range(3)))
        d_out = rng.standard_normal((n_tokens, d_k))
        outputs.update(cross_branch_attention(t_vit, f, params).tobytes())
        g = cross_branch_attention_grads(t_vit, f, params, d_out)
        for grad in (g.w_q, g.w_k, g.w_v):
            grads.update(np.ascontiguousarray(grad).tobytes())
    return [outputs.hexdigest(), grads.hexdigest()]


class TestCrossBranchAttention:
    def test_single_cell_identity_projections(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((1, 1, 4))
        t_vit = rng.standard_normal((3, 4))
        params = AttentionParams(np.eye(4), np.eye(4), np.eye(4))
        out = cross_branch_attention(t_vit, f, params)
        for row in out:
            assert np.allclose(row, f[0, 0], atol=1e-12)

    def test_identical_cells_ignore_queries(self):
        rng = np.random.default_rng(9)
        cell = rng.standard_normal(5)
        f = np.tile(cell, (3, 2, 1))
        t_vit = rng.standard_normal((4, 5))
        params = AttentionParams(*(rng.standard_normal((5, 6)) for _ in range(3)))
        out = cross_branch_attention(t_vit, f, params)
        expected = cell @ params.w_v
        for row in out:
            assert np.allclose(row, expected, atol=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(10)
        f = rng.integers(-3, 4, size=(1, 3, 4)).astype(float)
        t_vit = rng.integers(-3, 4, size=(2, 4)).astype(float)
        params = AttentionParams(
            *(rng.integers(-2, 3, size=(4, 3)).astype(float) for _ in range(3))
        )
        out = cross_branch_attention(t_vit, f, params)
        expected = naive_attention(t_vit, f.reshape(-1, 4), params)
        assert np.abs(out - expected).max() <= 1e-12

    def test_output_is_convex_combination_of_values(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((4, 4, 8))
        t_vit = 3.0 * rng.standard_normal((5, 8))
        params = AttentionParams(*(rng.standard_normal((8, 6)) for _ in range(3)))
        v = f.reshape(-1, 8) @ params.w_v
        out = cross_branch_attention(t_vit, f, params)
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)

    def test_key_logit_shift_invariance(self):
        # A constant channel lets a rank-one change to W_K shift every key by
        # the same vector, which shifts each softmax row by a constant and
        # must not change the output (max subtraction at work).
        rng = np.random.default_rng(12)
        f = rng.standard_normal((3, 3, 5))
        f[:, :, 0] = 1.0
        t_vit = rng.standard_normal((4, 5))
        params = AttentionParams(*(rng.standard_normal((5, 4)) for _ in range(3)))
        base = cross_branch_attention(t_vit, f, params)
        shifted_wk = params.w_k.copy()
        shifted_wk[0] += 37.0 * rng.standard_normal(4)
        shifted = cross_branch_attention(t_vit, f, AttentionParams(params.w_q, shifted_wk, params.w_v))
        assert np.abs(base - shifted).max() <= 1e-12

    def test_cell_order_invariance(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((4, 3, 5))
        t_vit = rng.standard_normal((2, 5))
        params = AttentionParams(*(rng.standard_normal((5, 4)) for _ in range(3)))
        base = cross_branch_attention(t_vit, f, params)
        cells = f.reshape(-1, 5)
        perm = rng.permutation(cells.shape[0])
        shuffled = cells[perm].reshape(f.shape)
        assert np.abs(base - cross_branch_attention(t_vit, shuffled, params)).max() <= 1e-12

    def test_extreme_logits_stay_finite(self):
        rng = np.random.default_rng(14)
        f = 1e4 * rng.standard_normal((2, 2, 3))
        t_vit = 1e4 * rng.standard_normal((2, 3))
        params = AttentionParams(*(rng.standard_normal((3, 3)) for _ in range(3)))
        out = cross_branch_attention(t_vit, f, params)
        assert np.all(np.isfinite(out))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        f = rng.standard_normal((4, 4, 8))
        t_vit = rng.standard_normal((4, 8))
        params = AttentionParams(*(rng.standard_normal((8, 5)) for _ in range(3)))
        d_out = rng.standard_normal((4, 5))
        grads = cross_branch_attention_grads(t_vit, f, params, d_out)
        step = 1e-6
        for mat, grad in ((params.w_q, grads.w_q), (params.w_k, grads.w_k), (params.w_v, grads.w_v)):
            flat = mat.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = float(np.sum(cross_branch_attention(t_vit, f, params) * d_out))
                flat[idx] = orig - step
                down = float(np.sum(cross_branch_attention(t_vit, f, params) * d_out))
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                a = grad.ravel()[idx]
                assert abs(a - fd) <= 1e-5 * max(abs(a), abs(fd), 1e-3)

    # SHA-256 of the outputs and of the (w_q, w_k, w_v) gradients of 300
    # seeded cases, pinned under OpenBLAS's Haswell kernel.
    OUTPUT_DIGEST = "29c1a9707e3f5c1f53b32ed30a311d6ca54593e89107ce1e1e080be9edaa3b41"
    GRADS_DIGEST = "629d114035379e070f11e71e5d391af722c2a203efad84825be1bfdbcd3d2770"

    @haswell_pinned
    def test_pinned_output_and_gradient_bits(self):
        _, digests = under_blas_kernel("Haswell", "test_fusion", "_attention_digests")
        assert digests == [self.OUTPUT_DIGEST, self.GRADS_DIGEST]

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            cross_branch_attention(
                np.zeros((2, 3)),
                np.zeros((2, 2, 4)),
                AttentionParams(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 3))),
            )
