import hashlib
import re

import numpy as np
import pytest

from conftest import haswell_pinned, under_blas_kernel
from mono3dg.errors import ShapeMismatch
from mono3dg.fusion import AttentionParams, cross_branch_attention, cross_branch_attention_grads


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
        # W_V reads the grid's channels too, so its input width is checked
        # with W_K's before any product runs.
        t_vit, f = np.zeros((2, 5)), np.zeros((2, 2, 4))
        params = AttentionParams(np.zeros((5, 6)), np.zeros((4, 6)), np.zeros((5, 6)))
        message = r"^projection input dims do not match features$"
        with pytest.raises(ShapeMismatch, match=message):
            cross_branch_attention(t_vit, f, params)
        with pytest.raises(ShapeMismatch, match=message):
            cross_branch_attention_grads(t_vit, f, params, np.zeros((2, 6)))


# One fault per row: the token matrix, the grid and the three projections
# (channels, d_k) with the fault placed in one of them. The sound shapes are
# 2 tokens of width 5, a (2, 2, 4) grid and d_k = 6.
_DIMS = r"^projection input dims do not match features$"
_D_K = r"^W_Q/W_K/W_V must share d_k$"
_SHAPE_FAULTS = {
    "grid_2d": ((2, 5), (4, 4), ((5, 6), (4, 6), (4, 6)),
                r"^spatial-local features must be \(rows, cols, channels\), got \(4, 4\)$"),
    "grid_4d": ((2, 5), (1, 2, 2, 4), ((5, 6), (4, 6), (4, 6)),
                r"^spatial-local features must be \(rows, cols, channels\), got \(1, 2, 2, 4\)$"),
    "tokens_1d": ((5,), (2, 2, 4), ((5, 6), (4, 6), (4, 6)), r"^token matrix must be 2D, got \(5,\)$"),
    "tokens_3d": ((1, 2, 5), (2, 2, 4), ((5, 6), (4, 6), (4, 6)),
                  r"^token matrix must be 2D, got \(1, 2, 5\)$"),
    "w_q_input": ((2, 5), (2, 2, 4), ((4, 6), (4, 6), (4, 6)), _DIMS),
    "w_k_input": ((2, 5), (2, 2, 4), ((5, 6), (5, 6), (4, 6)), _DIMS),
    "w_v_input": ((2, 5), (2, 2, 4), ((5, 6), (4, 6), (5, 6)), _DIMS),
    "w_k_d_k": ((2, 5), (2, 2, 4), ((5, 6), (4, 7), (4, 6)), _D_K),
    "w_v_d_k": ((2, 5), (2, 2, 4), ((5, 6), (4, 6), (4, 3)), _D_K),
}


class TestAttentionShapeFaults:
    @pytest.mark.parametrize("name", list(_SHAPE_FAULTS))
    @pytest.mark.parametrize("grads", [False, True], ids=["forward", "grads"])
    def test_each_fault_raises_its_message(self, name, grads):
        tokens, grid, projections, message = _SHAPE_FAULTS[name]
        t_vit, f = np.ones(tokens), np.ones(grid)
        params = AttentionParams(*(np.ones(shape) for shape in projections))
        with pytest.raises(ShapeMismatch, match=message):
            if grads:
                cross_branch_attention_grads(t_vit, f, params, np.ones((2, 6)))
            else:
                cross_branch_attention(t_vit, f, params)

    @pytest.mark.parametrize("d_out_shape", [(2, 7), (3, 6), (6,)])
    def test_upstream_gradient_of_another_shape(self, d_out_shape):
        params = AttentionParams(np.ones((5, 6)), np.ones((4, 6)), np.ones((4, 6)))
        message = rf"^upstream gradient shape {re.escape(str(d_out_shape))} is wrong$"
        with pytest.raises(ShapeMismatch, match=message):
            cross_branch_attention_grads(np.ones((2, 5)), np.ones((2, 2, 4)), params, np.ones(d_out_shape))


def _random_case(seed, n_tokens=3, grid=(3, 4), channels=5, d_k=4):
    rng = np.random.default_rng(seed)
    t_vit = rng.standard_normal((n_tokens, channels))
    f = rng.standard_normal((*grid, channels))
    params = AttentionParams(*(rng.standard_normal((channels, d_k)) for _ in range(3)))
    d_out = rng.standard_normal((n_tokens, d_k))
    return t_vit, f, params, d_out


class TestAttentionStructure:
    def test_zero_queries_average_the_values(self):
        t_vit, f, params, _ = _random_case(20)
        params.w_q = np.zeros_like(params.w_q)
        out = cross_branch_attention(t_vit, f, params)
        mean_value = (f.reshape(-1, 5) @ params.w_v).mean(axis=0)
        for row in out:
            assert np.abs(row - mean_value).max() <= 1e-12

    def test_grid_layout_does_not_matter(self):
        # Only the cells count: the same 12 cells in any (rows, cols) layout
        # give the same bits.
        t_vit, f, params, d_out = _random_case(21)
        base = cross_branch_attention(t_vit, f, params)
        base_grads = cross_branch_attention_grads(t_vit, f, params, d_out)
        for layout in ((2, 6), (12, 1), (1, 12)):
            g = f.reshape(*layout, 5)
            assert cross_branch_attention(t_vit, g, params).tobytes() == base.tobytes()
            grads = cross_branch_attention_grads(t_vit, g, params, d_out)
            for name in ("w_q", "w_k", "w_v"):
                assert getattr(grads, name).tobytes() == getattr(base_grads, name).tobytes()

    def test_token_order_permutes_the_output(self):
        t_vit, f, params, _ = _random_case(22, n_tokens=6)
        perm = np.random.default_rng(23).permutation(6)
        base = cross_branch_attention(t_vit, f, params)
        assert np.abs(cross_branch_attention(t_vit[perm], f, params) - base[perm]).max() <= 1e-12

    def test_tokens_are_attended_independently(self):
        t_vit, f, params, _ = _random_case(24, n_tokens=4)
        base = cross_branch_attention(t_vit, f, params)
        for i in range(4):
            alone = cross_branch_attention(t_vit[i:i + 1], f, params)
            assert np.abs(alone[0] - base[i]).max() <= 1e-12

    def test_accepts_integer_lists(self):
        t_vit = [[1, 0, 2], [0, 1, -1]]
        f = [[[1, 2, 0], [0, 1, 1]]]
        params = AttentionParams(*(np.eye(3) for _ in range(3)))
        out = cross_branch_attention(t_vit, f, params)
        expected = naive_attention(np.array(t_vit, float), np.array(f, float).reshape(-1, 3), params)
        assert out.dtype == np.float64
        assert np.abs(out - expected).max() <= 1e-12


class TestAttentionGradientStructure:
    def test_one_cell_has_no_query_or_key_gradient(self):
        # Softmax over a single cell is 1 whatever the logit, so W_Q and W_K
        # get exactly zero gradient and W_V takes all of it.
        t_vit, f, params, d_out = _random_case(30, grid=(1, 1))
        grads = cross_branch_attention_grads(t_vit, f, params, d_out)
        assert not grads.w_q.any()
        assert not grads.w_k.any()
        cell = f.reshape(1, 5)
        assert np.abs(grads.w_v - cell.T @ d_out.sum(axis=0, keepdims=True)).max() <= 1e-12

    def test_zero_upstream_gives_zero_gradients(self):
        t_vit, f, params, d_out = _random_case(31)
        grads = cross_branch_attention_grads(t_vit, f, params, np.zeros_like(d_out))
        for name in ("w_q", "w_k", "w_v"):
            assert not getattr(grads, name).any()

    def test_doubling_the_upstream_doubles_the_bits(self):
        # Every step is linear in d_out and doubling is exact in floating
        # point, so the gradients double bit for bit.
        t_vit, f, params, d_out = _random_case(32)
        once = cross_branch_attention_grads(t_vit, f, params, d_out)
        twice = cross_branch_attention_grads(t_vit, f, params, 2.0 * d_out)
        for name in ("w_q", "w_k", "w_v"):
            assert (2.0 * getattr(once, name)).tobytes() == getattr(twice, name).tobytes()

    def test_gradients_add_over_upstreams(self):
        t_vit, f, params, d_a = _random_case(33)
        d_b = np.random.default_rng(34).standard_normal(d_a.shape)
        g_a = cross_branch_attention_grads(t_vit, f, params, d_a)
        g_b = cross_branch_attention_grads(t_vit, f, params, d_b)
        g_sum = cross_branch_attention_grads(t_vit, f, params, d_a + d_b)
        for name in ("w_q", "w_k", "w_v"):
            expected = getattr(g_a, name) + getattr(g_b, name)
            assert np.abs(getattr(g_sum, name) - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_value_gradient_closed_form(self):
        # d/dW_V of sum(P (X W_V) * d_out) is X^T P^T d_out, with P the
        # softmax weights of the naive reference.
        t_vit, f, params, d_out = _random_case(35)
        cells = f.reshape(-1, 5)
        q, k = t_vit @ params.w_q, cells @ params.w_k
        logits = q @ k.T / np.sqrt(4)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        grads = cross_branch_attention_grads(t_vit, f, params, d_out)
        assert np.abs(grads.w_v - cells.T @ (weights.T @ d_out)).max() <= 1e-12
