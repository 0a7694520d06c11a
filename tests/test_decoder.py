import itertools
import json
import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blas_kernel, under_blas_kernel
from mono3dg import decoder as D
from mono3dg.errors import EmptyDataset, MalformedSequence, SchemaError, ShapeMismatch
from mono3dg.jsonio import dumps_canonical

# Central FD at step 1e-6 has ~1e-9 absolute noise, so gradient entries
# below this magnitude are held to an absolute bar of tol * floor instead.
FD_STEP = 1e-6
FD_FLOOR = 1e-3
FD_TOL = 1e-5


def small_config(n_layers=1):
    return D.DecoderConfig(d_model=8, n_layers=n_layers, d_ff=12, head_hidden=6)


def make_sequence(rng, d_model=8, n_tokens=5):
    return rng.standard_normal((n_tokens, d_model))


def make_target(rng):
    return np.concatenate(
        [
            [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.5, 4.0)],
            rng.uniform(0.3, 2.0, 3),
            rng.standard_normal(6),
        ]
    )


class TestSubstituteQuery:
    def test_overwrites_slot_exactly(self):
        rng = np.random.default_rng(1)
        seq = make_sequence(rng)
        q = rng.standard_normal(8)
        out = D.substitute_query(seq, q)
        assert np.array_equal(out[-1], q)
        assert np.array_equal(out[:-1], seq[:-1])
        assert not np.shares_memory(out, seq)

    def test_fills_the_last_slot_of_every_stacked_sequence(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3, 5, 8))
        q = rng.standard_normal(8)
        out = D.substitute_query(stack, q)
        assert out.flags.c_contiguous
        for seq, row in zip(stack, out):
            assert row.tobytes() == D.substitute_query(seq, q).tobytes()
        with pytest.raises(ShapeMismatch, match="query vector"):
            D.substitute_query(stack, np.zeros(7))

    def test_original_slot_content_is_irrelevant(self):
        rng = np.random.default_rng(2)
        params = D.init_params(small_config(), rng)
        base = make_sequence(rng)
        reference = D.forward(D.substitute_query(base, params.query), params)
        for filler in (np.zeros(8), rng.standard_normal(8), 1e3 * np.ones(8)):
            seq = base.copy()
            seq[-1] = filler
            assert np.array_equal(D.forward(D.substitute_query(seq, params.query), params), reference)
            # forward fills the slot itself
            assert np.array_equal(D.forward(seq, params), reference)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng)
        q = rng.standard_normal(8)
        once = D.substitute_query(seq, q)
        twice = D.substitute_query(once, q)
        assert np.array_equal(once, twice)


def naive_forward(seq, params):
    """Independent reference: per-position loops, explicit causal softmax."""
    x = np.array(seq, dtype=float)
    n, d = x.shape
    for layer in params.layers:
        attended = np.zeros_like(x)
        for i in range(n):
            q_i = x[i] @ layer.w_q
            logits = []
            for j in range(i + 1):
                logits.append(float(q_i @ (x[j] @ layer.w_k)) / math.sqrt(d))
            logits = np.array(logits)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            acc = np.zeros(d)
            for j in range(i + 1):
                acc += w[j] * (x[j] @ layer.w_v)
            attended[i] = x[i] + acc @ layer.w_o
        out = np.zeros_like(x)
        for i in range(n):
            hidden = D.gelu(attended[i] @ layer.ff_w1 + layer.ff_b1)
            out[i] = attended[i] + hidden @ layer.ff_w2 + layer.ff_b2
        x = out
    return x[-1]


class TestForward:
    def test_zero_weights_pass_query_through(self):
        rng = np.random.default_rng(4)
        params = D.init_params(small_config(), rng)
        for name, arr in params.named_arrays():
            if name != "query":
                params.set_named(name, np.zeros_like(arr))
        seq = D.substitute_query(make_sequence(rng), params.query)
        assert np.array_equal(D.forward(seq, params), params.query)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(5)
        config = D.DecoderConfig(d_model=8, n_layers=2, d_ff=12, head_hidden=6)
        params = D.init_params(config, rng)
        seq = D.substitute_query(make_sequence(rng), params.query)
        assert np.abs(D.forward(seq, params) - naive_forward(seq, params)).max() <= 1e-12

    def test_image_tokens_influence_output(self):
        rng = np.random.default_rng(6)
        params = D.init_params(small_config(), rng)
        seq = make_sequence(rng)
        base = D.forward(D.substitute_query(seq, params.query), params)
        bumped = seq.copy()
        bumped[1] += 0.1
        moved = D.forward(D.substitute_query(bumped, params.query), params)
        assert np.abs(moved - base).max() > 0.0


class TestHeads:
    def test_zero_weight_defaults(self):
        rng = np.random.default_rng(7)
        params = D.init_params(small_config(), rng)
        for head in params.heads.values():
            head.w1[:] = 0
            head.b1[:] = 0
            head.w2[:] = 0
            head.b2[:] = 0
        raw = D.heads(rng.standard_normal(8), params)
        assert raw.shape == (D.RAW_WIDTH,)
        assert list(raw[D.UV]) == [0.5, 0.5]
        assert raw[D.D_V] == pytest.approx(math.log(2.0))  # softplus(0)
        assert list(raw[D.SIZE]) == pytest.approx([math.log(2.0)] * 3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_invariants_hold_for_any_feature(self, seed):
        rng = np.random.default_rng(seed)
        params = D.init_params(small_config(), rng)
        raw = D.heads(50.0 * rng.standard_normal(8), params)
        assert np.all((0.0 <= raw[D.UV]) & (raw[D.UV] <= 1.0))
        assert raw[D.D_V] > 0 and np.all(raw[D.SIZE] > 0)

    def test_two_dim_hand_computation(self):
        # d_model 2, hidden 2: small enough to evaluate by hand.
        config = D.DecoderConfig(d_model=2, n_layers=1, d_ff=2, head_hidden=2)
        params = D.init_params(config, np.random.default_rng(8))
        mlp = params.heads["d"]
        mlp.w1[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        mlp.b1[:] = np.array([0.5, -0.5])
        mlp.w2[:] = np.array([[2.0], [1.0]])
        mlp.b2[:] = np.array([0.25])
        f = np.array([0.3, -0.7])
        h1 = 0.5 * 0.8 * (1 + math.erf(0.8 / math.sqrt(2)))
        h2 = 0.5 * (-1.2) * (1 + math.erf(-1.2 / math.sqrt(2)))
        z = 2.0 * h1 + 1.0 * h2 + 0.25
        expected = math.log1p(math.exp(z))
        assert D.heads(f, params)[D.D_V] == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("f3d, error", [
        (np.ones(5), ShapeMismatch),
        (np.ones((2, 8)), ShapeMismatch),
        (np.ones((1, 8)), ShapeMismatch),
        (np.float64(1.0), ShapeMismatch),
        (np.where(np.arange(8) == 3, np.nan, 1.0), MalformedSequence),
        (np.where(np.arange(8) == 0, np.inf, 1.0), MalformedSequence),
        (np.where(np.arange(8) == 7, -np.inf, 1.0), MalformedSequence),
    ], ids=["short", "stack", "row", "scalar", "nan", "inf", "-inf"])
    def test_takes_one_finite_feature_vector(self, f3d, error):
        params = D.init_params(small_config(), np.random.default_rng(7))
        with pytest.raises(error, match="f3d"):
            D.heads(f3d, params)


class TestLoss:
    def test_zero_on_equal(self):
        target = make_target(np.random.default_rng(9))
        assert D.loss(target, target) == 0.0

    def test_single_component(self):
        rng = np.random.default_rng(10)
        target = make_target(rng)
        bumped = target + np.eye(12)[2] * 0.3
        assert D.loss(bumped, target) == pytest.approx(0.3)

    def test_two_components_sum(self):
        rng = np.random.default_rng(11)
        target = make_target(rng)
        delta = np.zeros(12)
        delta[0], delta[7] = 0.1, -0.2
        bumped = target + delta
        assert D.loss(bumped, target) == pytest.approx(0.3)


class TestRawRow:
    def test_returns_the_float64_row(self):
        row = D.raw_row([1, 0, 2, 1, 1, 1, 1, 0, 0, 0, 1, 0])
        assert row.dtype == np.float64 and row.shape == (D.RAW_WIDTH,)

    @pytest.mark.parametrize("shape", [(), (6,), (11,), (13,), (1, 12), (12, 1)])
    def test_loss_and_backward_reject_any_other_shape(self, shape):
        rng = np.random.default_rng(20)
        params = D.init_params(small_config(), rng)
        target = make_target(rng)
        with pytest.raises(ShapeMismatch, match=r"raw head outputs .* vs \(12,\)"):
            D.loss(np.ones(shape), target)
        with pytest.raises(ShapeMismatch):
            D.loss(target, np.ones(shape))
        with pytest.raises(ShapeMismatch):
            D.backward(make_sequence(rng), params, np.ones(shape))


class TestBackward:
    def test_gradcheck_many_instances(self):
        # >= 20 random instances; sampled coordinates from every group. Two
        # layers check the gradient that one layer hands the one below.
        for seed, n_layers in itertools.product(range(20), (1, 2)):
            rng = np.random.default_rng(100 + seed)
            params = D.init_params(small_config(n_layers), rng)
            seq = make_sequence(rng)
            target = make_target(rng)
            _, grads = D.backward(seq, params, target)
            pdict = dict(params.named_arrays())
            for name, grad in grads.named_arrays():
                flat = pdict[name].ravel()
                idxs = rng.choice(flat.size, size=min(3, flat.size), replace=False)
                for idx in idxs:
                    orig = flat[idx]
                    flat[idx] = orig + FD_STEP
                    up, _ = D.backward(seq, params, target)
                    flat[idx] = orig - FD_STEP
                    down, _ = D.backward(seq, params, target)
                    flat[idx] = orig
                    fd = (up - down) / (2 * FD_STEP)
                    a = grad.ravel()[idx]
                    assert abs(a - fd) <= FD_TOL * max(abs(a), abs(fd), FD_FLOOR), (
                        f"{name}[{idx}] analytic {a} vs fd {fd}"
                    )

    def test_head_step_gradient_on_f3d(self):
        # The head step's contract: g_f3d is the gradient of the summed
        # per-sample losses on f3d, which the stack backward starts from.
        rng = np.random.default_rng(15)
        params = D.init_params(small_config(), rng)
        f3d = rng.standard_normal((3, 1, 8))
        targets = np.stack([make_target(rng) for _ in range(3)])
        grads = D.DecoderParams(params.config)
        _, g_f3d = D._l1_head_step(f3d, params, targets, grads)
        assert g_f3d.shape == f3d.shape and np.abs(g_f3d).max() > 0.0
        for idx in np.ndindex(f3d.shape):
            orig = f3d[idx]
            f3d[idx] = orig + FD_STEP
            up = D._l1_head_step(f3d, params, targets, grads)[0].sum()
            f3d[idx] = orig - FD_STEP
            down = D._l1_head_step(f3d, params, targets, grads)[0].sum()
            f3d[idx] = orig
            fd, a = (up - down) / (2 * FD_STEP), g_f3d[idx]
            assert abs(a - fd) <= FD_TOL * max(abs(a), abs(fd), FD_FLOOR), f"f3d{idx} analytic {a} vs fd {fd}"

    def test_query_gradient_nonzero(self):
        rng = np.random.default_rng(12)
        params = D.init_params(small_config(), rng)
        _, grads = D.backward(make_sequence(rng), params, make_target(rng))
        assert np.abs(grads.query).max() > 0.0

    def test_attention_grads_vanish_when_output_map_zero(self):
        # With W_O = 0 the attention branch cannot reach the loss, so the
        # query/key/value projections must get exactly zero gradient.
        rng = np.random.default_rng(13)
        params = D.init_params(small_config(), rng)
        for layer in params.layers:
            layer.w_o[:] = 0.0
        _, grads = D.backward(make_sequence(rng), params, make_target(rng))
        for layer_grads in grads.layers:
            assert np.all(layer_grads.w_q == 0.0)
            assert np.all(layer_grads.w_k == 0.0)
            assert np.all(layer_grads.w_v == 0.0)

    def test_loss_value_matches_loss_function(self):
        rng = np.random.default_rng(14)
        params = D.init_params(small_config(), rng)
        seq = make_sequence(rng)
        target = make_target(rng)
        value, _ = D.backward(seq, params, target)
        assert value == pytest.approx(D.loss(D.predict(seq, params), target), rel=1e-12)


def tiny_dataset(rng, n=6):
    """(n, 5, 8) embeddings and their (n, 12) targets."""
    rows = [(make_sequence(rng), make_target(rng)) for _ in range(n)]
    embeddings, targets = map(np.stack, zip(*rows))
    return embeddings, targets


class TestTrain:
    def test_deterministic_histories(self):
        rng = np.random.default_rng(15)
        dataset = tiny_dataset(rng)
        cfg = D.TrainConfig(epochs=5, batch_size=3, seed=42)
        p1 = D.init_params(small_config(), np.random.default_rng(0))
        p2 = D.init_params(small_config(), np.random.default_rng(0))
        _, h1 = D.train(*dataset, p1, cfg)
        _, h2 = D.train(*dataset, p2, cfg)
        assert h1 == h2

    def test_zero_learning_rate_is_inert(self):
        rng = np.random.default_rng(16)
        dataset = tiny_dataset(rng)
        params = D.init_params(small_config(), np.random.default_rng(1))
        before = {name: arr.copy() for name, arr in params.named_arrays()}
        trained, history = D.train(*dataset, params, D.TrainConfig(epochs=4, lr=0.0, seed=0))
        for name, arr in trained.named_arrays():
            assert np.array_equal(arr, before[name])
        assert len(set(history)) == 1

    def test_loss_decreases(self):
        rng = np.random.default_rng(17)
        dataset = tiny_dataset(rng, n=8)
        params = D.init_params(small_config(), np.random.default_rng(2))
        _, history = D.train(*dataset, params, D.TrainConfig(epochs=400, batch_size=2, seed=3))
        assert history[-1] < 0.5 * history[0]

    def test_empty_dataset_rejected(self):
        params = D.init_params(small_config(), np.random.default_rng(3))
        with pytest.raises(EmptyDataset):
            D.train(np.zeros((0, 5, 8)), np.zeros((0, 12)), params, D.TrainConfig(epochs=1))

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("batch_size", 0), ("batch_size", -1)])
    def test_meaningless_sizes_rejected(self, field, value):
        dataset = tiny_dataset(np.random.default_rng(18))
        params = D.init_params(small_config(), np.random.default_rng(4))
        with pytest.raises(ValueError, match=field):
            D.train(*dataset, params, D.TrainConfig(**{"epochs": 1, field: value}))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        params = D.init_params(small_config(), rng)
        path = tmp_path / "ckpt.json"
        D.save_checkpoint(path, params, seed=7)
        loaded = D.load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(params.named_arrays(), loaded.named_arrays()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_round_trip_at_every_depth(self, tmp_path, n_layers):
        config = D.DecoderConfig(d_model=3, n_layers=n_layers, d_ff=1, head_hidden=1)
        params = D.init_params(config, np.random.default_rng(n_layers))
        path = tmp_path / "ckpt.json"
        D.save_checkpoint(path, params, seed=7)
        loaded = D.load_checkpoint(path)
        assert loaded.config == config and loaded.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("field, value", [("d_model", 0), ("d_ff", 0), ("head_hidden", 0),
                                              ("d_ff", -2), ("n_layers", -1)])
    def test_config_without_a_checkpoint_form_rejected(self, field, value):
        # a zero width would save a checkpoint that load_checkpoint rejects
        with pytest.raises(SchemaError, match=f"'config.{field}'"):
            D.DecoderConfig(**{field: value})
        with pytest.raises(SchemaError, match=f"'config.{field}'"):
            D.DecoderConfig.from_json({**D.DecoderConfig().to_json(), field: value})

    def test_bytes_match_the_reference(self, tmp_path):
        params = D.init_params(D.DecoderConfig(), np.random.default_rng(19))
        path = tmp_path / "ckpt.json"
        D.save_checkpoint(path, params, seed=8)
        payload = {
            "config": params.config.to_json(),
            "seed": 8,
            "params": {name: arr.tolist() for name, arr in params.named_arrays()},
        }
        assert path.read_text(encoding="utf-8") == dumps_canonical(payload) + "\n"

    def test_non_finite_parameter_writes_no_file(self, tmp_path):
        params = D.init_params(small_config(), np.random.default_rng(20))
        params.flat[-1] = np.nan
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError, match="non-finite number nan"):
            D.save_checkpoint(path, params, seed=8)
        assert not path.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda p: p.update({"layer0.ff_w1": np.asarray(p["layer0.ff_w1"]).T.tolist()}), "layer0.ff_w1"),
        (lambda p: p["query"].__setitem__(0, "INF"), "query"),
        (lambda p: p.update({"bogus": [1.0]}), "bogus"),
        (lambda p: p.pop("head_d.b2"), "head_d.b2"),
        (lambda p: p["query"].pop(), "query"),
        (lambda p: p["layer1.w_o"][3].append(0.5), "layer1.w_o"),
    ], ids=["transposed", "infinite", "unknown-key", "missing-key", "short", "ragged"])
    def test_load_rejects_a_parameter_off_the_layout(self, tmp_path, edit, field):
        path = tmp_path / "ckpt.json"
        D.save_checkpoint(path, D.init_params(D.DecoderConfig(), np.random.default_rng(21)), seed=3)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload["params"])
        # "INF" stands for a literal that json reads as inf
        path.write_text(dumps_canonical(payload).replace('"INF"', "1e400"), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"'params.{field}'"):
            D.load_checkpoint(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda c: c["params"]["query"].__setitem__(0, "1.5"), "params.query"),
        (lambda c: c["params"]["query"].__setitem__(5, True), "params.query"),
        (lambda c: c["params"]["head_d.b2"].__setitem__(0, 10**400), "params.head_d.b2"),
        (lambda c: c["config"].update(n_layers=2.7), "config.n_layers"),
        (lambda c: c["config"].update(n_layers="2"), "config.n_layers"),
        (lambda c: c["config"].update(d_model=True), "config.d_model"),
        (lambda c: c["config"].update(d_ff=-1), "config.d_ff"),
        (lambda c: c["config"].update(n_heads=4), "config"),
        (lambda c: c.update(params=list(c["params"].values())), "params"),
        (lambda c: c.__delitem__("config"), "config"),
        (lambda c: [c], "config"),
    ], ids=["string-element", "bool-element", "huge-integer-element", "fractional-field", "string-field",
            "bool-field", "negative-field", "unknown-field", "params-list", "missing-config", "top-level-list"])
    def test_load_rejects_a_malformed_config_or_element(self, tmp_path, edit, field):
        path = tmp_path / "ckpt.json"
        D.save_checkpoint(path, D.init_params(D.DecoderConfig(), np.random.default_rng(22)), seed=3)
        payload = json.loads(path.read_text(encoding="utf-8"))
        # An edit changes the payload in place or returns the one to write.
        payload = edit(payload) or payload
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"'{field}'"):
            D.load_checkpoint(path)

    def test_loss_history_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        D.write_loss_history(path, [1.5, 0.75, 0.25])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1].startswith("0,1.5")
        assert len(lines) == 4


def test_single_query_token_is_the_only_regression_source():
    # All four heads consume the same single feature vector, the last
    # token's, and predict is predict_batch's N = 1 case, bit for bit.
    rng = np.random.default_rng(19)
    for config in (small_config(), small_config(n_layers=0), D.DecoderConfig()):
        params = D.init_params(config, rng)
        seq = make_sequence(rng, config.d_model, 6)
        raw = D.predict(seq, params)
        assert D.heads(D.forward(seq, params), params).tobytes() == raw.tobytes()
        assert D.predict_batch(seq[None], params)[0].tobytes() == raw.tobytes()


def reference_adam(params, grads, state, cfg):
    """The per-parameter Adam update, one named array at a time."""
    state["step"] += 1
    t = state["step"]
    for name, arr in params.named_arrays():
        g = grads[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(arr)
            state["v"][name] = np.zeros_like(arr)
        state["m"][name] = D.ADAM_BETA1 * state["m"][name] + (1 - D.ADAM_BETA1) * g
        state["v"][name] = D.ADAM_BETA2 * state["v"][name] + (1 - D.ADAM_BETA2) * g * g
        m_hat = state["m"][name] / (1 - D.ADAM_BETA1**t)
        v_hat = state["v"][name] / (1 - D.ADAM_BETA2**t)
        params.set_named(name, arr - cfg.lr * m_hat / (np.sqrt(v_hat) + D.ADAM_EPS))


def reference_train(embeddings, targets, params, cfg):
    """Per-sample backward on one sequence at a time, gradients
    accumulated by name, per-name Adam."""
    params = params.copy()
    rng = np.random.default_rng(cfg.seed)
    state = {"step": 0, "m": {}, "v": {}}
    history = []
    n = len(embeddings)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        sample_losses = np.zeros(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            sums = {}
            for idx in batch:
                sample_losses[idx], grads = D.backward(embeddings[idx], params, targets[idx])
                for name, arr in grads.named_arrays():
                    sums[name] = sums[name] + arr if name in sums else arr.copy()
            reference_adam(params, {k: v * (1.0 / len(batch)) for k, v in sums.items()}, state, cfg)
        history.append(float(sample_losses.sum()) / n)
    return params, history


def in_order_sum(a):
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def spread_values(rng, shape):
    """Values of both signs whose magnitudes spread over 1e-8..1e8."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


class TestSampleSum:
    """``_sample_sum`` adds samples in order, bit for bit like a loop."""

    SHAPES = sorted({shape for config in (small_config(), D.DecoderConfig())
                     for _, shape in D._layout(config)})

    @pytest.mark.parametrize("batch", [1, 2, 7, 8, 9, 16, 17, 33])
    def test_equals_in_order_loop_on_every_parameter_shape(self, batch):
        # (1,) is head_d.b2: its (B, 1) reduce is 1-D, which numpy adds pairwise
        assert (1,) in self.SHAPES
        rng = np.random.default_rng(batch)
        for shape in self.SHAPES:
            a = spread_values(rng, (batch,) + shape)
            assert D._sample_sum(a).tobytes() == in_order_sum(a).tobytes(), shape

    def test_strided_rows_and_signed_zeros(self):
        # the query gradient is the last token of every sample, a strided view
        a = spread_values(np.random.default_rng(41), (17, 5, 32))[:, -1]
        assert D._sample_sum(a).tobytes() == in_order_sum(a).tobytes()
        zeros = np.full((16, 3), -0.0)
        zeros[:, 1] = 0.0
        assert D._sample_sum(zeros).tobytes() == in_order_sum(zeros).tobytes()


class TestBatchedBackward:
    @pytest.mark.parametrize("config", [small_config(), D.DecoderConfig()], ids=["small", "default"])
    def test_equals_sum_of_single_sample_backward(self, config):
        rng = np.random.default_rng(30)
        params = D.init_params(config, rng)
        samples = [(make_sequence(rng, config.d_model, 6), make_target(rng)) for _ in range(5)]
        x = np.stack([D.substitute_query(seq, params.query) for seq, _ in samples])
        targets = np.stack([target for _, target in samples])
        # A buffer full of NaN: every gradient slot must be overwritten.
        batch_grads = D.DecoderParams(config, np.full_like(params.flat, np.nan))
        losses = D._batch_backward(x, params, targets, batch_grads)
        singles = [D.backward(seq, params, target) for seq, target in samples]
        assert list(losses) == [value for value, _ in singles]
        summed = {name: sum(dict(g.named_arrays())[name] for _, g in singles)
                  for name, _ in params.named_arrays()}
        groups = 0
        for name, grad in batch_grads.named_arrays():
            scale = np.abs(summed[name]).max()
            assert np.abs(grad - summed[name]).max() <= 1e-12 * scale, name
            groups += scale > 0.0
        assert groups == len(summed)

    def test_train_matches_per_sample_loop(self):
        # Same per-sample arithmetic, summed in sample order, so the results
        # are equal, not close. Batches of 16 expose a pairwise sum.
        rng = np.random.default_rng(31)
        dataset = tiny_dataset(rng, n=40)
        params = D.init_params(small_config(), np.random.default_rng(4))
        cfg = D.TrainConfig(epochs=20, batch_size=16, lr=1e-2, seed=5)
        trained, history = D.train(*dataset, params, cfg)
        expected, expected_history = reference_train(*dataset, params, cfg)
        assert history == expected_history
        assert np.array_equal(trained.flat, expected.flat)


def _every_row_mlp(x, mlp, query_only=False):
    """The reference feed-forward block: gelu on every row, whatever
    query_only asks."""
    pre = x @ mlp.w1 + mlp.b1
    hidden, term = D._gelu(pre)
    return hidden @ mlp.w2, (x, pre, term, hidden)


def query_row_mismatches() -> list:
    """The (T, N, output) cases where predict_batch's raw rows or a 2-epoch
    train's parameters and loss history differ in any bit from a run whose
    last layer activates every row, at the default sizes."""
    mismatches = []
    query_row_mlp = D._mlp
    for t, n in itertools.product((1, 2, 8, 13), (1, 3, 33, 70)):
        rng = np.random.default_rng(100 * t + n)
        params = D.init_params(D.DecoderConfig(), rng)
        x = rng.standard_normal((n, t, params.config.d_model))
        targets = np.array([make_target(rng) for _ in range(n)])
        runs = []
        for mlp in (query_row_mlp, _every_row_mlp):
            D._mlp = mlp
            try:
                trained, history = D.train(x, targets, params, D.TrainConfig(epochs=2, seed=t))
                runs.append({"predict": D.predict_batch(x, params).tobytes(),
                             "train": trained.flat.tobytes() + np.array(history).tobytes()})
            finally:
                D._mlp = query_row_mlp
        mismatches += [[t, n, output] for output in runs[0] if runs[0][output] != runs[1][output]]
    return mismatches


class TestQueryRowLastLayer:
    """The heads read the query row alone, so the last layer activates that
    row alone; every product keeps its full shape, so no bit changes, under
    this process's BLAS kernel and under others."""

    def test_same_bits_as_every_row(self):
        assert query_row_mismatches() == []

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS kernels are forced by x86-64 name"
    )
    def test_same_bits_under_other_blas_kernels(self):
        kernels = set()
        for coretype in ("Haswell", "Prescott"):
            kernel, mismatches = under_blas_kernel(coretype, "test_decoder", "query_row_mismatches")
            assert mismatches == [], (coretype, kernel)
            kernels.add(kernel)
        assert kernels - {blas_kernel()}, kernels

    def test_other_rows_stay_inactive(self):
        config = small_config(n_layers=2)
        params = D.init_params(config, np.random.default_rng(50))
        x = D.substitute_query(np.random.default_rng(51).standard_normal((3, 5, 8)), params.query)
        caches = []
        D._stack_forward(x, params, caches)
        first, last = (ff_cache for *_, ff_cache in caches)
        assert first[2].shape == (3, 5, config.d_ff)
        assert last[2].shape == (3, 1, config.d_ff)
        assert not last[3][:, :-1].any()


class TestFlatParameters:
    def test_views_share_the_vector(self):
        params = D.init_params(small_config(), np.random.default_rng(32))
        for _, arr in params.named_arrays():
            assert arr.flags.c_contiguous and np.shares_memory(arr, params.flat)
        sizes = sum(arr.size for _, arr in params.named_arrays())
        assert sizes == params.flat.size

    def test_in_place_edit_shows_in_vector(self):
        params = D.init_params(small_config(), np.random.default_rng(33))
        # both views are 8 wide; the feed-forward block reaches its ff_*
        # arrays through an MLPParams of views
        for view, target in ((params.layers[0].w_o, "layer0.w_o"), (params.layers[0].ff.w2, "layer0.ff_w2")):
            view[2, 3] = 17.5
            offset = 0
            for name, arr in params.named_arrays():
                if name == target:
                    break
                offset += arr.size
            assert params.flat[offset + 2 * 8 + 3] == 17.5

    def test_set_named_writes_through(self):
        params = D.init_params(small_config(), np.random.default_rng(34))
        # head_uv.b2 is the last entry of the layout
        view = dict(params.named_arrays())["head_uv.b2"]
        params.set_named("head_uv.b2", np.array([0.25, -4.0]))
        assert np.array_equal(view, [0.25, -4.0])
        assert np.array_equal(params.heads["uv"].b2, [0.25, -4.0])
        assert np.array_equal(params.flat[-2:], [0.25, -4.0])

    def test_copy_is_independent(self):
        params = D.init_params(small_config(), np.random.default_rng(35))
        before = params.flat.copy()
        clone = params.copy()
        assert np.array_equal(clone.flat, before)
        params.query[0] = 9.0
        clone.layers[0].w_q[0, 0] = -9.0
        assert clone.query[0] == before[0]
        assert params.layers[0].w_q[0, 0] == before[8]
        assert not np.shares_memory(clone.flat, params.flat)

    def test_vector_adam_equals_per_name_update(self):
        # The first steps get fresh scratch; the rest reuse one pair.
        rng = np.random.default_rng(36)
        cfg = D.TrainConfig(lr=3e-3)
        vector = D.init_params(small_config(), rng)
        named = vector.copy()
        m, v = np.zeros_like(vector.flat), np.zeros_like(vector.flat)
        state = {"step": 0, "m": {}, "v": {}}
        for step in range(1, 61):
            grad = D.DecoderParams(vector.config, rng.standard_normal(vector.flat.size))
            before = grad.flat.copy()
            if step <= 3:
                scratch = np.empty_like(vector.flat), np.empty_like(vector.flat)
            D._adam_step(vector.flat, grad.flat, m, v, step, cfg.lr, scratch)
            assert np.array_equal(grad.flat, before)
            reference_adam(named, dict(grad.named_arrays()), state, cfg)
            assert np.array_equal(vector.flat, named.flat)


class TestStackedDataset:
    """``train`` checks its (N, T, d) embeddings and (N, 12) targets."""

    def test_wrong_d_model_rejected(self):
        rng = np.random.default_rng(38)
        params = D.init_params(small_config(), rng)
        embeddings, targets = tiny_dataset(rng, n=4)
        with pytest.raises(ShapeMismatch, match="embeddings"):
            D.train(embeddings[:, :, :6], targets, params, D.TrainConfig(epochs=1))

    @pytest.mark.parametrize("shape", [(4, 11), (3, 12), (4,), (4, 12, 1)])
    def test_targets_not_n_by_12_rejected(self, shape):
        rng = np.random.default_rng(39)
        params = D.init_params(small_config(), rng)
        embeddings, _ = tiny_dataset(rng, n=4)
        with pytest.raises(ShapeMismatch, match="targets"):
            D.train(embeddings, np.zeros(shape), params, D.TrainConfig(epochs=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, value):
        rng = np.random.default_rng(40)
        params = D.init_params(small_config(), rng)
        embeddings, targets = tiny_dataset(rng, n=4)
        embeddings[2, 1, 3] = value
        with pytest.raises(MalformedSequence, match="non-finite"):
            D.train(embeddings, targets, params, D.TrainConfig(epochs=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, value):
        rng = np.random.default_rng(41)
        params = D.init_params(small_config(), rng)
        embeddings, targets = tiny_dataset(rng, n=4)
        targets[2, 7] = value
        targets[3, 0] = value
        with pytest.raises(ValueError, match="target 2 is not finite"):
            D.train(embeddings, targets, params, D.TrainConfig(epochs=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_loss_and_backward_reject_a_non_finite_target_as_train_does(self, value):
        rng = np.random.default_rng(43)
        params = D.init_params(small_config(), rng)
        seq, raw, target = make_sequence(rng), make_target(rng), make_target(rng)
        target[3] = value
        for call in (lambda: D.loss(raw, target), lambda: D.backward(seq, params, target),
                     lambda: D.train(seq[None], target[None], params, D.TrainConfig(epochs=1))):
            with pytest.raises(ValueError, match=r"^target 0 is not finite$"):
                call()


def _poke(x, value):
    """A copy of x whose last sequence holds value at token 2, column 5."""
    y = x.copy()
    y.reshape(-1, *y.shape[-2:])[-1, 2, 5] = value
    return y


class TestSequenceEntryCheck:
    """forward, predict and backward take one sequence (T, d), predict_batch
    and train a stack (N, T, d), and each rejects a bad one alike."""

    @pytest.mark.parametrize("edit, error", [
        (lambda x: x[None], ShapeMismatch),
        (lambda x: x[0], ShapeMismatch),
        (lambda x: x[..., :6], ShapeMismatch),
        (lambda x: x[..., :0, :], ShapeMismatch),
        (lambda x: _poke(x, np.nan), MalformedSequence),
        (lambda x: _poke(x, np.inf), MalformedSequence),
        (lambda x: _poke(x, -np.inf), MalformedSequence),
    ], ids=["rank-up", "rank-down", "width", "zero-tokens", "nan", "inf", "-inf"])
    def test_every_entry_rejects_alike(self, edit, error):
        rng = np.random.default_rng(42)
        params = D.init_params(small_config(), rng)
        target = make_target(rng)
        one = {
            "forward": lambda x: D.forward(x, params),
            "predict": lambda x: D.predict(x, params),
            "backward": lambda x: D.backward(x, params, target),
        }
        stacked = {
            "predict_batch": lambda x: D.predict_batch(x, params),
            "train": lambda x: D.train(x, np.tile(target, (len(x), 1)), params, D.TrainConfig(epochs=1)),
        }
        seq, stack = make_sequence(rng), rng.standard_normal((3, 5, 8))
        for entries, x in ((one, seq), (stacked, stack)):
            for name, call in entries.items():
                call(x)
                with pytest.raises(error, match="embeddings"):
                    call(edit(x))
                    pytest.fail(f"{name} took {edit(x).shape}")
