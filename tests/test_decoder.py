import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def sequence_kinds(n_tokens):
    return (D.KIND_CAPTION,) + (D.KIND_IMAGE,) * (n_tokens - 3) + (D.KIND_POS, D.KIND_QUERY)


def make_sequence(rng, d_model=8, n_tokens=5):
    return D.TokenSequence(rng.standard_normal((n_tokens, d_model)), sequence_kinds(n_tokens))


def make_target(rng):
    return np.concatenate(
        [
            [rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.5, 4.0)],
            rng.uniform(0.3, 2.0, 3),
            rng.standard_normal(6),
        ]
    )


class TestTokenSequence:
    def test_valid(self):
        seq = make_sequence(np.random.default_rng(0))
        assert seq.query_position == 4

    def test_missing_pos_marker(self):
        with pytest.raises(MalformedSequence):
            D.TokenSequence(np.zeros((3, 4)), (D.KIND_CAPTION, D.KIND_IMAGE, D.KIND_QUERY))

    def test_two_query_slots(self):
        with pytest.raises(MalformedSequence):
            D.TokenSequence(
                np.zeros((4, 4)),
                (D.KIND_QUERY, D.KIND_CAPTION, D.KIND_POS, D.KIND_QUERY),
            )

    def test_pos_must_precede_query_at_tail(self):
        with pytest.raises(MalformedSequence):
            D.TokenSequence(
                np.zeros((4, 4)),
                (D.KIND_POS, D.KIND_CAPTION, D.KIND_IMAGE, D.KIND_QUERY),
            )
        with pytest.raises(MalformedSequence):
            D.TokenSequence(
                np.zeros((4, 4)),
                (D.KIND_CAPTION, D.KIND_POS, D.KIND_QUERY, D.KIND_IMAGE),
            )

    def test_non_finite_rejected(self):
        emb = np.zeros((3, 4))
        emb[0, 0] = np.nan
        with pytest.raises(MalformedSequence):
            D.TokenSequence(emb, (D.KIND_CAPTION, D.KIND_POS, D.KIND_QUERY))


class TestSubstituteQuery:
    def test_overwrites_slot_exactly(self):
        rng = np.random.default_rng(1)
        seq = make_sequence(rng)
        q = rng.standard_normal(8)
        out = D.substitute_query(seq, q)
        assert np.array_equal(out.embeddings[out.query_position], q)
        assert np.array_equal(out.embeddings[:-1], seq.embeddings[:-1])

    def test_original_slot_content_is_irrelevant(self):
        rng = np.random.default_rng(2)
        params = D.init_params(small_config(), rng)
        base = make_sequence(rng)
        reference = D.forward(D.substitute_query(base, params.query), params)
        for filler in (np.zeros(8), rng.standard_normal(8), 1e3 * np.ones(8)):
            emb = base.embeddings.copy()
            emb[-1] = filler
            seq = D.TokenSequence(emb, base.kinds)
            out = D.forward(D.substitute_query(seq, params.query), params)
            assert np.array_equal(out, reference)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng)
        q = rng.standard_normal(8)
        once = D.substitute_query(seq, q)
        twice = D.substitute_query(once, q)
        assert np.array_equal(once.embeddings, twice.embeddings)


def naive_forward(seq, params):
    """Independent reference: per-position loops, explicit causal softmax."""
    x = seq.embeddings.copy()
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
    return x[seq.query_position]


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
        emb = seq.embeddings.copy()
        emb[1] += 0.1
        bumped = D.TokenSequence(emb, seq.kinds)
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
    rows = [(make_sequence(rng).embeddings, make_target(rng)) for _ in range(n)]
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
    # All four heads consume the same single feature vector; a sequence can
    # never carry a second query slot.
    rng = np.random.default_rng(19)
    params = D.init_params(small_config(), rng)
    seq = make_sequence(rng)
    f3d = D.forward(D.substitute_query(seq, params.query), params)
    raw_direct = D.heads(f3d, params)
    raw_pipeline = D.predict(seq, params)
    assert raw_direct.tobytes() == raw_pipeline.tobytes()
    with pytest.raises(MalformedSequence):
        D.TokenSequence(
            np.zeros((5, 8)),
            (D.KIND_CAPTION, D.KIND_POS, D.KIND_QUERY, D.KIND_POS, D.KIND_QUERY),
        )


def reference_adam(params, grads, state, cfg):
    """The per-parameter Adam update, one named array at a time."""
    state["step"] += 1
    t = state["step"]
    for name, arr in params.named_arrays():
        g = grads[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(arr)
            state["v"][name] = np.zeros_like(arr)
        state["m"][name] = cfg.beta1 * state["m"][name] + (1 - cfg.beta1) * g
        state["v"][name] = cfg.beta2 * state["v"][name] + (1 - cfg.beta2) * g * g
        m_hat = state["m"][name] / (1 - cfg.beta1**t)
        v_hat = state["v"][name] / (1 - cfg.beta2**t)
        params.set_named(name, arr - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps))


def reference_train(embeddings, targets, params, cfg):
    """Per-sample backward on one TokenSequence per row, gradients
    accumulated by name, per-name Adam."""
    params = params.copy()
    rng = np.random.default_rng(cfg.seed)
    state = {"step": 0, "m": {}, "v": {}}
    history = []
    n = len(embeddings)
    kinds = sequence_kinds(embeddings.shape[1])
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        sample_losses = np.zeros(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            sums = {}
            for idx in batch:
                seq = D.TokenSequence(embeddings[idx], kinds)
                sample_losses[idx], grads = D.backward(seq, params, targets[idx])
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
        x = np.stack([D.substitute_query(seq, params.query).embeddings for seq, _ in samples])
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
        # The first steps allocate their own scratch; the rest reuse one pair.
        rng = np.random.default_rng(36)
        cfg = D.TrainConfig(lr=3e-3)
        vector = D.init_params(small_config(), rng)
        named = vector.copy()
        m, v = np.zeros_like(vector.flat), np.zeros_like(vector.flat)
        scratch = np.empty_like(vector.flat), np.empty_like(vector.flat)
        state = {"step": 0, "m": {}, "v": {}}
        for step in range(1, 61):
            grad = D.DecoderParams(vector.config, rng.standard_normal(vector.flat.size))
            before = grad.flat.copy()
            if step <= 3:
                D._adam_step(vector.flat, grad.flat, m, v, step, cfg)
            else:
                D._adam_step(vector.flat, grad.flat, m, v, step, cfg, scratch)
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
