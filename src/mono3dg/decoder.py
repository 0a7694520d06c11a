"""Desk-scale token decoder: query substitution, self-attention stack,
regression heads, L1 loss, hand-written backprop, and Adam training.

A token sequence is its (T, d) float64 embeddings, and N of them stack as
(N, T, d); the last token is the query slot. :func:`_sequences` checks
every sequence input, and :func:`substitute_query` alone writes the
learnable query vector into the slot. The slot's final hidden state f3d
feeds four small MLP heads (center projection, sizes, virtual depth, 6D
rotation). Layers are causal single-head self-attention + feed-forward,
both with residual connections and no normalization, so gradients stay
exactly checkable against finite differences. Heads and feed-forward
blocks share one MLP form (:func:`_mlp`/:func:`_mlp_backward`) and
prediction and training one head forward (:func:`_heads`). The heads read
the query row alone, so the last layer's feed-forward block activates that
row alone, forward and backward; its products keep their full (..., T, .)
shape, so the query row keeps the bits of an every-row pass.
:func:`predict_batch` drops each layer's activations once the next layer
has run, and runs the heads once over all its queries. A training
step over a stacked (B, T, d) minibatch runs the stack forward, the head
step :func:`_l1_head_step` (losses and the gradient on f3d), then the
stack backward. Every parameter lives in one flat vector. scipy is the
decoder's alone (gelu's ``erf``); :func:`_gelu` imports it on the first
forward pass, so ``project``, ``synth`` and ``evaluate`` never load it.
:func:`attention` and :func:`attention_backward` are the one softmax
attention of the package; the fusion block's cross-branch attention uses
them too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import EmptyDataset, MalformedSequence, SchemaError, ShapeMismatch, reject_first
from .jsonio import array_template, check_finite, dumps_canonical, loads_strict, object_template

_MASK_VALUE = -1e30


# A raw row holds one query's head outputs, the RAW_FIELDS and then the 6D
# rotation row (see :mod:`rotation`), at these slots; N queries are
# (N, RAW_WIDTH) rows.
RAW_FIELDS = ("u_norm", "v_norm", "d_v", "L", "W", "H")
RAW_WIDTH = 12
UV, D_V, SIZE, ROT6D = slice(0, 2), 2, slice(3, 6), slice(6, 12)


def raw_row(raw) -> np.ndarray:
    """One query's raw head outputs as a float64 (RAW_WIDTH,) row; raises
    ShapeMismatch for any other shape."""
    row = np.asarray(raw, dtype=float)
    if row.shape != (RAW_WIDTH,):
        raise ShapeMismatch(f"raw head outputs {row.shape} vs ({RAW_WIDTH},)")
    return row


def _finite_targets(targets: np.ndarray) -> np.ndarray:
    """(N, RAW_WIDTH) targets, once each is finite; raises ValueError naming the first that is not."""
    reject_first(~np.isfinite(targets).all(axis=1), np.arange(len(targets)), ValueError, "target {} is not finite")
    return targets


# -- parameters ---------------------------------------------------------------


@dataclass(frozen=True)
class MLPParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class LayerParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray

    @property
    def ff(self) -> MLPParams:
        """The feed-forward block's weights, as views of the ``ff_*`` arrays."""
        return MLPParams(self.ff_w1, self.ff_b1, self.ff_w2, self.ff_b2)


@dataclass
class DecoderConfig:
    d_model: int = 32
    n_layers: int = 2
    d_ff: int = 64
    head_hidden: int = 32

    def __post_init__(self):
        """Raise SchemaError naming ``config.<field>`` for a width below 1 or
        a negative ``n_layers``: a zero width has no checkpoint form."""
        for name, value in self.to_json().items():
            least = 0 if name == "n_layers" else 1
            if value < least:
                raise SchemaError(f"config.{name}", f"{value!r} is not an integer >= {least}")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj) -> "DecoderConfig":
        """The config :meth:`to_json` wrote. Raises SchemaError naming
        ``config`` when obj is not an object with exactly these fields, and
        ``config.<field>`` when a field is not a JSON integer or is below
        its least value, as construction does."""
        fields = DecoderConfig.__dataclass_fields__
        if not isinstance(obj, dict) or obj.keys() != fields.keys():
            raise SchemaError("config", f"not an object of the fields {', '.join(fields)}")
        for name, value in obj.items():
            if type(value) is not int:
                raise SchemaError(f"config.{name}", f"{value!r} is not a JSON integer")
        return DecoderConfig(**obj)


_HEAD_DIMS = {"uv": 2, "lwh": 3, "d": 1, "rot": 6}
_LAYER_NAMES = tuple(LayerParams.__dataclass_fields__)
_MLP_NAMES = tuple(MLPParams.__dataclass_fields__)


def _layout(config: DecoderConfig) -> list:
    """(name, shape) of every parameter, in checkpoint and flat-vector order."""
    d, f, h = config.d_model, config.d_ff, config.head_hidden
    entries = [("query", (d,))]
    for i in range(config.n_layers):
        shapes = ((d, d), (d, d), (d, d), (d, d), (d, f), (f,), (f, d), (d,))
        entries += [(f"layer{i}.{name}", shape) for name, shape in zip(_LAYER_NAMES, shapes)]
    for head, out in sorted(_HEAD_DIMS.items()):
        shapes = ((d, h), (h,), (h, out), (out,))
        entries += [(f"head_{head}.{name}", shape) for name, shape in zip(_MLP_NAMES, shapes)]
    return entries


class DecoderParams:
    """Every decoder parameter in one contiguous float64 vector, ``flat``.

    ``query``, ``layers[i].<name>`` and ``heads[<head>].<name>`` are
    contiguous reshaped views into ``flat``, so an in-place write to any of
    them writes the vector. Gradients use the same layout.
    """

    def __init__(self, config: DecoderConfig, flat: np.ndarray | None = None):
        layout = _layout(config)
        sizes = [math.prod(shape) for _, shape in layout]
        flat = np.zeros(sum(sizes)) if flat is None else flat
        if flat.dtype != np.float64 or flat.shape != (sum(sizes),) or not flat.flags.c_contiguous:
            raise ShapeMismatch(f"parameters {flat.dtype}{flat.shape} vs float64 ({sum(sizes)},)")
        self.config = config
        self.flat = flat
        pieces = np.split(flat, np.cumsum(sizes)[:-1])
        self._views = {name: piece.reshape(shape) for (name, shape), piece in zip(layout, pieces)}
        self.layers = [
            LayerParams(*(self._views[f"layer{i}.{name}"] for name in _LAYER_NAMES))
            for i in range(config.n_layers)
        ]
        self.heads = {
            head: MLPParams(*(self._views[f"head_{head}.{name}"] for name in _MLP_NAMES))
            for head in _HEAD_DIMS
        }

    @property
    def query(self) -> np.ndarray:
        return self._views["query"]

    def named_arrays(self):
        """Deterministic (name, view) iteration over every parameter."""
        return iter(self._views.items())

    def set_named(self, name: str, value: np.ndarray) -> None:
        self._views[name][...] = value

    def copy(self) -> "DecoderParams":
        return DecoderParams(replace(self.config), self.flat.copy())


def init_params(config: DecoderConfig, rng: np.random.Generator) -> DecoderParams:
    params = DecoderParams(config)
    weights = [getattr(layer, name) for layer in params.layers
               for name in ("w_q", "w_k", "w_v", "w_o", "ff_w1", "ff_w2")]
    weights += [w for mlp in params.heads.values() for w in (mlp.w1, mlp.w2)] + [params.query]
    # biases stay zero; draw order is layers, heads, then the query
    for w in weights:
        w[...] = 0.1 * rng.standard_normal(w.shape)
    return params


# -- activations ---------------------------------------------------------------


def _gelu(x: np.ndarray):
    """gelu(x) and its term 1 + erf(x/sqrt(2)), which :func:`_mlp_backward` reuses."""
    from scipy.special import erf

    term = 1.0 + erf(x / math.sqrt(2.0))
    return 0.5 * x * term, term


def gelu(x: np.ndarray) -> np.ndarray:
    return _gelu(x)[0]


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


# -- forward -------------------------------------------------------------------
# The stack runs on one sequence (T, d) or on a stacked minibatch (B, T, d).


def _sequences(x, d_model: int, ndim: int) -> np.ndarray:
    """x as float64 token sequences of rank ndim: one sequence (T, d_model)
    when ndim is 2, a stack (N, T, d_model) when 3. Raises ShapeMismatch for
    another rank or width or for zero tokens, and MalformedSequence for a
    non-finite entry."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != d_model or x.shape[-2] == 0:
        expected = ("N, " if ndim == 3 else "") + f"T >= 1, {d_model}"
        raise ShapeMismatch(f"embeddings {x.shape} vs ({expected})")
    if not np.isfinite(x).all():
        raise MalformedSequence("embeddings contain non-finite values")
    return x


def substitute_query(x: np.ndarray, query: np.ndarray) -> np.ndarray:
    """A C-ordered copy of the sequences x [..., T, d] whose last token, the
    query slot, is the learnable query vector (d,)."""
    query = np.asarray(query, dtype=float)
    x = np.array(x, dtype=float, order="C")
    if query.shape != x.shape[-1:]:
        raise ShapeMismatch(f"query vector {query.shape} vs d_model {x.shape[-1]}")
    x[..., -1, :] = query
    return x


def attention(x_q: np.ndarray, x_kv: np.ndarray, w_q, w_k, w_v, mask=None):
    """softmax(Q K^T / sqrt(d_k)) V over [..., T, d] inputs, with Q = x_q w_q,
    K = x_kv w_k and V = x_kv w_v; masked logits (where ``mask`` holds) get no
    weight. Returns the output and the cache :func:`attention_backward` needs."""
    q = x_q @ w_q
    k = x_kv @ w_k
    v = x_kv @ w_v
    logits = q @ k.swapaxes(-1, -2) / math.sqrt(w_q.shape[-1])
    if mask is not None:
        logits = np.where(mask, _MASK_VALUE, logits)
    logits -= logits.max(axis=-1, keepdims=True)
    attn = np.exp(logits)
    attn /= attn.sum(axis=-1, keepdims=True)
    return attn @ v, (q, k, v, attn)


def attention_backward(d_out: np.ndarray, cache):
    """Gradients of sum(out * d_out) with respect to Q, K and V."""
    q, k, v, attn = cache
    d_attn = d_out @ v.swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ d_out
    d_logits = attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
    d_logits /= math.sqrt(q.shape[-1])
    return d_logits @ k, d_logits.swapaxes(-1, -2) @ q, d_v


def _mlp(x: np.ndarray, mlp: MLPParams, query_only: bool = False):
    """gelu(x w1 + b1) w2 on rows (..., T, d) and the cache
    :func:`_mlp_backward` needs. The caller adds b2, so a residual block
    keeps its order of addition. With query_only, gelu runs on the last
    (query) row alone and the other rows' hidden units are 0; both products
    keep their full shape, whose rows BLAS computes independently, so the
    query row keeps its bits."""
    pre = x @ mlp.w1 + mlp.b1
    if query_only:
        hidden = np.zeros_like(pre)
        hidden[..., -1:, :], term = _gelu(pre[..., -1:, :])
    else:
        hidden, term = _gelu(pre)
    return hidden @ mlp.w2, (x, pre, term, hidden)


def _layer_forward(x: np.ndarray, layer: LayerParams, mask: np.ndarray, query_only: bool = False):
    summary, attn_cache = attention(x, x, layer.w_q, layer.w_k, layer.w_v, mask)
    attended = x + summary @ layer.w_o
    ff_out, ff_cache = _mlp(attended, layer.ff, query_only)
    return attended + ff_out + layer.ff_b2, (x, attn_cache, summary, ff_cache)


def _stack_forward(x: np.ndarray, params: DecoderParams, caches: list | None = None) -> np.ndarray:
    """The stack's output on x (..., T, d), exact on the query row: the heads
    read that row alone, so the last layer's feed-forward block activates no
    other. Appends each layer's cache to caches when given."""
    n = x.shape[-2]
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        x, cache = _layer_forward(x, layer, mask, query_only=i == last)
        if caches is not None:
            caches.append(cache)
    return x


def forward(x: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Run the decoder stack on one sequence (T, d) with the query in its
    slot; returns the query slot's final hidden state."""
    x = substitute_query(_sequences(x, params.config.d_model, 2), params.query)
    return _stack_forward(x, params)[-1].copy()


def _heads(f3d: np.ndarray, params: DecoderParams):
    """The raw rows (..., RAW_WIDTH) the four head MLPs regress from f3d
    (..., d), with their pre-activations and caches for :func:`_l1_head_step`."""
    zs, caches = {}, {}
    for name, mlp in params.heads.items():
        out, caches[name] = _mlp(f3d, mlp)
        zs[name] = out + mlp.b2
    raw = np.concatenate([sigmoid(zs["uv"]), softplus(zs["d"]), softplus(zs["lwh"]), zs["rot"]], axis=-1)
    return raw, zs, caches


def heads(f3d: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Regress all geometric quantities, as a raw row, from the single 3D
    feature vector (d_model,). Raises ShapeMismatch for another shape and
    MalformedSequence for a non-finite entry."""
    f3d = np.asarray(f3d, dtype=float)
    if f3d.shape != (params.config.d_model,):
        raise ShapeMismatch(f"f3d {f3d.shape} vs ({params.config.d_model},)")
    if not np.isfinite(f3d).all():
        raise MalformedSequence("f3d contains non-finite values")
    return _heads(f3d, params)[0]


# Queries per forward pass in predict_batch. A pass drops each layer's
# activations once the next layer has run, and keeps only the query rows.
_PREDICT_CHUNK = 32


def predict_batch(embeddings: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Predicted head outputs as (N, RAW_WIDTH) raw rows, of N stacked
    sequences (N, T, d) whose last position is the query slot."""
    embeddings = _sequences(embeddings, params.config.d_model, 3)
    # (N, 1, d): the heads see a one-token sequence per query, as in training
    f3d = np.empty((len(embeddings), 1, params.config.d_model))
    for start in range(0, len(embeddings), _PREDICT_CHUNK):
        x = substitute_query(embeddings[start : start + _PREDICT_CHUNK], params.query)
        f3d[start : start + len(x)] = _stack_forward(x, params)[:, -1:]
    return _heads(f3d, params)[0][:, 0]


def predict(x: np.ndarray, params: DecoderParams) -> np.ndarray:
    """:func:`predict_batch` for one sequence (T, d)."""
    return predict_batch(_sequences(x, params.config.d_model, 2)[None], params)[0]


def loss(raw: np.ndarray, target: np.ndarray) -> float:
    """Unit-weight L1 over all twelve regressed components of two raw rows.
    A non-finite target raises ValueError, as in :func:`train`."""
    return float(np.abs(raw_row(raw) - _finite_targets(raw_row(target)[None])[0]).sum())


# -- backward ------------------------------------------------------------------


def _sample_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading sample axis strictly in sample order, so a batch
    gradient equals the running sum of per-sample gradients bit for bit.

    The sample axis must be the outermost in memory, as it is for every
    gradient here. ``np.add.reduce`` then adds whole rows in sample order,
    unless a row has one element: that leaves a 1-D reduce, which numpy adds
    pairwise, and there ``np.add.accumulate`` is sequential by definition.
    The reduce starts from -0.0, the exact additive identity, so a sum of
    negative zeros stays negative as it does in a loop from ``a[0]``.
    """
    if a.size == len(a):
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(a, axis=0, initial=-0.0)


def _batch_sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over samples of a[s].T @ b[s], added in sample order."""
    return _sample_sum(a.swapaxes(1, 2) @ b)


def _mlp_backward(d_out: np.ndarray, mlp: MLPParams, cache, grads: MLPParams) -> np.ndarray:
    """Write the batch-summed gradients of :func:`_mlp` plus b2 on (B, T, .)
    rows, given d_out on its output, into grads; return the gradient on x."""
    x, pre, term, hidden = cache
    grads.b2[...] = _sample_sum(d_out.sum(axis=1))
    grads.w2[...] = _batch_sum_outer(hidden, d_out)
    # gelu ran on the last term.shape[-2] rows: all of them, or the query
    # row alone, where d_out is 0 on the others and so is d_pre
    rows = slice(-term.shape[-2], None)
    act = pre[..., rows, :]
    d_pre = d_out @ mlp.w2.T
    d_pre[..., rows, :] *= 0.5 * term + act * np.exp(-0.5 * act * act) / math.sqrt(2.0 * math.pi)
    grads.b1[...] = _sample_sum(d_pre.sum(axis=1))
    grads.w1[...] = _batch_sum_outer(x, d_pre)
    return d_pre @ mlp.w1.T


def _l1_head_step(f3d: np.ndarray, params: DecoderParams, targets: np.ndarray, grads: DecoderParams):
    """The head step of training: the per-sample unit-weight L1 losses (B,)
    of the heads on f3d (B, 1, d) against targets (B, RAW_WIDTH), and the
    gradient of their sum on f3d. Writes every head gradient into grads."""
    pred, zs, caches = _heads(f3d, params)
    diff = pred - targets[:, None]
    losses = np.abs(diff).sum(axis=2)[:, 0]
    d_pred = np.sign(diff)
    # squash derivatives back to head pre-activations
    dz = {
        "uv": d_pred[..., UV] * pred[..., UV] * (1.0 - pred[..., UV]),
        "d": d_pred[..., D_V, None] * sigmoid(zs["d"]),
        "lwh": d_pred[..., SIZE] * sigmoid(zs["lwh"]),
        "rot": d_pred[..., ROT6D],
    }
    g_f3d = np.zeros_like(f3d)
    for name, mlp in params.heads.items():
        g_f3d += _mlp_backward(dz[name], mlp, caches[name], grads.heads[name])
    return losses, g_f3d


def _batch_backward(x: np.ndarray, params: DecoderParams, targets: np.ndarray, grads: DecoderParams):
    """Per-sample L1 losses and batch-summed gradients for a stacked minibatch.

    ``x`` is (B, T, d) with the query in the last position; ``targets`` is
    (B, 12). Each gradient equals the running sum of per-sample ``backward``.
    Every slot of ``grads`` is overwritten, so it needs no zeroing between
    calls.
    """
    caches = []
    x_final = _stack_forward(x, params, caches)
    # (B, 1, d): the heads see a one-token sequence per sample
    losses, g_f3d = _l1_head_step(x_final[:, -1:], params, targets, grads)

    g_x = np.zeros_like(x_final)
    g_x[:, -1:] = g_f3d
    for layer, g_layer, cache in zip(params.layers[::-1], grads.layers[::-1], caches[::-1]):
        x, attn_cache, summary, ff_cache = cache
        g_attended = g_x + _mlp_backward(g_x, layer.ff, ff_cache, g_layer.ff)
        g_layer.w_o[...] = _batch_sum_outer(summary, g_attended)
        d_q, d_k, d_v = attention_backward(g_attended @ layer.w_o.T, attn_cache)
        g_layer.w_q[...] = _batch_sum_outer(x, d_q)
        g_layer.w_k[...] = _batch_sum_outer(x, d_k)
        g_layer.w_v[...] = _batch_sum_outer(x, d_v)
        g_x = g_attended + d_q @ layer.w_q.T + d_k @ layer.w_k.T + d_v @ layer.w_v.T

    # the query fills the last slot of every sample
    grads.query[...] = _sample_sum(g_x[:, -1])
    return losses


def backward(x: np.ndarray, params: DecoderParams, target: np.ndarray):
    """Loss and analytic gradients for every parameter, query included, of
    one sequence (T, d) and its target raw row.

    The query substitution is applied internally, so the gradient that lands
    on the query slot's input embedding is the query gradient. A non-finite
    target raises ValueError, as in :func:`train`.
    """
    x = substitute_query(_sequences(x, params.config.d_model, 2), params.query)
    grads = DecoderParams(params.config)
    losses = _batch_backward(x[None], params, _finite_targets(raw_row(target)[None]), grads)
    return float(losses[0]), grads


# -- training ------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 500
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0


# Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _adam_step(flat, grad, m, v, t: int, lr: float, scratch) -> None:
    """Adam step number t on the parameter vector; flat, m and v change in place.

    Each operation is that of ``m += (1 - beta1) * grad``, ``v += (1 - beta2)
    * grad * grad`` and ``flat -= lr * m_hat / (sqrt(v_hat) + eps)``, in that
    order, written into ``scratch``: two vectors shaped like flat, which a
    loop of steps allocates once. grad is not modified.
    """
    s1, s2 = scratch
    m *= ADAM_BETA1
    np.multiply(1 - ADAM_BETA1, grad, out=s1)
    m += s1
    v *= ADAM_BETA2
    np.multiply(1 - ADAM_BETA2, grad, out=s1)
    s1 *= grad
    v += s1
    np.divide(m, 1 - ADAM_BETA1**t, out=s1)
    np.divide(v, 1 - ADAM_BETA2**t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 *= lr
    s1 /= s2
    flat -= s1


def train(embeddings: np.ndarray, targets: np.ndarray, params: DecoderParams, cfg: TrainConfig):
    """Adam-train on N stacked sequences (N, T, d), query slot last, and
    their targets as (N, RAW_WIDTH) raw rows.

    Each minibatch runs one batched forward/backward; its gradient is the
    mean over its samples. Deterministic given cfg.seed. Returns the trained
    parameters and the per-epoch mean training loss. A non-finite target
    raises ValueError naming its sample before the first step.
    """
    for name, value in (("epochs", cfg.epochs), ("batch_size", cfg.batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    embeddings = _sequences(embeddings, params.config.d_model, 3)
    targets = np.asarray(targets, dtype=float)
    n = len(embeddings)
    if n == 0:
        raise EmptyDataset("training requires at least one sample")
    if targets.shape != (n, RAW_WIDTH):
        raise ShapeMismatch(f"targets {targets.shape} vs ({n}, {RAW_WIDTH})")
    _finite_targets(targets)
    params = params.copy()
    rng = np.random.default_rng(cfg.seed)
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    scratch = np.empty_like(params.flat), np.empty_like(params.flat)
    grads = DecoderParams(params.config)
    step = 0
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        sample_losses = np.zeros(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = substitute_query(embeddings[batch], params.query)
            losses = _batch_backward(x, params, targets[batch], grads)
            sample_losses[batch] = losses
            grads.flat *= 1.0 / len(batch)
            step += 1
            _adam_step(params.flat, grads.flat, m, v, step, cfg.lr, scratch)
        # summed in sample order so the history is shuffle-independent
        history.append(float(sample_losses.sum()) / n)
    return params, history


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path: str | Path, params: DecoderParams, seed: int) -> None:
    """Write the config, the seed and every parameter as one JSON line: the
    bytes dumps_canonical gives for them, with the parameters, which are
    flat in named order, formatted in one % pass."""
    check_finite(params.flat)
    head = dumps_canonical({"config": params.config.to_json(), "seed": seed})
    body = object_template((name, array_template(arr.shape)) for name, arr in params.named_arrays())
    text = f'{head[:-1]},"params":{body % tuple(params.flat.tolist())}}}\n'
    Path(path).write_text(text, encoding="utf-8")


def load_checkpoint(path: str | Path) -> DecoderParams:
    """Read a checkpoint that :func:`save_checkpoint` wrote.

    Raises SchemaError naming ``config`` or ``config.<field>`` as
    :meth:`DecoderConfig.from_json` does, and ``params`` when the parameters
    are not an object. Raises it naming ``params.<name>`` when the checkpoint
    lacks a parameter of the layout or holds one the layout does not name,
    when a value's nested shape is not its layout shape, when an element is
    not a JSON number (a string or a bool, which float() would take) or is an
    integer too large for a float, and when a value is not finite.
    """
    payload = loads_strict(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "config" not in payload:
        raise SchemaError("config", "missing from the checkpoint")
    params = DecoderParams(DecoderConfig.from_json(payload["config"]))
    views, values = dict(params.named_arrays()), payload.get("params")
    if not isinstance(values, dict):
        raise SchemaError("params", "not an object of named parameters")
    if values.keys() != views.keys():
        for name in views:
            if name not in values:
                raise SchemaError(f"params.{name}", "missing from the checkpoint")
        unknown = next(name for name in values if name not in views)
        raise SchemaError(f"params.{unknown}", "not a parameter of the decoder")
    for name, arr in views.items():
        # Objects keep each element's JSON type; a ragged list has the
        # wrong shape or a list among its elements.
        value = np.array(values[name], dtype=object)
        if value.shape != arr.shape:
            raise SchemaError(f"params.{name}", f"shape {value.shape}, layout {arr.shape}")
        odd = sorted(kind.__name__ for kind in set(map(type, value.ravel().tolist())) - {float, int})
        if odd:
            raise SchemaError(f"params.{name}", f"holds elements of type {', '.join(odd)}, not numbers")
        try:
            arr[...] = value
        except OverflowError as exc:
            raise SchemaError(f"params.{name}", "holds an integer beyond the float range") from exc
    if not np.isfinite(params.flat).all():
        name = next(name for name, arr in views.items() if not np.isfinite(arr).all())
        raise SchemaError(f"params.{name}", "holds a non-finite value")
    return params


def write_loss_history(path: str | Path, history: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(history):
            writer.writerow([epoch, format(value, ".17g")])
