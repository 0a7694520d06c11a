"""Cross-branch attention: image tokens query a spatial feature grid.

Desk-scale form of the attention that closes the paper's spatial-enhanced
local feature mining. Feature grids are (rows, cols, channels) float
arrays; token matrices are (tokens, channels). The paper's branch split,
depth-map head and additive fusion, which build that grid, are not
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import attention, attention_backward
from .errors import ShapeMismatch


@dataclass
class AttentionParams:
    """Projection matrices, each (channels, d_k)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray


def _check_grid(grid: np.ndarray, name: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3:
        raise ShapeMismatch(f"{name} must be (rows, cols, channels), got {grid.shape}")
    return grid


def _attention_inputs(t_vit: np.ndarray, f_sl: np.ndarray, params: AttentionParams):
    """The token matrix and the flattened (cells, channels) grid, checked
    against the projections."""
    t_vit = np.asarray(t_vit, dtype=float)
    f_sl = _check_grid(f_sl, "spatial-local features")
    if t_vit.ndim != 2:
        raise ShapeMismatch(f"token matrix must be 2D, got {t_vit.shape}")
    channels = f_sl.shape[2]
    if t_vit.shape[1] != params.w_q.shape[0] or not (
        channels == params.w_k.shape[0] == params.w_v.shape[0]
    ):
        raise ShapeMismatch("projection input dims do not match features")
    if not (params.w_q.shape[1] == params.w_k.shape[1] == params.w_v.shape[1]):
        raise ShapeMismatch("W_Q/W_K/W_V must share d_k")
    return t_vit, f_sl.reshape(-1, channels)


def cross_branch_attention(
    t_vit: np.ndarray, f_sl: np.ndarray, params: AttentionParams
) -> np.ndarray:
    """Tokens query the flattened grid cells: softmax(Q K^T / sqrt(d_k)) V,
    through the decoder's :func:`attention`; output is (tokens, d_k)."""
    tokens, cells = _attention_inputs(t_vit, f_sl, params)
    return attention(tokens, cells, params.w_q, params.w_k, params.w_v)[0]


def cross_branch_attention_grads(
    t_vit: np.ndarray, f_sl: np.ndarray, params: AttentionParams, d_out: np.ndarray
) -> AttentionParams:
    """Gradients of sum(output * d_out) w.r.t. the three projections."""
    tokens, cells = _attention_inputs(t_vit, f_sl, params)
    _, cache = attention(tokens, cells, params.w_q, params.w_k, params.w_v)
    d_out = np.asarray(d_out, dtype=float)
    if d_out.shape != (tokens.shape[0], params.w_v.shape[1]):
        raise ShapeMismatch(f"upstream gradient shape {d_out.shape} is wrong")
    d_q, d_k, d_v = attention_backward(d_out, cache)
    return AttentionParams(w_q=tokens.T @ d_q, w_k=cells.T @ d_k, w_v=cells.T @ d_v)
