"""Branch split, depth-map head, additive fusion, cross-branch attention.

Desk-scale realization of the feature-mining dataflow: the convolutional
stacks of the full model appear here as per-cell (1x1) linear maps, which
keeps every operation exactly checkable while preserving the branch
structure and supervision. Feature grids are (rows, cols, channels) float
arrays; token matrices are (tokens, channels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import attention, attention_backward, sigmoid, softplus
from .errors import EmptyValidMask, ShapeMismatch


@dataclass
class LinearMap:
    """Per-cell linear map (a 1x1 convolution): weight (c_in, c_out), bias (c_out,)."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class DepthMap:
    """Per-cell depths in meters with a validity mask."""

    data: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if np.shape(self.valid) != np.shape(self.data):
            raise ShapeMismatch(f"valid mask {np.shape(self.valid)} vs depths {np.shape(self.data)}")

    @staticmethod
    def dense(data: np.ndarray) -> "DepthMap":
        data = np.asarray(data, dtype=float)
        return DepthMap(data, np.ones(data.shape, dtype=bool))


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


def apply_linear_map(grid: np.ndarray, m: LinearMap) -> np.ndarray:
    grid = _check_grid(grid, "feature grid")
    if grid.shape[2] != m.weight.shape[0]:
        raise ShapeMismatch(
            f"grid has {grid.shape[2]} channels, map expects {m.weight.shape[0]}"
        )
    return grid @ m.weight + m.bias


def branch_split(f_local: np.ndarray, spatial_map: LinearMap, rgb_map: LinearMap):
    """Split the local features into the spatial branch and the RGB branch."""
    return apply_linear_map(f_local, spatial_map), apply_linear_map(f_local, rgb_map)


def _depth_logits(f_spatial: np.ndarray, depth_map_params: LinearMap) -> np.ndarray:
    """The depth head's one channel before softplus, (rows, cols)."""
    out = apply_linear_map(f_spatial, depth_map_params)
    if out.shape[2] != 1:
        raise ShapeMismatch(f"depth head must emit 1 channel, got {out.shape[2]}")
    return out[:, :, 0]


def depth_head(f_spatial: np.ndarray, depth_map_params: LinearMap) -> DepthMap:
    """Project each cell to one channel and squash through softplus so the
    predicted depth is positive everywhere."""
    return DepthMap.dense(softplus(_depth_logits(f_spatial, depth_map_params)))


def depth_l1_loss(pred: DepthMap, gt: DepthMap) -> float:
    if pred.data.shape != gt.data.shape:
        raise ShapeMismatch(f"depth maps differ: {pred.data.shape} vs {gt.data.shape}")
    valid = pred.valid & gt.valid
    if not valid.any():
        raise EmptyValidMask("no jointly valid cells to supervise")
    return float(np.mean(np.abs(pred.data[valid] - gt.data[valid])))


def depth_head_loss_grads(
    f_spatial: np.ndarray, depth_map_params: LinearMap, gt: DepthMap
) -> LinearMap:
    """Analytic gradient of depth_l1_loss(depth_head(...), gt) w.r.t. the head."""
    f_spatial = _check_grid(f_spatial, "spatial features")
    z = _depth_logits(f_spatial, depth_map_params)
    if z.shape != gt.data.shape:
        raise ShapeMismatch(f"depth maps differ: {z.shape} vs {gt.data.shape}")
    pred = softplus(z)
    valid = gt.valid
    if not valid.any():
        raise EmptyValidMask("no jointly valid cells to supervise")
    n = int(np.count_nonzero(valid))
    dz = np.where(valid, np.sign(pred - gt.data) * sigmoid(z) / n, 0.0)
    cells = f_spatial.reshape(-1, f_spatial.shape[2])
    dz_flat = dz.reshape(-1, 1)
    return LinearMap(weight=cells.T @ dz_flat, bias=dz_flat.sum(axis=0))


def add_fuse(f_spatial: np.ndarray, f_rgb: np.ndarray) -> np.ndarray:
    f_spatial = _check_grid(f_spatial, "spatial branch")
    f_rgb = _check_grid(f_rgb, "rgb branch")
    if f_spatial.shape != f_rgb.shape:
        raise ShapeMismatch(f"branch shapes differ: {f_spatial.shape} vs {f_rgb.shape}")
    return f_spatial + f_rgb


def _attention_inputs(t_vit: np.ndarray, f_sl: np.ndarray, params: AttentionParams):
    """The token matrix and the flattened (cells, channels) grid, checked
    against the projections."""
    t_vit = np.asarray(t_vit, dtype=float)
    f_sl = _check_grid(f_sl, "spatial-local features")
    if t_vit.ndim != 2:
        raise ShapeMismatch(f"token matrix must be 2D, got {t_vit.shape}")
    channels = f_sl.shape[2]
    if t_vit.shape[1] != params.w_q.shape[0] or channels != params.w_k.shape[0]:
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
