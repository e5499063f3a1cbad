"""Transformer encoder building blocks on top of the autodiff tensors.

Everything operates on (seq, dim) matrices, or on a (batch, seq, dim) stack
of them that runs through each op at once.  Padding positions are removed
with an additive key mask inside the attention softmax and must additionally
be excluded from any pooling by the caller.  A (seq, seq) mask instead gives
each row its own keys, so several independent sequences can share one
block-diagonal pass; a (batch, seq, seq) mask gives each sequence of a stack
its own.

Parameters live in one flat name -> Tensor dict: a layer reads its weights
as params[f"{prefix}.<name>"] and its head count from their shapes, and
encoder_layer_layout declares those names, shapes and initialisations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import Tensor, add, layer_norm, matmul, mul, relu, softmax, transpose

MASK_NEG = -1e9


@dataclass(frozen=True)
class ParamSpec:
    """A shape and initial value: standard normals times scale, or fill where scale is None."""

    shape: tuple[int, ...]
    scale: float | None = None
    fill: float = 0.0

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return np.full(self.shape, self.fill) if self.scale is None else rng.standard_normal(self.shape) * self.scale


def dense(rows: int, cols: int) -> ParamSpec:
    """A (rows, cols) weight drawn at scale 1/sqrt(rows)."""
    return ParamSpec((rows, cols), 1.0 / np.sqrt(rows))


def init_params(layout: Iterator[tuple[str, ParamSpec]], rng: np.random.Generator) -> dict[str, Tensor]:
    """Every parameter of a layout of (name, spec) pairs, drawn from rng in order."""
    return {name: Tensor(spec.draw(rng), requires_grad=True) for name, spec in layout}


def encoder_layer_layout(prefix: str, dim: int, n_heads: int, ff_dim: int) -> Iterator[tuple[str, ParamSpec]]:
    """One encoder layer's (name, spec) pairs in draw order: {prefix}.h{i}.wq/wk/wv/wo
    per head, then {prefix}.ff_* and {prefix}.ln*_*.  Each head's wo is
    (head_dim, dim): per-head outputs are projected and summed."""
    if dim % n_heads != 0:
        raise ValueError(f"model dim {dim} not divisible by {n_heads} heads")
    head_dim = dim // n_heads
    for i in range(n_heads):
        for name in ("wq", "wk", "wv"):
            yield f"{prefix}.h{i}.{name}", dense(dim, head_dim)
        yield f"{prefix}.h{i}.wo", dense(head_dim, dim)
    yield f"{prefix}.ff_w1", dense(dim, ff_dim)
    yield f"{prefix}.ff_b1", ParamSpec((ff_dim,))
    yield f"{prefix}.ff_w2", dense(ff_dim, dim)
    yield f"{prefix}.ff_b2", ParamSpec((dim,))
    for norm in ("ln1", "ln2"):
        yield f"{prefix}.{norm}_gain", ParamSpec((dim,), fill=1.0)
        yield f"{prefix}.{norm}_bias", ParamSpec((dim,))


def _mask_bias(key_mask: np.ndarray | None, x_shape: tuple[int, ...]) -> Tensor | None:
    """Additive attention bias: 0 where kept, MASK_NEG where masked.  A
    (seq,) key mask applies to every query row; a (seq, seq) mask gives each
    query row its own keys; a (batch, seq, seq) mask gives each sequence of
    a (batch, seq, dim) input its own (seq, seq) mask."""
    if key_mask is None:
        return None
    key_mask = np.asarray(key_mask, dtype=np.float64)
    seq_len = x_shape[-2]
    if key_mask.shape not in ((seq_len,), (seq_len, seq_len), x_shape[:-2] + (seq_len, seq_len)):
        raise ValueError(f"key mask shape {key_mask.shape} does not match input shape {x_shape}")
    return Tensor((1.0 - key_mask) * MASK_NEG)


def multi_head_self_attention(
    x: Tensor, params: dict[str, Tensor], prefix: str, key_mask: np.ndarray | None = None
) -> Tensor:
    """Scaled dot-product self-attention; per-head results are projected back
    to model dim and summed (equivalent to concat followed by one output
    projection)."""
    dim, head_dim = params[f"{prefix}.h0.wq"].shape
    scale = Tensor(1.0 / np.sqrt(head_dim))
    bias = _mask_bias(key_mask, x.shape)
    out = None
    for head in (f"{prefix}.h{i}" for i in range(dim // head_dim)):
        q = matmul(x, params[f"{head}.wq"])
        k = matmul(x, params[f"{head}.wk"])
        v = matmul(x, params[f"{head}.wv"])
        scores = mul(matmul(q, transpose(k)), scale)
        if bias is not None:
            scores = add(scores, bias)
        attn = softmax(scores, axis=-1)
        projected = matmul(matmul(attn, v), params[f"{head}.wo"])
        out = projected if out is None else add(out, projected)
    return out


def transformer_encoder_layer(
    x: Tensor, params: dict[str, Tensor], prefix: str, key_mask: np.ndarray | None = None
) -> Tensor:
    """Attention sublayer with residual + layer norm, then a position-wise
    feed-forward sublayer with residual + layer norm.  Reads the weights of
    encoder_layer_layout(prefix, ...) from params."""
    p = f"{prefix}."
    attended = multi_head_self_attention(x, params, prefix, key_mask=key_mask)
    x1 = layer_norm(add(x, attended), params[p + "ln1_gain"], params[p + "ln1_bias"])
    hidden = relu(add(matmul(x1, params[p + "ff_w1"]), params[p + "ff_b1"]))
    ff = add(matmul(hidden, params[p + "ff_w2"]), params[p + "ff_b2"])
    return layer_norm(add(x1, ff), params[p + "ln2_gain"], params[p + "ln2_bias"])


def masked_mean_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over rows where mask is 1: a (seq,) mask over (seq, dim) rows
    gives a (1, dim) tensor, a (batch, seq) mask over a (batch, seq, dim)
    stack a (batch, 1, dim) one."""
    mask = np.asarray(mask, dtype=np.float64)
    kept = mask.sum(axis=-1, keepdims=True)
    if (kept == 0).any():
        raise ValueError("masked mean over an empty selection")
    weights = Tensor((mask / kept)[..., None, :])
    return matmul(weights, x)
