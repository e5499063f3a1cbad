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

An encoder layer is one graph node, not the ~31 of its ops: its forward runs
in numpy and keeps only what its hand-written backward reads, and that
backward applies the autodiff ops' adjoints in the tape's order, so values
and gradients equal the composed graph's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import (
    Tensor,
    _accumulate,
    _make,
    _swap_last,
    _unbroadcast,
    layer_norm_backward,
    layer_norm_data,
    matmul,
    softmax_data,
    softmax_grad,
)

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


def _mask_bias(key_mask: np.ndarray | None, x_shape: tuple[int, ...]) -> np.ndarray | None:
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
    return (1.0 - key_mask) * MASK_NEG


def transformer_encoder_layer(
    x: Tensor, params: dict[str, Tensor], prefix: str, key_mask: np.ndarray | None = None
) -> Tensor:
    """Multi-head self-attention with residual + layer norm, then a
    position-wise feed-forward sublayer with residual + layer norm, as one
    graph node.  Reads the weights of encoder_layer_layout(prefix, ...) from
    params.  Each head runs scaled dot-product attention, and its result is
    projected back to model dim by its own wo and summed (equivalent to
    concat followed by one output projection).

    The forward is the composition of the autodiff ops (matmul, softmax,
    layer_norm, ...) in numpy, and the backward applies each op's adjoint in
    the order the tape would: into x the residual first, then each head's
    wq, wk and wv products in head order; into the first layer norm's output
    the residual, then the feed-forward product.  Gradients therefore equal
    the composed graph's bit for bit."""
    p = f"{prefix}."
    dim, head_dim = params[p + "h0.wq"].shape
    heads = [tuple(params[f"{p}h{i}.{name}"] for name in ("wq", "wk", "wv", "wo")) for i in range(dim // head_dim)]
    gain1, shift1, w1, b1, w2, b2, gain2, shift2 = (
        params[p + name] for name in ("ln1_gain", "ln1_bias", "ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln2_gain", "ln2_bias")
    )
    scale = 1.0 / np.sqrt(head_dim)
    bias = _mask_bias(key_mask, x.shape)

    saved = []  # per head: (q, k, v, attention weights, weighted values)
    attended = None
    for wq, wk, wv, wo in heads:
        q, k, v = x.data @ wq.data, x.data @ wk.data, x.data @ wv.data
        scores = (q @ _swap_last(k)) * scale
        if bias is not None:
            scores = scores + bias
        attn = softmax_data(scores)
        av = attn @ v
        projected = av @ wo.data
        attended = projected if attended is None else attended + projected
        saved.append((q, k, v, attn, av))
    x1, normed1, inv_std1 = layer_norm_data(x.data + attended, gain1.data, shift1.data)
    pre = x1 @ w1.data + b1.data
    hidden = pre * (pre > 0).astype(np.float64)
    out_data, normed2, inv_std2 = layer_norm_data(x1 + (hidden @ w2.data + b2.data), gain2.data, shift2.data)

    def backward(grad):
        d_r2 = layer_norm_backward(grad, gain2, shift2, normed2, inv_std2)
        _accumulate(b2, _unbroadcast(d_r2, b2.shape))
        _accumulate(w2, _unbroadcast(_swap_last(hidden) @ d_r2, w2.shape))
        # relu passes the adjoint where its input was positive, as hidden is
        d_pre = (d_r2 @ _swap_last(w2.data)) * (hidden > 0)
        _accumulate(b1, _unbroadcast(d_pre, b1.shape))
        _accumulate(w1, _unbroadcast(_swap_last(x1) @ d_pre, w1.shape))
        d_x1 = d_r2 + d_pre @ _swap_last(w1.data)
        d_r1 = layer_norm_backward(d_x1, gain1, shift1, normed1, inv_std1)
        _accumulate(x, d_r1)
        for (wq, wk, wv, wo), (q, k, v, attn, av) in zip(heads, saved):
            _accumulate(wo, _unbroadcast(_swap_last(av) @ d_r1, wo.shape))
            d_av = d_r1 @ _swap_last(wo.data)
            d_scores = softmax_grad(d_av @ _swap_last(v), attn) * scale
            # d_k is the transpose of the adjoint of k's transpose
            for w, d in ((wq, d_scores @ k), (wk, _swap_last(_swap_last(q) @ d_scores)), (wv, _swap_last(attn) @ d_av)):
                _accumulate(w, _unbroadcast(_swap_last(x.data) @ d, w.shape))
                if x.requires_grad:
                    _accumulate(x, d @ _swap_last(w.data))

    parents = (x, *(w for head in heads for w in head), gain1, shift1, w1, b1, w2, b2, gain2, shift2)
    return _make(out_data, parents, backward, "transformer_encoder_layer")


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
