"""Transformer encoder building blocks on top of the autodiff tensors.

Everything operates on (seq, dim) matrices, or on a (batch, seq, dim) stack
of them that runs through each op at once.  Padding positions are removed
with an additive key mask inside the attention softmax and must additionally
be excluded from any pooling by the caller.  A (seq, seq) mask instead gives
each row its own keys, so several independent sequences can share one
block-diagonal pass; a (batch, seq, seq) mask gives each sequence of a stack
its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, layer_norm, matmul, mul, relu, softmax, transpose

MASK_NEG = -1e9


@dataclass
class AttentionHeadParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor  # (head_dim, dim); per-head outputs are projected and summed


@dataclass
class EncoderLayerParams:
    heads: list[AttentionHeadParams]
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def init_encoder_layer(dim: int, n_heads: int, ff_dim: int, rng: np.random.Generator) -> EncoderLayerParams:
    if dim % n_heads != 0:
        raise ValueError(f"model dim {dim} not divisible by {n_heads} heads")
    head_dim = dim // n_heads

    def w(rows, cols, scale):
        return Tensor(rng.standard_normal((rows, cols)) * scale, requires_grad=True)

    attn_scale = 1.0 / np.sqrt(dim)
    heads = [
        AttentionHeadParams(
            wq=w(dim, head_dim, attn_scale),
            wk=w(dim, head_dim, attn_scale),
            wv=w(dim, head_dim, attn_scale),
            wo=w(head_dim, dim, 1.0 / np.sqrt(head_dim)),
        )
        for _ in range(n_heads)
    ]
    return EncoderLayerParams(
        heads=heads,
        ff_w1=w(dim, ff_dim, 1.0 / np.sqrt(dim)),
        ff_b1=Tensor(np.zeros(ff_dim), requires_grad=True),
        ff_w2=w(ff_dim, dim, 1.0 / np.sqrt(ff_dim)),
        ff_b2=Tensor(np.zeros(dim), requires_grad=True),
        ln1_gain=Tensor(np.ones(dim), requires_grad=True),
        ln1_bias=Tensor(np.zeros(dim), requires_grad=True),
        ln2_gain=Tensor(np.ones(dim), requires_grad=True),
        ln2_bias=Tensor(np.zeros(dim), requires_grad=True),
    )


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
    x: Tensor, params: EncoderLayerParams, key_mask: np.ndarray | None = None
) -> Tensor:
    """Scaled dot-product self-attention; per-head results are projected back
    to model dim and summed (equivalent to concat followed by one output
    projection)."""
    head_dim = params.heads[0].wq.shape[1]
    scale = Tensor(1.0 / np.sqrt(head_dim))
    bias = _mask_bias(key_mask, x.shape)
    out = None
    for head in params.heads:
        q = matmul(x, head.wq)
        k = matmul(x, head.wk)
        v = matmul(x, head.wv)
        scores = mul(matmul(q, transpose(k)), scale)
        if bias is not None:
            scores = add(scores, bias)
        attn = softmax(scores, axis=-1)
        projected = matmul(matmul(attn, v), head.wo)
        out = projected if out is None else add(out, projected)
    return out


def attention_weights(x: Tensor, params: EncoderLayerParams, key_mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Forward-only attention matrices per head, for inspection and tests."""
    head_dim = params.heads[0].wq.shape[1]
    bias = _mask_bias(key_mask, x.shape)
    weights = []
    for head in params.heads:
        q = x.data @ head.wq.data
        k = x.data @ head.wk.data
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(head_dim)
        if bias is not None:
            scores = scores + bias.data
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        weights.append(e / e.sum(axis=-1, keepdims=True))
    return weights


def transformer_encoder_layer(
    x: Tensor, params: EncoderLayerParams, key_mask: np.ndarray | None = None
) -> Tensor:
    """Attention sublayer with residual + layer norm, then a position-wise
    feed-forward sublayer with residual + layer norm."""
    attended = multi_head_self_attention(x, params, key_mask=key_mask)
    x1 = layer_norm(add(x, attended), params.ln1_gain, params.ln1_bias)
    hidden = relu(add(matmul(x1, params.ff_w1), params.ff_b1))
    ff = add(matmul(hidden, params.ff_w2), params.ff_b2)
    return layer_norm(add(x1, ff), params.ln2_gain, params.ln2_bias)


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


def encoder_layer_params_dict(prefix: str, params: EncoderLayerParams) -> dict[str, Tensor]:
    out = {}
    for i, head in enumerate(params.heads):
        out[f"{prefix}.h{i}.wq"] = head.wq
        out[f"{prefix}.h{i}.wk"] = head.wk
        out[f"{prefix}.h{i}.wv"] = head.wv
        out[f"{prefix}.h{i}.wo"] = head.wo
    out[f"{prefix}.ff_w1"] = params.ff_w1
    out[f"{prefix}.ff_b1"] = params.ff_b1
    out[f"{prefix}.ff_w2"] = params.ff_w2
    out[f"{prefix}.ff_b2"] = params.ff_b2
    out[f"{prefix}.ln1_gain"] = params.ln1_gain
    out[f"{prefix}.ln1_bias"] = params.ln1_bias
    out[f"{prefix}.ln2_gain"] = params.ln2_gain
    out[f"{prefix}.ln2_bias"] = params.ln2_bias
    return out


def encoder_layer_params_from_dict(prefix: str, tensors: dict[str, Tensor], n_heads: int) -> EncoderLayerParams:
    heads = [
        AttentionHeadParams(
            wq=tensors[f"{prefix}.h{i}.wq"],
            wk=tensors[f"{prefix}.h{i}.wk"],
            wv=tensors[f"{prefix}.h{i}.wv"],
            wo=tensors[f"{prefix}.h{i}.wo"],
        )
        for i in range(n_heads)
    ]
    return EncoderLayerParams(
        heads=heads,
        ff_w1=tensors[f"{prefix}.ff_w1"],
        ff_b1=tensors[f"{prefix}.ff_b1"],
        ff_w2=tensors[f"{prefix}.ff_w2"],
        ff_b2=tensors[f"{prefix}.ff_b2"],
        ln1_gain=tensors[f"{prefix}.ln1_gain"],
        ln1_bias=tensors[f"{prefix}.ln1_bias"],
        ln2_gain=tensors[f"{prefix}.ln2_gain"],
        ln2_bias=tensors[f"{prefix}.ln2_bias"],
    )
