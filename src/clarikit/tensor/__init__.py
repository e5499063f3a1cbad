"""Minimal reverse-mode autodiff tensors plus the transformer blocks,
optimizer, and hashed text encoder used by the pane scoring model."""

from .autodiff import (
    GraphError,
    Tensor,
    add,
    check_gradients,
    concat,
    embedding_lookup,
    layer_norm,
    matmul,
    max_relative_error,
    mul,
    neg,
    relu,
    softmax,
    softplus,
    sum_,
    transpose,
    zero_grads,
)
from .checkpoint import load_tensors, save_tensors
from .nn import (
    ParamSpec,
    encoder_layer_layout,
    init_params,
    masked_mean_rows,
    multi_head_self_attention,
    transformer_encoder_layer,
)
from .optim import Adam, AdamConfig, NonFiniteGradientError, schedule_factor
from .text import sequence_ids, text_encode
