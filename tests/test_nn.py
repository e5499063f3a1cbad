import numpy as np
import pytest

from clarikit.tensor import autodiff as ad
from clarikit.tensor.autodiff import Tensor
from clarikit.tensor.nn import (
    encoder_layer_layout,
    init_params,
    masked_mean_rows,
    multi_head_self_attention,
    transformer_encoder_layer,
)


def encoder_layer(dim, n_heads, ff_dim, seed):
    return init_params(encoder_layer_layout("enc", dim=dim, n_heads=n_heads, ff_dim=ff_dim), np.random.default_rng(seed))


@pytest.fixture
def layer():
    """Two heads, named enc.h0.* and enc.h1.*."""
    return encoder_layer(dim=8, n_heads=2, ff_dim=16, seed=11)


def head_attention(seq, key_mask=None, batch=()):
    """Each head's attention matrices, (*batch, seq, seq), as
    multi_head_self_attention applies them: with one-hot input rows,
    identity value and output projections and every other head's wo zeroed,
    the first seq columns of the output are that head's attention matrix."""
    dim, n_heads = 16, 2
    head_dim = dim // n_heads
    params = encoder_layer(dim=dim, n_heads=n_heads, ff_dim=4, seed=11)
    x = Tensor(np.broadcast_to(np.eye(dim)[:seq], (*batch, seq, dim)).copy())
    matrices = []
    for head in range(n_heads):
        for i in range(n_heads):
            params[f"enc.h{i}.wv"].data = np.eye(dim, head_dim)
            params[f"enc.h{i}.wo"].data = np.eye(head_dim, dim) if i == head else np.zeros((head_dim, dim))
        matrices.append(multi_head_self_attention(x, params, "enc", key_mask=key_mask).data[..., :seq])
    return matrices


def test_head_count_must_divide_dim():
    with pytest.raises(ValueError):
        dict(encoder_layer_layout("enc", dim=10, n_heads=3, ff_dim=8))


def test_single_position_attention_weight_is_one():
    for w in head_attention(1):
        np.testing.assert_allclose(w, [[1.0]])


def test_attention_rows_sum_to_one():
    for w in head_attention(7):
        np.testing.assert_allclose(w.sum(axis=-1), np.ones(7), atol=1e-9)
        assert (w > 0).all()


def test_masked_keys_get_zero_weight():
    mask = np.array([1, 1, 0, 1, 0], dtype=float)
    for w in head_attention(5, key_mask=mask):
        assert (w[:, 2] == 0).all()
        assert (w[:, 4] == 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), np.ones(5), atol=1e-12)


def test_per_row_mask_zeroes_masked_keys_row_by_row():
    """A (seq, seq) mask: each query row attends only to its own kept keys."""
    mask = np.array([
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 1],
    ], dtype=float)
    for w in head_attention(5, key_mask=mask):
        for row in range(5):
            assert (w[row, mask[row] == 0] == 0).all()
            assert (w[row, mask[row] == 1] > 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), np.ones(5), atol=1e-12)


def test_one_head_identity_projections_match_hand_softmax():
    """2-token, one-head attention with identity projections reduces to an
    explicit 2x2 softmax times the input."""
    dim = 2
    layer = encoder_layer(dim=dim, n_heads=1, ff_dim=4, seed=0)
    for name in ("wq", "wk", "wv", "wo"):
        layer[f"enc.h0.{name}"].data = np.eye(dim)
    x = np.array([[1.0, 0.5], [-0.25, 2.0]])
    out = multi_head_self_attention(Tensor(x), layer, "enc")

    scores = x @ x.T / np.sqrt(dim)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out.data, attn @ x, atol=1e-12)


def test_encoder_layer_preserves_shape():
    layer = encoder_layer(dim=32, n_heads=4, ff_dim=64, seed=5)
    x = Tensor(np.random.default_rng(5).standard_normal((7, 32)))
    out = transformer_encoder_layer(x, layer, "enc")
    assert out.shape == (7, 32)


def test_zeroed_sublayers_reduce_to_layer_norms(layer):
    """With attention output and FF projections zeroed, only the residual
    path survives, so the layer is layer_norm(layer_norm(x))."""
    for name in ("enc.h0.wo", "enc.h1.wo", "enc.ff_w2"):
        layer[name].data = np.zeros_like(layer[name].data)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 8))
    out = transformer_encoder_layer(Tensor(x), layer, "enc")

    def ln(v):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5)

    np.testing.assert_allclose(out.data, ln(ln(x)), atol=1e-12)


def test_encoder_layer_matches_straight_line_oracle(layer):
    """Independent straight-line numpy recomputation of the whole layer."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 8))
    out = transformer_encoder_layer(Tensor(x), layer, "enc")
    p = {name: tensor.data for name, tensor in layer.items()}

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    attended = np.zeros_like(x)
    for head in ("enc.h0", "enc.h1"):
        q = x @ p[f"{head}.wq"]
        k = x @ p[f"{head}.wk"]
        v = x @ p[f"{head}.wv"]
        s = q @ k.T / np.sqrt(p[f"{head}.wq"].shape[1])
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        a = e / e.sum(axis=-1, keepdims=True)
        attended += (a @ v) @ p[f"{head}.wo"]
    x1 = ln(x + attended, p["enc.ln1_gain"], p["enc.ln1_bias"])
    ff = np.maximum(x1 @ p["enc.ff_w1"] + p["enc.ff_b1"], 0.0) @ p["enc.ff_w2"] + p["enc.ff_b2"]
    expected = ln(x1 + ff, p["enc.ln2_gain"], p["enc.ln2_bias"])
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_masked_mean_rows():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [100.0, 100.0]]))
    out = masked_mean_rows(x, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(out.data, [[2.0, 3.0]])


def test_attention_and_layer_gradients(layer):
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((4, 8)))
    target = Tensor(rng.standard_normal((4, 8)))

    def f():
        out = transformer_encoder_layer(x, layer, "enc", key_mask=np.array([1.0, 1.0, 1.0, 0.0]))
        diff = ad.add(out, ad.neg(target))
        return ad.sum_(ad.mul(diff, diff))

    errors = ad.check_gradients(f, layer)
    assert max(errors.values()) < 1e-4, errors


def test_batched_layer_matches_each_sequence_alone(layer):
    """A (batch, seq, dim) stack with a (batch, seq, seq) mask runs each
    sequence as if alone under its own mask; a (seq,) mask applies to all."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 4, 8))
    masks = np.ones((3, 4, 4))
    masks[0, :, 3] = 0.0
    masks[2] = np.kron(np.eye(2), np.ones((2, 2)))
    out = transformer_encoder_layer(Tensor(x), layer, "enc", key_mask=masks)
    shared = transformer_encoder_layer(Tensor(x), layer, "enc", key_mask=np.array([1.0, 1.0, 0.0, 1.0]))
    weights = head_attention(4, key_mask=masks, batch=(3,))
    for b in range(3):
        alone = transformer_encoder_layer(Tensor(x[b]), layer, "enc", key_mask=masks[b])
        np.testing.assert_allclose(out.data[b], alone.data, atol=1e-12)
        alone = transformer_encoder_layer(Tensor(x[b]), layer, "enc", key_mask=np.array([1.0, 1.0, 0.0, 1.0]))
        np.testing.assert_allclose(shared.data[b], alone.data, atol=1e-12)
        for w in weights:
            assert (w[b][masks[b] == 0] == 0).all()


def test_batched_mask_shape_checked(layer):
    x = Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(ValueError, match="key mask shape"):
        transformer_encoder_layer(x, layer, "enc", key_mask=np.ones((3, 3, 3)))


def test_masked_mean_rows_batched():
    x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [100.0, 100.0]], [[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]]]))
    out = masked_mean_rows(x, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(out.data, [[[2.0, 3.0]], [[9.0, 10.0]]])
