import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clarikit.core import CandidateAnswer, ClarificationPane, Query
from clarikit.intents import IntentSet
from clarikit.rlc import RlcConfig, RlcModel, TrainTriple, train_pairwise
from clarikit.tensor import autodiff as ad
from clarikit.tensor.autodiff import Tensor, add, layer_norm, matmul, mul, relu, softmax, transpose
from clarikit.tensor.nn import (
    MASK_NEG,
    encoder_layer_layout,
    init_params,
    masked_mean_rows,
    transformer_encoder_layer,
)
from clarikit.tensor.optim import AdamConfig


def encoder_layer(dim, n_heads, ff_dim, seed):
    return init_params(encoder_layer_layout("enc", dim=dim, n_heads=n_heads, ff_dim=ff_dim), np.random.default_rng(seed))


# -- the reference: the encoder layer composed of autodiff ops -----------------


def composed_attention(x, params, prefix, key_mask=None):
    """Scaled dot-product self-attention; per-head results are projected back
    to model dim and summed."""
    dim, head_dim = params[f"{prefix}.h0.wq"].shape
    scale = Tensor(1.0 / np.sqrt(head_dim))
    bias = None if key_mask is None else Tensor((1.0 - np.asarray(key_mask, dtype=np.float64)) * MASK_NEG)
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


def composed_layer(x, params, prefix, key_mask=None):
    """Attention sublayer with residual + layer norm, then a position-wise
    feed-forward sublayer with residual + layer norm."""
    p = f"{prefix}."
    attended = composed_attention(x, params, prefix, key_mask=key_mask)
    x1 = layer_norm(add(x, attended), params[p + "ln1_gain"], params[p + "ln1_bias"])
    hidden = relu(add(matmul(x1, params[p + "ff_w1"]), params[p + "ff_b1"]))
    ff = add(matmul(hidden, params[p + "ff_w2"]), params[p + "ff_b2"])
    return layer_norm(add(x1, ff), params[p + "ln2_gain"], params[p + "ln2_bias"])


@pytest.fixture
def layer():
    """Two heads, named enc.h0.* and enc.h1.*."""
    return encoder_layer(dim=8, n_heads=2, ff_dim=16, seed=11)


def head_attention(seq, key_mask=None, batch=()):
    """Each head's attention matrices, (*batch, seq, seq), as the reference
    attention applies them: with one-hot input rows, identity value and
    output projections and every other head's wo zeroed, the first seq
    columns of the output are that head's attention matrix."""
    dim, n_heads = 16, 2
    head_dim = dim // n_heads
    params = encoder_layer(dim=dim, n_heads=n_heads, ff_dim=4, seed=11)
    x = Tensor(np.broadcast_to(np.eye(dim)[:seq], (*batch, seq, dim)).copy())
    matrices = []
    for head in range(n_heads):
        for i in range(n_heads):
            params[f"enc.h{i}.wv"].data = np.eye(dim, head_dim)
            params[f"enc.h{i}.wo"].data = np.eye(head_dim, dim) if i == head else np.zeros((head_dim, dim))
        matrices.append(composed_attention(x, params, "enc", key_mask=key_mask).data[..., :seq])
    return matrices


@st.composite
def layer_cases(draw):
    """A layer's shape, input, key mask and whether x requires a gradient."""
    heads = draw(st.sampled_from([1, 2, 4]))
    dim = heads * draw(st.integers(1, 3))
    seq = draw(st.integers(1, 5))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    masks = [None, (seq,), (seq, seq)] + ([batch + (seq, seq)] if batch else [])
    mask_shape = draw(st.sampled_from(masks))
    return heads, dim, draw(st.integers(1, 6)), batch + (seq, dim), mask_shape, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(max_examples=120)
@given(layer_cases())
def test_fused_layer_equals_the_composed_reference(case):
    """Output, x's gradient and every parameter's gradient are the composed
    graph's, bit for bit, over head counts, (seq, dim) and (batch, seq, dim)
    inputs, every key mask shape, and x with and without a gradient."""
    heads, dim, ff_dim, x_shape, mask_shape, x_requires_grad, seed = case
    rng = np.random.default_rng(seed)
    params = {name: t.data + rng.standard_normal(t.shape) * 0.1 for name, t in encoder_layer(dim, heads, ff_dim, seed).items()}
    x = rng.standard_normal(x_shape)
    mask = None if mask_shape is None else (rng.random(mask_shape) < 0.7).astype(np.float64)
    target = Tensor(rng.standard_normal(x_shape))
    results = []
    for run in (transformer_encoder_layer, composed_layer):
        tensors = {name: Tensor(value.copy(), requires_grad=True) for name, value in params.items()}
        x_in = Tensor(x, requires_grad=x_requires_grad)
        out = run(x_in, tensors, "enc", key_mask=mask)
        ad.sum_(ad.mul(out, target)).backward()
        results.append((out.data, x_in.grad, {name: t.grad for name, t in tensors.items()}))
    (out, x_grad, grads), (ref_out, ref_x_grad, ref_grads) = results
    assert np.array_equal(out, ref_out)
    assert (x_grad is None) == (not x_requires_grad)
    if x_requires_grad:
        assert np.array_equal(x_grad, ref_x_grad)
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name


def test_training_step_builds_one_node_per_layer(monkeypatch):
    """One train_pairwise step of a two-head, one-layer model builds at
    most 70 tensors: each encoder layer is one node, not ~31."""
    query = Query("q1", "jaguar parts")
    panes = tuple(
        ClarificationPane(f"q1:p{i}", "q1", "Which one?", tuple(CandidateAnswer(t, j + 1) for j, t in enumerate(texts)))
        for i, texts in enumerate([("car engine", "animal habitat"), ("book review", "city map")])
    )
    sets = {"q1": {"reformulation": IntentSet("q1", "reformulation", (("jaguar parts car", 6.0),))}}
    config = RlcConfig(dim=8, heads=2, layers=1, answer_slots=2, max_intents=2, hash_buckets=64, ff_dim=16, head_hidden=8)
    model = RlcModel.init(config, seed=5)
    built = []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    train_pairwise(model, [TrainTriple(query, panes, (0.4, 0.1))], sets, None, AdamConfig(warmup_steps=1, total_steps=2), steps=1)
    assert len(built) <= 70


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
    out = composed_attention(Tensor(x), layer, "enc")

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
