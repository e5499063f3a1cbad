import base64
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clarikit.tensor import autodiff as ad
from clarikit.tensor.autodiff import Tensor
from clarikit.tensor.checkpoint import load_tensors, save_tensors
from clarikit.tensor.optim import Adam, AdamConfig, NonFiniteGradientError, schedule_factor
from clarikit.core import tokenize
from clarikit.rlc import RlcConfig, RlcModel
from clarikit.tensor import text
from clarikit.tensor.text import BEGIN, END, SEP, hash_bigram, hash_token, sequence_ids, text_encode


class TestSchedule:
    def test_halfway_through_warmup(self):
        assert schedule_factor(2500, 5000, 100000) == pytest.approx(0.5)

    def test_peak_at_warmup_end(self):
        assert schedule_factor(5000, 5000, 100000) == pytest.approx(1.0)

    def test_linear_decay_after_warmup(self):
        assert schedule_factor(52500, 5000, 100000) == pytest.approx(0.5)

    def test_zero_at_total(self):
        assert schedule_factor(100000, 5000, 100000) == 0.0

    def test_total_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            AdamConfig(warmup_steps=100, total_steps=100)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        opt = Adam({"p": p}, AdamConfig(lr=0.1, warmup_steps=1, total_steps=10))
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0])

    def test_non_finite_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, AdamConfig(lr=0.1, warmup_steps=1, total_steps=10))
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradientError, match="p"):
            opt.step()
        np.testing.assert_allclose(p.data, [1.0])
        assert opt.step_count == 0

    def test_convex_quadratic_loss_decreases_after_warmup(self):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(4)
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam({"p": p}, AdamConfig(lr=0.01, warmup_steps=10, total_steps=4000))

        def loss_value():
            return float(((p.data - target) ** 2).sum())

        losses = []
        for _ in range(200):
            opt.zero_grad()
            diff = ad.add(p, Tensor(-target))
            ad.sum_(ad.mul(diff, diff)).backward()
            opt.step()
            losses.append(loss_value())
        post_warmup = losses[10:]
        assert all(b < a for a, b in zip(post_warmup, post_warmup[1:]))

    def test_decoupled_weight_decay_shrinks_params(self):
        p = Tensor([4.0], requires_grad=True)
        opt = Adam({"p": p}, AdamConfig(lr=0.1, weight_decay=0.5, warmup_steps=1, total_steps=10))
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(p.data, [4.0 - 0.1 * 0.5 * 4.0])


    def test_parameters_become_views_into_one_buffer(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor([7.0, 8.0], requires_grad=True)
        opt = Adam({"a": a, "b": b}, AdamConfig(lr=0.1, warmup_steps=1, total_steps=10))
        np.testing.assert_array_equal(a.data, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.data, [7.0, 8.0])
        assert a.data.base is b.data.base is not None
        opt.zero_grad()
        assert a.grad.base is b.grad.base is not None

    def test_flat_update_matches_per_tensor_loop(self):
        """Ten steps over one flat buffer equal, bit for bit, the per-tensor
        loop the optimizer used to run; gradients arrive accumulated by
        backward, assigned, or missing."""
        rng = np.random.default_rng(12)
        shapes = {"w": (4, 3), "b": (3,), "table": (6, 2)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        config = AdamConfig(lr=0.05, weight_decay=0.01, warmup_steps=3, total_steps=20)
        params = {name: Tensor(value.copy(), requires_grad=True) for name, value in start.items()}
        opt = Adam(params, config)
        expected = {name: value.copy() for name, value in start.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 11):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            if t == 4:
                grads["b"] = np.zeros(3)
            opt.zero_grad()
            ad.sum_(ad.mul(params["w"], Tensor(grads["w"]))).backward()
            params["table"].grad = grads["table"].copy()
            if t == 4:
                params["b"].grad = None
            else:
                params["b"].grad += grads["b"]
            lr = opt.step()

            assert lr == config.lr * schedule_factor(t, config.warmup_steps, config.total_steps)
            bias1 = 1.0 - config.beta1**t
            bias2 = 1.0 - config.beta2**t
            for name, g in grads.items():
                m[name] *= config.beta1
                m[name] += (1.0 - config.beta1) * g
                v[name] *= config.beta2
                v[name] += (1.0 - config.beta2) * g * g
                update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + config.eps)
                update = update + config.weight_decay * expected[name]
                expected[name] -= lr * update
                np.testing.assert_array_equal(params[name].data, expected[name])


class TestTextEncoder:
    @pytest.fixture
    def tables(self):
        rng = np.random.default_rng(3)
        table = Tensor(rng.standard_normal((64, 6)) * 0.1, requires_grad=True)
        proj = Tensor(rng.standard_normal((6, 8)) * 0.1, requires_grad=True)
        return table, proj

    def test_deterministic(self, tables):
        table, proj = tables
        a = text_encode([[[tokenize("which jaguar do you mean")]]], table, proj)
        b = text_encode([[[tokenize("which jaguar do you mean")]]], table, proj)
        np.testing.assert_array_equal(a.data, b.data)

    def test_output_dim_independent_of_length(self, tables):
        table, proj = tables
        for text in ("a", "a much longer sequence of tokens here"):
            assert text_encode([[[tokenize(text)]]], table, proj).shape == (1, 1, 8)

    def test_hash_is_stable(self):
        # frozen value (computed once from the FNV-1a reference constants)
        # guards against platform- or run-dependent hashing
        assert hash_token("jaguar", 4096) == hash_token("jaguar", 4096)
        assert hash_token("jaguar", 1 << 30) == 1020755687

    def test_one_token_change_changes_vector(self, tables):
        """Collision audit over a small fixed vocabulary: single-token edits
        must change the encoding."""
        table, proj = tables
        vocab = [f"term{i}" for i in range(30)]
        base = ["alpha", "beta", "gamma"]
        base_vec = text_encode([[[base]]], table, proj).data
        for word in vocab:
            changed = text_encode([[[["alpha", "beta", word]]]], table, proj).data
            assert not np.allclose(changed, base_vec)

    def test_boundary_tokens_included(self, tables):
        table, proj = tables
        ids = sequence_ids([["x"], ["y"]], table.shape[0])
        # <b> x <s> y <e> gives 5 tokens and 4 bigrams
        assert len(ids) == 9

    def test_batch_rows_are_per_item_means(self, tables):
        """Each row is its item's mean embedding, projected; a None item is a
        zero row, and a batch of only None items is all zeros.  Lists of
        different id counts share one lookup of the batch's distinct ids."""
        table, proj = tables
        batch = [
            [[["alpha", "beta"], ["gamma"]], None, [["delta"]]],
            [None, [["epsilon"]], [["zeta", "eta", "theta"], ["iota"]]],
        ]
        out = text_encode(batch, table, proj)
        assert out.shape == (2, 3, 8)
        for b, items in enumerate(batch):
            for row, parts in enumerate(items):
                expected = np.zeros(8) if parts is None else table.data[sequence_ids(parts, 64)].mean(axis=0) @ proj.data
                np.testing.assert_allclose(out.data[b, row], expected, atol=1e-15)
        np.testing.assert_array_equal(text_encode([[None, None]], table, proj).data, np.zeros((1, 2, 8)))

    def test_gradients_flow_to_table_and_projection(self, tables):
        table, proj = tables
        weights = Tensor(np.array([[1.0], [-2.0], [0.5]]))

        def f():
            rows = text_encode([[[["alpha", "beta"]], None, [["beta", "gamma"], ["x"]]], [None, [["y"]], None]], table, proj)
            return ad.sum_(ad.mul(rows, weights))

        errors = ad.check_gradients(f, {"table": table, "proj": proj})
        assert max(errors.values()) < 1e-4


def whole_item_ids(parts, buckets):
    """The reference: hash every token, then every adjacent-token bigram, of
    the item joined whole as <b> part <s> part ... <e>."""
    tokens = [BEGIN]
    for i, part in enumerate(parts):
        if i > 0:
            tokens.append(SEP)
        tokens.extend(part)
    tokens.append(END)
    ids = [hash_token(t, buckets) for t in tokens]
    ids.extend(hash_bigram(a, b, buckets) for a, b in zip(tokens, tokens[1:]))
    return np.asarray(ids, dtype=np.int64)


# a small vocabulary, so parts repeat tokens and items repeat parts
item_parts = st.lists(st.lists(st.sampled_from(["a", "b", "c", "jaguar", BEGIN, SEP]), max_size=4), max_size=4)


@given(
    st.integers(2, 7),
    st.lists(st.lists(st.one_of(st.none(), item_parts), min_size=3, max_size=3), min_size=1, max_size=3),
    st.integers(0, 2**16),
)
def test_part_pieces_equal_whole_item_hashing(buckets, batch, seed):
    """Ids assembled from per-part pieces are the whole item's ids as a
    multiset (2-7 buckets, so ids collide), and text_encode's output is the
    reference's bit for bit."""
    for items in batch:
        for parts in items:
            if parts is not None:
                np.testing.assert_array_equal(np.sort(sequence_ids(parts, buckets)), np.sort(whole_item_ids(parts, buckets)))
    rng = np.random.default_rng(seed)
    table, proj = Tensor(rng.standard_normal((buckets, 4))), Tensor(rng.standard_normal((4, 3)))
    out = text_encode(batch, table, proj).data
    pieces = text.sequence_ids
    text.sequence_ids = whole_item_ids
    try:
        reference = text_encode(batch, table, proj).data
    finally:
        text.sequence_ids = pieces
    assert np.array_equal(out, reference)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        tensors = {
            "a.weight": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            "b.bias": Tensor(rng.standard_normal(4), requires_grad=True),
        }
        path = str(tmp_path / "ckpt.json")
        save_tensors(path, tensors, config={"dim": 4})
        loaded, config = load_tensors(path)
        assert config == {"dim": 4}
        for name in tensors:
            np.testing.assert_array_equal(loaded[name].data, tensors[name].data)

    def test_default_model_round_trip_bit_exact(self, tmp_path):
        model = RlcModel.init(RlcConfig(), seed=3)
        assert sum(p.data.size for p in model.params.values()) > 470_000
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = RlcModel.load(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name

    def test_payload_is_base64_little_endian_float64(self, tmp_path):
        values = np.array([[0.1, -2.5e-300], [np.pi, 1e300]])
        path = tmp_path / "ckpt.json"
        save_tensors(str(path), {"t": Tensor(values)}, config={"dim": 2})
        payload = json.loads(path.read_text())
        assert (payload["format"], payload["format_version"], payload["config"]) == ("clarikit-tensors", 2, {"dim": 2})
        spec = payload["tensors"]["t"]
        assert (spec["dtype"], spec["shape"]) == ("<f8", [2, 2])
        assert base64.b64decode(spec["data"]) == values.astype("<f8").tobytes()

    def test_rejects_version_1(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text('{"config":{},"format":"clarikit-tensors","format_version":1,"tensors":{"t":{"shape":[1],"values":[0.5]}}}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unsupported format version 1$"):
            load_tensors(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_tensors(str(path))
