import numpy as np
import pytest

from clarikit.tensor import autodiff as ad
from clarikit.tensor.autodiff import Tensor


def param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForwardValues:
    def test_softmax_of_zeros_is_uniform(self):
        out = ad.softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax(Tensor(rng.standard_normal((6, 5)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)
        assert (out.data >= 0).all()

    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 8)) * 3 + 2)
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = ad.layer_norm(x, gain, bias, eps=0.0)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-9)

    def test_layer_norm_shift_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 6))
        gain, bias = Tensor(np.ones(6)), Tensor(np.zeros(6))
        a = ad.layer_norm(Tensor(x), gain, bias)
        b = ad.layer_norm(Tensor(x + 7.5), gain, bias)
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)

    def test_matmul_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(x, Tensor(np.eye(2)))
        np.testing.assert_allclose(out.data, x.data)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.sum_(x).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        ad.sum_(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_twice_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ad.sum_(x)
        loss.backward()
        with pytest.raises(ad.GraphError):
            loss.backward()

    def test_backward_on_detached_graph_rejected(self):
        loss = ad.sum_(Tensor([1.0]))
        with pytest.raises(ad.GraphError):
            loss.backward()

    def test_ops_on_detached_inputs_keep_no_graph(self):
        x = Tensor(np.ones((2, 2)))
        out = ad.relu(ad.matmul(x, ad.transpose(x)))
        assert not out.requires_grad and out._parents == () and out._backward_fn is None

    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.GraphError):
            ad.mul(x, x).backward()

    def test_grad_accumulates_when_reused(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, Tensor([3.0])))
        ad.sum_(y).backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


def _op_cases(rng):
    """One scalar-loss closure per differentiable op, each over fresh params."""
    a = param(rng, 3, 4)
    b = param(rng, 3, 4)
    m = param(rng, 4, 5)
    gain = param(rng, 4)
    bias = param(rng, 4)
    table = param(rng, 11, 4)
    ids = np.array([0, 3, 3, 10])

    return {
        "add": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b)))),
        "add_broadcast": ({"a": a, "bias": bias}, lambda: ad.sum_(ad.mul(ad.add(a, bias), ad.add(a, bias)))),
        "neg": ({"a": a}, lambda: ad.sum_(ad.mul(ad.neg(a), a))),
        "mul": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(a, b))),
        "matmul": ({"a": a, "m": m}, lambda: ad.sum_(ad.mul(ad.matmul(a, m), ad.matmul(a, m)))),
        "transpose": ({"a": a}, lambda: ad.sum_(ad.matmul(ad.transpose(a), a))),
        "concat": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.concat([a, b], axis=0), ad.concat([a, b], axis=0)))),
        "relu": ({"a": a}, lambda: ad.sum_(ad.relu(a))),
        "softplus": ({"a": a}, lambda: ad.sum_(ad.softplus(a))),
        "softmax": ({"a": a}, lambda: ad.sum_(ad.mul(ad.softmax(a, axis=-1), b))),
        "layer_norm": (
            {"a": a, "gain": gain, "bias": bias},
            lambda: ad.sum_(ad.mul(ad.layer_norm(a, gain, bias), b)),
        ),
        "embedding_lookup": (
            {"table": table},
            lambda: ad.sum_(ad.mul(ad.embedding_lookup(table, ids), ad.embedding_lookup(table, ids))),
        ),
    }


class TestFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(_op_cases(np.random.default_rng(0)).keys()))
    def test_op_gradient(self, name):
        cases = _op_cases(np.random.default_rng(42))
        params, f = cases[name]
        errors = ad.check_gradients(f, params)
        worst = max(errors.values())
        assert worst < 1e-4, f"{name}: max relative error {worst}"

    def test_three_layer_network(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 6)))
        w1, w2, w3 = param(rng, 6, 8), param(rng, 8, 8), param(rng, 8, 1)
        b1, b2 = param(rng, 8), param(rng, 8)

        def f():
            h1 = ad.relu(ad.add(ad.matmul(x, w1), b1))
            h2 = ad.relu(ad.add(ad.matmul(h1, w2), b2))
            return ad.sum_(ad.matmul(h2, w3))

        errors = ad.check_gradients(f, {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "w3": w3})
        assert max(errors.values()) < 1e-4
