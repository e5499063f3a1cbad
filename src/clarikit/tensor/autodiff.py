"""Dense float64 tensors with reverse-mode automatic differentiation.

Small and explicit by design: every op on a tensor that requires a gradient
records its inputs and a closure that pushes the output adjoint back to
them; an op on detached inputs records nothing.  backward() runs the
closures in reverse topological order.  Values are never mutated by ops, so tensors can
be shared freely; only the optimizer writes to parameter data in place.

Ops broadcast like numpy.  matmul and transpose act on the last two axes, so
a leading batch axis runs a whole batch through one op; the gradient of an
operand with fewer batch axes (a shared parameter) is summed over the rest.

A composite op can be one node too: softmax and layer_norm expose their
numpy forward and backward (softmax_data / softmax_grad, layer_norm_data /
layer_norm_backward), and a composite's backward applies them with
_accumulate and _unbroadcast as the ops would (nn.transformer_encoder_layer
does).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class GraphError(RuntimeError):
    """Backward called on a detached graph or more than once."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None, _op=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._backward_fn: Callable[[np.ndarray], None] | None = _backward
        self._op = _op
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable
        requires_grad tensor.  A second call on the same node is an error;
        rebuild the graph instead."""
        if self.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("loss is detached from the graph (requires_grad is False)")
        if self._backward_done:
            raise GraphError("backward already ran for this node; rebuild the graph")
        self._backward_done = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a new array in t.data's layout; adding 0.0 turns -0.0 into 0.0, as
        # accumulating into zeros does
        t.grad = np.add(grad, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were added or broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(data, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward, _op=op)
    # nothing upstream needs a gradient: keep no graph, so the inputs can be
    # freed as soon as the caller drops them
    return Tensor(data, _op=op)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(grad):
        _accumulate(a, _unbroadcast(grad, a.shape))
        _accumulate(b, _unbroadcast(grad, b.shape))

    return _make(out_data, (a, b), backward, "add")


def neg(a: Tensor) -> Tensor:
    def backward(grad):
        _accumulate(a, -grad)

    return _make(-a.data, (a,), backward, "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(grad):
        _accumulate(a, _unbroadcast(grad * b.data, a.shape))
        _accumulate(b, _unbroadcast(grad * a.data, b.shape))

    return _make(out_data, (a, b), backward, "mul")


def _swap_last(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading batch axes broadcast as in
    np.matmul."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad @ _swap_last(b.data), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(_swap_last(a.data) @ grad, b.shape))

    return _make(out_data, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""

    def backward(grad):
        _accumulate(a, _swap_last(grad))

    return _make(_swap_last(a.data), (a,), backward, "transpose")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(t, grad[tuple(index)])
            offset += size

    return _make(out_data, tuple(tensors), backward, "concat")


def sum_(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward, "sum")


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(np.float64)

    def backward(grad):
        _accumulate(a, grad * mask)

    return _make(a.data * mask, (a,), backward, "relu")


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably for large |x|."""
    out_data = np.logaddexp(0.0, a.data)
    sig = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)), np.exp(a.data) / (1.0 + np.exp(a.data)))

    def backward(grad):
        _accumulate(a, grad * sig)

    return _make(out_data, (a,), backward, "softplus")


def softmax_data(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_grad(grad: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    """The input adjoint of a softmax whose output is out."""
    # dx = y * (g - sum(g * y)) along the softmax axis
    inner = (grad * out).sum(axis=axis, keepdims=True)
    return out * (grad - inner)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out_data = softmax_data(a.data, axis)

    def backward(grad):
        _accumulate(a, softmax_grad(grad, out_data, axis))

    return _make(out_data, (a,), backward, "softmax")


def layer_norm_data(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """(output, normed rows, 1 / row std): each row (last axis) normalized
    to zero mean and unit variance, then scaled by gain and shifted by bias."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = centered * inv_std
    return normed * gain + bias, normed, inv_std


def layer_norm_backward(grad: np.ndarray, gain: Tensor, bias: Tensor, normed: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """Accumulate a layer norm's gain and bias adjoints and return its input
    adjoint, from its forward's normed rows and 1 / row std."""
    _accumulate(gain, _unbroadcast(grad * normed, gain.shape))
    _accumulate(bias, _unbroadcast(grad, bias.shape))
    g = grad * gain.data
    # standard layer-norm backward over the last axis
    return inv_std * (g - g.mean(axis=-1, keepdims=True) - normed * (g * normed).mean(axis=-1, keepdims=True))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row (last axis) to zero mean and unit variance, then
    apply elementwise gain and bias."""
    out_data, normed, inv_std = layer_norm_data(a.data, gain.data, bias.data, eps)

    def backward(grad):
        _accumulate(a, layer_norm_backward(grad, gain, bias, normed, inv_std))

    return _make(out_data, (a, gain, bias), backward, "layer_norm")


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds into it."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = table.data[ids]

    def backward(grad):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, grad)

    return _make(out_data, (table,), backward, "embedding_lookup")


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def finite_difference_gradient(f: Callable[[], Tensor], param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. one tensor."""
    fd = np.zeros_like(param.data)
    flat = param.data.ravel()
    fd_flat = fd.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        hi = f().item()
        flat[i] = original - h
        lo = f().item()
        flat[i] = original
        fd_flat[i] = (hi - lo) / (2 * h)
    return fd


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(f: Callable[[], Tensor], params: dict[str, Tensor], h: float = 1e-5) -> dict[str, float]:
    """Compare autodiff gradients of f() against central finite differences.

    Returns the max relative error per parameter tensor.  f must rebuild the
    graph on every call.
    """
    zero_grads(params.values())
    loss = f()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}
    errors = {}
    for name, p in params.items():
        fd = finite_difference_gradient(f, p, h=h)
        errors[name] = max_relative_error(analytic[name], fd)
    return errors
