"""Adam with decoupled weight decay and a warmup-then-linear-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import NumericalError
from .autodiff import Tensor


class NonFiniteGradientError(NumericalError):
    """A step saw NaN or inf gradients and was rejected; parameters unchanged."""


@dataclass
class AdamConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup_steps: int = 5000
    total_steps: int = 100000

    def __post_init__(self):
        if self.total_steps <= self.warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps for the linear decay")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")


def schedule_factor(step: int, warmup_steps: int, total_steps: int) -> float:
    """Linear ramp to 1 over the warmup, then linear decay to 0 at total_steps."""
    if step < 1:
        raise ValueError("steps are 1-based")
    ramp = step / warmup_steps
    decay = 1.0 - (step - warmup_steps) / (total_steps - warmup_steps)
    return max(0.0, min(ramp, decay))


class Adam:
    """Adam over one flat float64 buffer.  On construction every parameter's
    data becomes a named view into that buffer (values unchanged), and
    zero_grad() points every gradient at a view into a matching flat
    gradient buffer that backward accumulates into, so a step is a few
    vector operations over the whole model."""

    def __init__(self, params: dict[str, Tensor], config: AdamConfig):
        self.params = dict(params)
        self.config = config
        self.step_count = 0
        self._flat = np.concatenate([p.data.ravel() for p in self.params.values()])
        self._grad = np.zeros_like(self._flat)
        self._grad_views = []
        offset = 0
        for p in self.params.values():
            end, shape = offset + p.data.size, p.data.shape
            p.data = self._flat[offset:end].reshape(shape)
            self._grad_views.append(self._grad[offset:end].reshape(shape))
            offset = end
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        # every step writes its intermediates here instead of allocating
        # (and page-faulting) whole-model temporaries
        self._scratch = (np.empty_like(self._flat), np.empty_like(self._flat))

    def zero_grad(self) -> None:
        self._grad.fill(0.0)
        for p, view in zip(self.params.values(), self._grad_views):
            p.grad = view

    def step(self) -> float:
        """Apply one update from the accumulated gradients.  Returns the
        effective learning rate used.  Missing gradients count as zero."""
        cfg = self.config
        # a gradient set or reset outside zero_grad is copied into the buffer
        for p, view in zip(self.params.values(), self._grad_views):
            if p.grad is not view:
                view[...] = 0.0 if p.grad is None else p.grad
        g = self._grad
        # a NaN or an infinite entry makes the sum of squares non-finite (as
        # does overflow, which the per-parameter count then clears)
        if not np.isfinite(g @ g):
            for name, view in zip(self.params, self._grad_views):
                bad = int(view.size - np.isfinite(view).sum())
                if bad:
                    raise NonFiniteGradientError(f"rejected step {self.step_count + 1}: {bad} non-finite gradient entries in {name!r}")

        self.step_count += 1
        t = self.step_count
        lr = cfg.lr * schedule_factor(t, cfg.warmup_steps, cfg.total_steps)
        bias1 = 1.0 - cfg.beta1**t
        bias2 = 1.0 - cfg.beta2**t
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g;
        # update = (m / bias1) / (sqrt(v / bias2) + eps) [+ weight_decay p];
        # p -= lr update.  In place, operation for operation as written.
        m, v, (tmp, update) = self._m, self._v, self._scratch
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.sqrt(np.divide(v, bias2, out=tmp), out=tmp)
        tmp += cfg.eps
        np.divide(np.divide(m, bias1, out=update), tmp, out=update)
        if cfg.weight_decay > 0.0:
            update += np.multiply(self._flat, cfg.weight_decay, out=tmp)
        self._flat -= np.multiply(update, lr, out=update)
        return lr
