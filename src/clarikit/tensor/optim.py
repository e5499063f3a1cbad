"""Adam with decoupled weight decay and a warmup-then-linear-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


class NonFiniteGradientError(RuntimeError):
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
    def __init__(self, params: dict[str, Tensor], config: AdamConfig):
        self.params = dict(params)
        self.config = config
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> float:
        """Apply one update from the accumulated gradients.  Returns the
        effective learning rate used.  Missing gradients count as zero."""
        cfg = self.config
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                bad = int(np.size(g) - np.isfinite(g).sum())
                raise NonFiniteGradientError(f"rejected step {self.step_count + 1}: {bad} non-finite gradient entries in {name!r}")
            grads[name] = g

        self.step_count += 1
        t = self.step_count
        lr = cfg.lr * schedule_factor(t, cfg.warmup_steps, cfg.total_steps)
        bias1 = 1.0 - cfg.beta1**t
        bias2 = 1.0 - cfg.beta2**t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
            if cfg.weight_decay > 0.0:
                update = update + cfg.weight_decay * p.data
            p.data -= lr * update
        return lr
