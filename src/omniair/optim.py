"""Adam optimizer with decoupled weight decay."""

from __future__ import annotations

import logging

import numpy as np

from .autodiff import Tensor

log = logging.getLogger("omniair")

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the second-moment root


class Adam:
    """Bias-corrected Adam over a named parameter dict.

    Weight decay is decoupled: parameters shrink by ``lr * weight_decay``
    before the moment-based update. A step with any non-finite gradient is
    skipped entirely (moments and step counter untouched). The moment
    decays and epsilon are the stock ``BETA1``, ``BETA2`` and ``EPS``.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> bool:
        """Apply one update from the accumulated grads; False if skipped."""
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                log.warning("adam: non-finite gradient in %r, step skipped", name)
                return False
            grads[name] = g
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            g = grads[name]
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        return True

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
