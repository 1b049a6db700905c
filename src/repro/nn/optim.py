"""Optimizers: Adam and SGD, with gradient clipping.

All update rules run in place: moment buffers and the per-parameter
scratch arrays are allocated once at construction, so a training step
performs no per-step allocations beyond what numpy needs internally.
``p.grad is None`` marks parameters no gradient flowed into this step —
those are skipped, matching the reference behavior for e.g. node-type
encoders that never appeared in a shard.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    def __init__(self, params: list[Tensor], lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data += v


class Adam(Optimizer):
    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # scratch pair reused for m_hat / v_hat (and decayed gradients)
        self._s1 = [np.empty_like(p.data) for p in self.params]
        self._s2 = [np.empty_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v, s1, s2 in zip(self.params, self._m, self._v, self._s1, self._s2):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s1)
                s1 += grad
                grad = s1
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m *= self.beta1
            m += s2
            np.multiply(grad, 1.0 - self.beta2, out=s2)
            s2 *= grad
            v *= self.beta2
            v += s2
            # p -= (lr * m_hat) / (sqrt(v_hat) + eps), evaluated with the
            # same association as the out-of-place reference formula
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            np.divide(m, bias1, out=s1)
            s1 *= self.lr
            s1 /= s2
            p.data -= s1


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Each parameter's sum of squares is taken in the gradient's dtype; a
    float32 entry above ~1.8e19 squares to ``inf`` there, which would
    make the scale 0 and silently zero the step. Only such a parameter
    is summed again in float64, so every step that does not overflow
    rounds exactly as before.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            if p.grad is not None:
                squares = float((p.grad**2).sum())
                if not np.isfinite(squares):
                    squares = float((p.grad.astype(np.float64) ** 2).sum())
                total += squares
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
