"""RMSProp with a per-parameter running mean of squared gradients."""

from __future__ import annotations

import numpy as np

from ..errors import require_number


class RmsProp:
    """acc <- rho*acc + (1-rho)*g^2 ; p <- p - lr * g / sqrt(acc + eps)."""

    def __init__(self, learning_rate=1e-4, rho=0.9, eps=1e-7):
        require_number("learning_rate", learning_rate, lambda v: v > 0, "a finite number > 0")
        require_number("rho", rho, lambda v: 0 <= v < 1, "a number in [0, 1)")
        require_number("eps", eps, lambda v: v > 0, "a finite number > 0")
        self.learning_rate = learning_rate
        self.rho = rho
        self.eps = eps
        self.acc: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Update ``params`` and the accumulators in place, in the formula's order."""
        for name, p in params.items():
            g = grads[name]
            acc = self.acc.get(name)
            if acc is None:
                acc = self.acc[name] = np.zeros_like(p)
            acc *= self.rho
            buf = g * g
            buf *= 1.0 - self.rho
            if acc.dtype.itemsize < buf.dtype.itemsize:
                # float32 state read back for float64 grads: the sum widens it
                acc = self.acc[name] = acc.astype(buf.dtype)
            acc += buf
            den = acc + self.eps
            np.sqrt(den, out=den)
            np.divide(np.multiply(self.learning_rate, g, out=buf), den, out=den)
            p -= den.astype(p.dtype, copy=False)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return self.acc

    def load_state(self, arrays: dict[str, np.ndarray]):
        self.acc = {k: np.array(v) for k, v in arrays.items()}
