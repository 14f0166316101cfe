"""RMSProp with a per-parameter running mean of squared gradients."""

from __future__ import annotations

import numpy as np

from ..errors import require_number

RHO = 0.9
EPS = 1e-7


class RmsProp:
    """acc <- RHO*acc + (1-RHO)*g^2 ; p <- p - lr * g / sqrt(acc + EPS)."""

    def __init__(self, learning_rate=1e-4):
        require_number("learning_rate", learning_rate, lambda v: v > 0, "a finite number > 0")
        self.learning_rate = learning_rate
        self.acc: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """Update ``params`` and the accumulators in place, in the formula's order."""
        for name, p in params.items():
            g = grads[name]
            acc = self.acc.get(name)
            if acc is None:
                acc = self.acc[name] = np.zeros_like(p)
            acc *= RHO
            buf = g * g
            buf *= 1.0 - RHO
            acc += buf
            den = acc + EPS
            np.sqrt(den, out=den)
            np.divide(np.multiply(self.learning_rate, g, out=buf), den, out=den)
            p -= den.astype(p.dtype, copy=False)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return self.acc

    def load_state(self, arrays: dict[str, np.ndarray]):
        self.acc = {k: np.array(v) for k, v in arrays.items()}
