"""Feed-forward layers with explicit forward/backward passes.

Every layer stores its parameters in ``self.params`` and, after a backward
call, matching gradients in ``self.grads``. Inputs may be [N, C] or
[B, T, C]; dense/PReLU act per position and batch normalization normalizes
over every axis except the channel axis. Only a training forward keeps what
``backward(dy) -> dx`` needs, so a backward after an inference forward raises
:class:`StateError`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, StateError


def glorot_uniform(shape, rng: np.random.Generator, dtype) -> np.ndarray:
    fan_out, fan_in = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def orthogonal(shape, rng: np.random.Generator, dtype) -> np.ndarray:
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix sign so the factorization is unique
    return q.astype(dtype)


def _flat2d(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


class Layer:
    """Base: parameter dict plus a single-use cache that only a training forward sets."""

    def __init__(self, name: str = ""):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def _take_cache(self):
        if self._cache is None:
            raise StateError(f"{self.name or type(self).__name__}: backward without forward")
        cache, self._cache = self._cache, None
        return cache


class Dense(Layer):
    """y = x @ W.T + b, applied per timestep on sequences; ``rng=None`` leaves W zero."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float32, name="dense"):
        super().__init__(name)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params = {
            "W": np.zeros((out_dim, in_dim), dtype=dtype)
            if rng is None
            else glorot_uniform((out_dim, in_dim), rng, dtype),
            "b": np.zeros(out_dim, dtype=dtype),
        }

    def forward(self, x, training=False, rng=None):
        self._cache = x if training else None
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, dy):
        x = self._take_cache()
        x2, dy2 = _flat2d(x), _flat2d(dy)
        self.grads = {"W": dy2.T @ x2, "b": dy2.sum(axis=0)}
        return (dy2 @ self.params["W"]).reshape(x.shape)


class PReLU(Layer):
    """max(0, x) + alpha * min(0, x) with a learned per-channel slope.

    Both passes multiply by a per-element slope, exactly 1 or alpha, instead
    of selecting between branches (a data-dependent select is the slow part
    on mixed-sign input). Equal to the select bit for bit for finite alpha.
    """

    def __init__(self, channels, alpha0=0.25, dtype=np.float32, name="prelu"):
        super().__init__(name)
        self.params = {"alpha": np.full(channels, alpha0, dtype=dtype)}

    def forward(self, x, training=False, rng=None):
        neg = x <= 0
        # -(neg * -alpha - pos): neg * alpha + pos would add +0.0 to an alpha of -0.0
        # and so flip its sign
        slope = neg * -self.params["alpha"]
        slope -= ~neg
        np.negative(slope, out=slope)
        self._cache = (x, neg, slope) if training else None
        return x * slope

    def backward(self, dy):
        x, neg, slope = self._take_cache()
        dyx = dy * x
        dyx *= neg
        dalpha = dyx.reshape(-1, x.shape[-1]).sum(axis=0)
        self.grads = {"alpha": dalpha.astype(self.params["alpha"].dtype)}
        return dy * slope


class Dropout(Layer):
    """Inverted dropout: zero with prob ``rate``, scale survivors by 1/(1-rate).
    A training forward draws its mask from the ``rng`` it is given."""

    def __init__(self, rate, name="dropout"):
        super().__init__(name)
        self.rate = rate

    def forward(self, x, training=False, rng=None):
        self._cache = None
        if not training:
            return x
        keep = rng.random(x.shape) >= self.rate
        self._cache = keep
        y = x * keep
        y *= x.dtype.type(1.0 / (1.0 - self.rate))
        return y

    def backward(self, dy):
        keep = self._take_cache()
        dx = dy * keep
        dx /= 1.0 - self.rate
        return dx


class BatchNorm(Layer):
    """Per-channel normalization over all non-channel axes.

    Training mode normalizes with batch statistics and blends them into the
    running estimates (running = momentum*running + (1-momentum)*batch);
    inference normalizes with the running estimates.
    """

    def __init__(self, channels, momentum=0.99, eps=1e-5, dtype=np.float32, name="bn"):
        super().__init__(name)
        self.momentum = momentum
        self.eps = eps
        self.params = {
            "gamma": np.ones(channels, dtype=dtype),
            "beta": np.zeros(channels, dtype=dtype),
        }
        # running stats are buffers, not trained parameters
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x, training=False, rng=None):
        flat = _flat2d(x)
        if training:
            mean = flat.mean(axis=0)
            xc = flat - mean
            sq = xc * xc
            var = sq.mean(axis=0)  # np.var's own centred squares, summed and divided alike
            m = x.dtype.type(self.momentum)
            self.running_mean = (m * self.running_mean + (1 - m) * mean).astype(x.dtype)
            self.running_var = (m * self.running_var + (1 - m) * var).astype(x.dtype)
        else:
            mean, var = self.running_mean, self.running_var
            xc = flat - mean
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xc *= inv_std  # now xhat
        gamma, beta = self.params["gamma"], self.params["beta"]
        out = sq if training and sq.dtype == np.result_type(gamma, beta, xc) else None
        y = np.multiply(gamma, xc, out=out)
        y += beta
        self._cache = (xc, inv_std) if training else None
        return y.reshape(x.shape)

    def backward(self, dy):
        xhat, inv_std = self._take_cache()
        dy2 = _flat2d(dy)
        scratch = dy2 * xhat
        self.grads = {"gamma": scratch.sum(axis=0), "beta": dy2.sum(axis=0)}
        dx = dy2 * self.params["gamma"]  # dxhat
        mean_dxhat = dx.mean(axis=0)
        mean_dxhat_xhat = np.multiply(dx, xhat, out=scratch).mean(axis=0)
        dx -= mean_dxhat
        dx -= np.multiply(xhat, mean_dxhat_xhat, out=scratch)
        np.multiply(inv_std, dx, out=dx)
        return dx.reshape(dy.shape)


# --------------------------------------------------------------------------
# Classification head math
# --------------------------------------------------------------------------


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; rows sum to 1."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sparse_ce(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log p[label] per position; probs indexed along the last axis."""
    labels = np.asarray(labels)
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(picked, np.finfo(probs.dtype).tiny))


def softmax_cross_entropy(logits, labels, mask):
    """Mean sparse CE over the positions ``mask`` counts and its gradient wrt logits.

    Returns (loss, dlogits, probs); dlogits is (probs - onehot) / n_counted,
    zeroed wherever mask is 0.
    """
    probs = softmax(logits)
    losses = sparse_ce(probs, labels)
    mask = mask.astype(logits.dtype)
    total = mask.sum()
    if total == 0:
        raise ShapeError("softmax_cross_entropy: mask excludes every position")
    loss = float((losses * mask).sum() / total)
    dlogits = probs.copy()
    flat = dlogits.reshape(-1, dlogits.shape[-1])
    flat[np.arange(flat.shape[0]), np.asarray(labels).reshape(-1)] -= 1.0
    dlogits *= (mask / total)[..., None]
    return loss, dlogits, probs
