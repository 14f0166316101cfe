"""GRU and LSTM layers with full backpropagation through time.

Both accept [T, in] (one sequence) or [B, T, in] and return the hidden
state at every timestep.

GRU recurrence (the convention every test in this repo targets):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    hc_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * hc_t

Parameters are stored per gate (``Wz``, ``Uz``, ``bz``, ...), which fixes
the checkpoint layout. Each call stacks them into one matrix per gate group
(GRU: ``[Wz;Wr;Wh]`` and ``[Uz;Ur]``; LSTM: ``[Wi;Wf;Wo;Wg]`` and
``[Ui;Uf;Uo;Ug]``), so the input projection for all timesteps is a single
matmul with the bias folded in, each step costs one recurrent matmul per
gate group, and backward accumulates the weight gradients over all B*T rows
at once and returns them as per-gate row views.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Layer, glorot_uniform, orthogonal


def _sigmoid(x):
    # tanh form: no overflow for any finite x, and no masked copies
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _as_batched(x, in_dim, name):
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[None, :, :]
        squeeze = True
    elif x.ndim == 3:
        squeeze = False
    else:
        raise ShapeError(f"{name}: input must be [T,in] or [B,T,in], got {x.shape}")
    if x.shape[-1] != in_dim:
        raise ShapeError(f"{name}: expected input dim {in_dim}, got {x.shape[-1]}")
    return x, squeeze


def _stack(p, kind, gates):
    return np.concatenate([p[kind + g] for g in gates])


def _project(x, W, b):
    """x [B,T,in] -> x @ W.T + b as [B,T,G], the bias added in place."""
    B, T, _ = x.shape
    xp = x.reshape(B * T, -1) @ W.T
    xp += b
    return xp.reshape(B, T, -1)


def _initial_state(h0, B, H, dtype, name):
    """h0 ([H], [1,H] or [B,H]) as [B,H] in ``dtype``; zeros when None."""
    if h0 is None:
        return np.zeros((B, H), dtype=dtype)
    h0 = np.asarray(h0, dtype=dtype)
    if h0.shape not in ((H,), (1, H), (B, H)):
        raise ShapeError(f"{name}: h0 shape {h0.shape} does not fit batch {B}, hidden {H}")
    return np.broadcast_to(h0, (B, H))


def _upstream(dh_seq, shape, squeeze, dtype, name):
    """The upstream gradient as [B,T,H] in ``dtype``, checked against ``shape``."""
    dh_seq = np.asarray(dh_seq, dtype=dtype)
    if squeeze:
        dh_seq = dh_seq[None, :, :]
    if dh_seq.shape != shape:
        raise ShapeError(f"{name}: upstream gradient shape {dh_seq.shape}")
    return dh_seq


def _per_gate(stacked, kind, gates):
    """Split a gate-stacked array into per-gate row views named ``kind + gate``."""
    H = stacked.shape[0] // len(gates)
    return {kind + g: stacked[k * H : (k + 1) * H] for k, g in enumerate(gates)}


def _input_grads(da2, p, gates, x, dh0, squeeze, input_grad):
    """``(dx, dh0)`` for a backward call; ``dx`` is None without ``input_grad``."""
    dx = None
    if input_grad:
        dx = (da2 @ _stack(p, "W", gates)).reshape(x.shape[1:] if squeeze else x.shape)
    return dx, (dh0[0] if squeeze else dh0)


class Gru(Layer):
    def __init__(self, input_dim, hidden_dim, rng, dtype=np.float32, name="gru"):
        super().__init__(name)
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        p = {}
        for gate in ("z", "r", "h"):
            p["W" + gate] = glorot_uniform((hidden_dim, input_dim), rng, dtype)
            p["U" + gate] = orthogonal((hidden_dim, hidden_dim), rng, dtype)
            p["b" + gate] = np.zeros(hidden_dim, dtype=dtype)
        self.params = p

    def forward(self, x, h0=None, training=False, rng=None):
        x, squeeze = _as_batched(x, self.input_dim, self.name)
        p = self.params
        B, T, _ = x.shape
        H = self.hidden_dim

        Uzr, Uh = _stack(p, "U", "zr"), p["Uh"]
        xp = _project(x, _stack(p, "W", "zrh"), _stack(p, "b", "zrh"))

        h_all = np.empty((B, T + 1, H), dtype=x.dtype)
        h_all[:, 0] = _initial_state(h0, B, H, x.dtype, self.name)
        zr_all = np.empty((B, T, 2 * H), dtype=x.dtype)
        hc_all = np.empty((B, T, H), dtype=x.dtype)
        for t in range(T):
            h_prev = h_all[:, t]
            zr = zr_all[:, t]
            zr[...] = _sigmoid(xp[:, t, : 2 * H] + h_prev @ Uzr.T)
            z, r = zr[:, :H], zr[:, H:]
            hc = np.tanh(xp[:, t, 2 * H :] + (r * h_prev) @ Uh.T)
            h_all[:, t + 1] = (1.0 - z) * h_prev + z * hc
            hc_all[:, t] = hc
        self._cache = (x, h_all, zr_all, hc_all, squeeze)
        h_seq = h_all[:, 1:]
        return h_seq[0] if squeeze else h_seq

    def backward(self, dh_seq, input_grad=True):
        """Returns ``(dx, dh0)``; ``input_grad=False`` skips ``dx`` (None) for data inputs."""
        x, h_all, zr_all, hc_all, squeeze = self._take_cache()
        p = self.params
        B, T, H = hc_all.shape
        Uzr, Uh = _stack(p, "U", "zr"), p["Uh"]
        dh_seq = _upstream(dh_seq, (B, T, H), squeeze, x.dtype, self.name)

        da = np.empty((B, T, 3 * H), dtype=x.dtype)  # pre-activations z, r, hc
        dh = np.zeros((B, H), dtype=x.dtype)
        for t in range(T - 1, -1, -1):
            dh = dh + dh_seq[:, t]
            h_prev = h_all[:, t]
            z, r = zr_all[:, t, :H], zr_all[:, t, H:]
            hc = hc_all[:, t]
            da_t = da[:, t]

            da_t[:, :H] = dh * (hc - h_prev) * z * (1.0 - z)
            da_t[:, 2 * H :] = dh * z * (1.0 - hc * hc)
            drh = da_t[:, 2 * H :] @ Uh
            da_t[:, H : 2 * H] = drh * h_prev * r * (1.0 - r)

            dh = dh * (1.0 - z) + da_t[:, : 2 * H] @ Uzr + drh * r

        da2 = da.reshape(B * T, 3 * H)
        h_prev = h_all[:, :T].reshape(B * T, H)
        rh = zr_all[:, :, H:].reshape(B * T, H) * h_prev
        self.grads = {
            **_per_gate(da2.T @ x.reshape(B * T, -1), "W", "zrh"),
            **_per_gate(da2[:, : 2 * H].T @ h_prev, "U", "zr"),
            "Uh": da2[:, 2 * H :].T @ rh,
            **_per_gate(da2.sum(axis=0), "b", "zrh"),
        }
        return _input_grads(da2, p, "zrh", x, dh, squeeze, input_grad)


class Lstm(Layer):
    """Standard LSTM (input/forget/output gates, no peepholes)."""

    def __init__(self, input_dim, hidden_dim, rng, dtype=np.float32, name="lstm"):
        super().__init__(name)
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        p = {}
        for gate in ("i", "f", "o", "g"):
            p["W" + gate] = glorot_uniform((hidden_dim, input_dim), rng, dtype)
            p["U" + gate] = orthogonal((hidden_dim, hidden_dim), rng, dtype)
            p["b" + gate] = np.zeros(hidden_dim, dtype=dtype)
        self.params = p

    def forward(self, x, h0=None, training=False, rng=None):
        x, squeeze = _as_batched(x, self.input_dim, self.name)
        p = self.params
        B, T, _ = x.shape
        H = self.hidden_dim

        U = _stack(p, "U", "ifog")
        gates = _project(x, _stack(p, "W", "ifog"), _stack(p, "b", "ifog"))
        c_all = np.empty((B, T + 1, H), dtype=x.dtype)
        h_all = np.empty((B, T + 1, H), dtype=x.dtype)
        c_all[:, 0] = 0.0
        h_all[:, 0] = _initial_state(h0, B, H, x.dtype, self.name)
        for t in range(T):
            a = gates[:, t]  # pre-activations, overwritten by the gate values
            a += h_all[:, t] @ U.T
            a[:, : 3 * H] = _sigmoid(a[:, : 3 * H])
            np.tanh(a[:, 3 * H :], out=a[:, 3 * H :])
            i, f, o, g = (a[:, k * H : (k + 1) * H] for k in range(4))
            c = f * c_all[:, t] + i * g
            c_all[:, t + 1] = c
            h_all[:, t + 1] = o * np.tanh(c)
        self._cache = (x, h_all, c_all, gates, squeeze)
        h_seq = h_all[:, 1:]
        return h_seq[0] if squeeze else h_seq

    def backward(self, dh_seq, input_grad=True):
        """Returns ``(dx, dh0)``; ``input_grad=False`` skips ``dx`` (None) for data inputs."""
        x, h_all, c_all, gates, squeeze = self._take_cache()
        p = self.params
        B, T, _ = gates.shape
        H = self.hidden_dim
        U = _stack(p, "U", "ifog")
        dh_seq = _upstream(dh_seq, (B, T, H), squeeze, x.dtype, self.name)

        da = np.empty((B, T, 4 * H), dtype=x.dtype)  # pre-activations i, f, o, g
        dh = np.zeros((B, H), dtype=x.dtype)
        dc = np.zeros((B, H), dtype=x.dtype)
        for t in range(T - 1, -1, -1):
            dh = dh + dh_seq[:, t]
            i, f, o, g = (gates[:, t, k * H : (k + 1) * H] for k in range(4))
            c_prev = c_all[:, t]
            tc = np.tanh(c_all[:, t + 1])
            da_t = da[:, t]

            da_t[:, 2 * H : 3 * H] = dh * tc * o * (1.0 - o)
            dc = dc + dh * o * (1.0 - tc * tc)
            da_t[:, :H] = dc * g * i * (1.0 - i)
            da_t[:, H : 2 * H] = dc * c_prev * f * (1.0 - f)
            da_t[:, 3 * H :] = dc * i * (1.0 - g * g)

            dh = da_t @ U
            dc = dc * f

        da2 = da.reshape(B * T, 4 * H)
        self.grads = {
            **_per_gate(da2.T @ x.reshape(B * T, -1), "W", "ifog"),
            **_per_gate(da2.T @ h_all[:, :T].reshape(B * T, H), "U", "ifog"),
            **_per_gate(da2.sum(axis=0), "b", "ifog"),
        }
        return _input_grads(da2, p, "ifog", x, dh, squeeze, input_grad)
