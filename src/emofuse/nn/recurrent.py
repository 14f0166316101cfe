"""GRU and LSTM layers with full backpropagation through time.

Both accept [T, in] (one sequence) or [B, T, in] and return the hidden
state at every timestep.

GRU recurrence (the convention every test in this repo targets):

    z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)
    r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)
    hc_t = tanh(Wh x_t + Uh (r_t * h_{t-1}) + bh)
    h_t = (1 - z_t) * h_{t-1} + z_t * hc_t

Parameters are named per gate (``Wz``, ``Uz``, ``bz``, ...), which fixes the
checkpoint layout, and each is a row view of one gate-stacked array per kind
(GRU: ``[Wz;Wr;Wh]``, ``[Uz;Ur;Uh]``, ``[bz;br;bh]``; LSTM: ``[Wi;Wf;Wo;Wg]``,
...), so in-place updates land in the storage the kernels use. The input
projection for all timesteps is one matmul with the bias folded in; the
forward then runs time-major, one matmul per gate group per step against a
contiguous transposed copy of the recurrent weights, with the gate math in
place. Backward accumulates the weight gradients over all B*T rows at once in
batch-major order and returns them as per-gate row views.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Layer, glorot_uniform, orthogonal


def _sigmoid(x, out=None):
    """0.5 * (1 + tanh(0.5 * x)) into ``out`` (which may be ``x``) or a new array.
    The tanh form has no overflow for any finite x and makes no masked copies."""
    out = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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


def _project(x, W, b):
    """x [B,T,in] -> x @ W.T + b as a [T,B,G] view of batch-major rows, the bias
    added in place."""
    B, T, _ = x.shape
    xp = x.reshape(B * T, -1) @ W.T
    xp += b
    return xp.reshape(B, T, -1).transpose(1, 0, 2)


def _batch_major(a):
    """A time-major [T,B,H] array as a contiguous [B,T,H] copy."""
    return np.ascontiguousarray(a.transpose(1, 0, 2))


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


def _input_grads(da2, W, x, dh0, squeeze, input_grad):
    """``(dx, dh0)`` for a backward call; ``dx`` is None without ``input_grad``."""
    dx = None
    if input_grad:
        dx = (da2 @ W).reshape(x.shape[1:] if squeeze else x.shape)
    return dx, (dh0[0] if squeeze else dh0)


class _Recurrent(Layer):
    """Gate-stacked ``W`` [G*H,in], ``U`` [G*H,H] and ``b`` [G*H] storage whose
    per-gate row views are ``params``; ``rng=None`` leaves the weights zero."""

    GATES = ""

    def __init__(self, input_dim, hidden_dim, rng, dtype=np.float32, name=None):
        super().__init__(name or type(self).__name__.lower())
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        G, H = len(self.GATES) * hidden_dim, hidden_dim
        shapes = ((G, input_dim), (G, H), G)
        W, U, b = self._storage = tuple(np.zeros(shape, dtype=dtype) for shape in shapes)
        for k, g in enumerate(self.GATES):  # checkpoint order; initial draws in this order
            rows = slice(k * H, (k + 1) * H)
            self.params.update({"W" + g: W[rows], "U" + g: U[rows], "b" + g: b[rows]})
            if rng is not None:
                W[rows] = glorot_uniform((H, input_dim), rng, dtype)
                U[rows] = orthogonal((H, H), rng, dtype)
        self._views = dict(self.params)

    def _stacked(self):
        """``(W, U, b)``: the storage while every param is still its view, else
        stacked afresh from ``params`` (a rebound param takes effect)."""
        p = self.params
        if all(p[k] is v for k, v in self._views.items()):
            return self._storage
        return tuple(np.concatenate([p[k + g] for g in self.GATES]) for k in "WUb")

    def _start(self, x, h0):
        """``x`` as [B,T,in], whether it was [T,in], its [T,B,G] input projection,
        the stacked ``U`` and the [T+1,B,H] states with ``h0`` at step 0."""
        x, squeeze = _as_batched(x, self.input_dim, self.name)
        W, U, b = self._stacked()
        B, T, _ = x.shape
        h_all = np.empty((T + 1, B, self.hidden_dim), dtype=x.dtype)
        h_all[0] = _initial_state(h0, B, self.hidden_dim, x.dtype, self.name)
        return x, squeeze, _project(x, W, b), U, h_all


class Gru(_Recurrent):
    GATES = "zrh"

    def forward(self, x, h0=None, training=False, rng=None):
        x, squeeze, xp, U, h_all = self._start(x, h0)
        T, B, H = xp.shape[0], xp.shape[1], self.hidden_dim
        Uzr_t, Uh_t = (np.ascontiguousarray(u.T) for u in (U[: 2 * H], U[2 * H :]))
        zr_all = np.empty((T, B, 2 * H), dtype=x.dtype)
        hc_all = np.empty((T, B, H), dtype=x.dtype)
        tmp = np.empty((B, H), dtype=x.dtype)
        for t in range(T):
            h_prev, zr, hc, h = h_all[t], zr_all[t], hc_all[t], h_all[t + 1]
            np.matmul(h_prev, Uzr_t, out=zr)
            zr += xp[t, :, : 2 * H]
            _sigmoid(zr, out=zr)
            z, r = zr[:, :H], zr[:, H:]
            np.matmul(np.multiply(r, h_prev, out=tmp), Uh_t, out=hc)
            hc += xp[t, :, 2 * H :]
            np.tanh(hc, out=hc)
            np.subtract(1.0, z, out=h)  # h = (1 - z) * h_prev + z * hc
            h *= h_prev
            h += np.multiply(z, hc, out=tmp)
        self._cache = (x, h_all, zr_all, hc_all, squeeze)
        h_seq = _batch_major(h_all[1:])
        return h_seq[0] if squeeze else h_seq

    def backward(self, dh_seq, input_grad=True):
        """Returns ``(dx, dh0)``; ``input_grad=False`` skips ``dx`` (None) for data inputs."""
        x, h_all, zr_all, hc_all, squeeze = self._take_cache()
        W, U, _ = self._stacked()
        T, B, H = hc_all.shape
        Uzr, Uh = U[: 2 * H], U[2 * H :]
        dh_seq = _upstream(dh_seq, (B, T, H), squeeze, x.dtype, self.name)

        da = np.empty((B, T, 3 * H), dtype=x.dtype)  # pre-activations z, r, hc
        dh = np.zeros((B, H), dtype=x.dtype)
        for t in range(T - 1, -1, -1):
            dh = dh + dh_seq[:, t]
            h_prev = h_all[t]
            z, r = zr_all[t, :, :H], zr_all[t, :, H:]
            hc = hc_all[t]
            da_t = da[:, t]

            da_t[:, :H] = dh * (hc - h_prev) * z * (1.0 - z)
            da_t[:, 2 * H :] = dh * z * (1.0 - hc * hc)
            drh = da_t[:, 2 * H :] @ Uh
            da_t[:, H : 2 * H] = drh * h_prev * r * (1.0 - r)

            dh = dh * (1.0 - z) + da_t[:, : 2 * H] @ Uzr + drh * r

        da2 = da.reshape(B * T, 3 * H)
        h_prev = _batch_major(h_all[:T]).reshape(B * T, H)
        rh = _batch_major(zr_all[:, :, H:]).reshape(B * T, H) * h_prev
        self.grads = {
            **_per_gate(da2.T @ x.reshape(B * T, -1), "W", "zrh"),
            **_per_gate(da2[:, : 2 * H].T @ h_prev, "U", "zr"),
            "Uh": da2[:, 2 * H :].T @ rh,
            **_per_gate(da2.sum(axis=0), "b", "zrh"),
        }
        return _input_grads(da2, W, x, dh, squeeze, input_grad)


class Lstm(_Recurrent):
    """Standard LSTM (input/forget/output gates, no peepholes)."""

    GATES = "ifog"

    def forward(self, x, h0=None, training=False, rng=None):
        x, squeeze, gates, U, h_all = self._start(x, h0)
        T, B, H = gates.shape[0], gates.shape[1], self.hidden_dim
        U_t = np.ascontiguousarray(U.T)
        c_all = np.zeros((T + 1, B, H), dtype=x.dtype)  # c_0 = 0
        tmp = np.empty((B, 4 * H), dtype=x.dtype)
        for t in range(T):
            a = gates[t]  # pre-activations, overwritten by the gate values
            a += np.matmul(h_all[t], U_t, out=tmp)
            _sigmoid(a[:, : 3 * H], out=a[:, : 3 * H])
            np.tanh(a[:, 3 * H :], out=a[:, 3 * H :])
            i, f, o, g = (a[:, k * H : (k + 1) * H] for k in range(4))
            c, h = c_all[t + 1], h_all[t + 1]
            np.multiply(f, c_all[t], out=c)  # c = f * c_prev + i * g
            c += np.multiply(i, g, out=tmp[:, :H])
            np.tanh(c, out=h)  # h = o * tanh(c)
            h *= o
        self._cache = (x, h_all, c_all, gates, squeeze)
        h_seq = _batch_major(h_all[1:])
        return h_seq[0] if squeeze else h_seq

    def backward(self, dh_seq, input_grad=True):
        """Returns ``(dx, dh0)``; ``input_grad=False`` skips ``dx`` (None) for data inputs."""
        x, h_all, c_all, gates, squeeze = self._take_cache()
        W, U, _ = self._stacked()
        T, B, _ = gates.shape
        H = self.hidden_dim
        dh_seq = _upstream(dh_seq, (B, T, H), squeeze, x.dtype, self.name)

        da = np.empty((B, T, 4 * H), dtype=x.dtype)  # pre-activations i, f, o, g
        dh = np.zeros((B, H), dtype=x.dtype)
        dc = np.zeros((B, H), dtype=x.dtype)
        for t in range(T - 1, -1, -1):
            dh = dh + dh_seq[:, t]
            i, f, o, g = (gates[t, :, k * H : (k + 1) * H] for k in range(4))
            c_prev = c_all[t]
            tc = np.tanh(c_all[t + 1])
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
            **_per_gate(da2.T @ _batch_major(h_all[:T]).reshape(B * T, H), "U", "ifog"),
            **_per_gate(da2.sum(axis=0), "b", "ifog"),
        }
        return _input_grads(da2, W, x, dh, squeeze, input_grad)
