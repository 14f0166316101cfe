"""GRU and LSTM layers with full backpropagation through time.

Both take [B, T, in] and return the hidden state [B, T, H] at every
timestep, starting from a zero state. A training forward keeps the states
and gates its backward needs; an inference forward keeps nothing.

Each cell's parameters are one gate-stacked array per kind: ``W`` [G*H,in],
``U`` [G*H,H] and ``b`` [G*H], gates in ``GATES`` order. Writing ``X[k]`` for
gate k's row block ``X[k*H:(k+1)*H]``, the GRU recurrence (the convention
every test in this repo targets, gates ``z, r, h``) is

    z_t = sigmoid(W[0] x_t + U[0] h_{t-1} + b[0])
    r_t = sigmoid(W[1] x_t + U[1] h_{t-1} + b[1])
    hc_t = tanh(W[2] x_t + U[2] (r_t * h_{t-1}) + b[2])
    h_t = (1 - z_t) * h_{t-1} + z_t * hc_t

and the LSTM's gates are ``i, f, o, g``. The input projection for all
timesteps is one matmul with the bias folded in; the forward then runs
time-major, one matmul per gate group per step against a contiguous
transposed copy of the recurrent weights, with the gate math in place.
Backward accumulates the weight gradients over all B*T rows at once in
batch-major order, in the same stacked layout.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, glorot_uniform, orthogonal


def _sigmoid(x, out=None):
    """0.5 * (1 + tanh(0.5 * x)) into ``out`` (which may be ``x``) or a new array.
    The tanh form has no overflow for any finite x and makes no masked copies."""
    out = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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


class _Recurrent(Layer):
    """Gate-stacked params ``W`` [G*H,in], ``U`` [G*H,H] and ``b`` [G*H], gates in
    ``GATES`` order; ``rng=None`` leaves the weights zero."""

    GATES = ""

    def __init__(self, input_dim, hidden_dim, rng, dtype=np.float32, name=None):
        super().__init__(name or type(self).__name__.lower())
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        G, H = len(self.GATES) * hidden_dim, hidden_dim
        W, U = np.zeros((G, input_dim), dtype=dtype), np.zeros((G, H), dtype=dtype)
        if rng is not None:
            for k in range(len(self.GATES)):  # initial draws per gate, in gate order
                W[k * H : (k + 1) * H] = glorot_uniform((H, input_dim), rng, dtype)
                U[k * H : (k + 1) * H] = orthogonal((H, H), rng, dtype)
        self.params = {"W": W, "U": U, "b": np.zeros(G, dtype=dtype)}

    def _start(self, x):
        """``x`` [B,T,in]'s [T,B,G] input projection and the [T+1,B,H] states,
        zero at step 0."""
        B, T, _ = x.shape
        h_all = np.empty((T + 1, B, self.hidden_dim), dtype=x.dtype)
        h_all[0] = 0.0
        return _project(x, self.params["W"], self.params["b"]), h_all


class Gru(_Recurrent):
    GATES = "zrh"

    def forward(self, x, training=False, rng=None):
        xp, h_all = self._start(x)
        T, B, H, U = xp.shape[0], xp.shape[1], self.hidden_dim, self.params["U"]
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
        self._cache = (x, h_all, zr_all, hc_all) if training else None
        return _batch_major(h_all[1:])

    def backward(self, dh_seq, input_grad=True):
        """Returns ``dx``; ``input_grad=False`` skips it (None) for data inputs."""
        x, h_all, zr_all, hc_all = self._take_cache()
        T, B, H = hc_all.shape
        Uzr, Uh = self.params["U"][: 2 * H], self.params["U"][2 * H :]
        dh_seq = np.asarray(dh_seq, dtype=x.dtype)

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

            if t:  # the gradient into the zero initial state is never used
                dh = dh * (1.0 - z) + da_t[:, : 2 * H] @ Uzr + drh * r

        da2 = da.reshape(B * T, 3 * H)
        h_prev = _batch_major(h_all[:T]).reshape(B * T, H)
        rh = _batch_major(zr_all[:, :, H:]).reshape(B * T, H) * h_prev
        self.grads = {
            "W": da2.T @ x.reshape(B * T, -1),
            "U": np.concatenate([da2[:, : 2 * H].T @ h_prev, da2[:, 2 * H :].T @ rh]),
            "b": da2.sum(axis=0),
        }
        return (da2 @ self.params["W"]).reshape(x.shape) if input_grad else None


class Lstm(_Recurrent):
    """Standard LSTM (input/forget/output gates, no peepholes)."""

    GATES = "ifog"

    def forward(self, x, training=False, rng=None):
        gates, h_all = self._start(x)
        T, B, H = gates.shape[0], gates.shape[1], self.hidden_dim
        U_t = np.ascontiguousarray(self.params["U"].T)
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
        self._cache = (x, h_all, c_all, gates) if training else None
        return _batch_major(h_all[1:])

    def backward(self, dh_seq, input_grad=True):
        """Returns ``dx``; ``input_grad=False`` skips it (None) for data inputs."""
        x, h_all, c_all, gates = self._take_cache()
        T, B, _ = gates.shape
        U = self.params["U"]
        H = self.hidden_dim
        dh_seq = np.asarray(dh_seq, dtype=x.dtype)

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

            if t:  # the gradients into the zero initial state are never used
                dh = da_t @ U
                dc = dc * f

        da2 = da.reshape(B * T, 4 * H)
        self.grads = {
            "W": da2.T @ x.reshape(B * T, -1),
            "U": da2.T @ _batch_major(h_all[:T]).reshape(B * T, H),
            "b": da2.sum(axis=0),
        }
        return (da2 @ self.params["W"]).reshape(x.shape) if input_grad else None
