"""Independent reference implementations the tests check the package against.

Everything here is deliberately slow and literal: direct O(n^2) DFT and
DCT sums, scalar-loop filterbank construction, central finite differences,
GRU/LSTM recurrences evaluated one unit at a time, Fraction-exact
metric counting, a window-by-window cut with explicit padding, a
frame-by-frame average of window predictions, a per-cell OpenFace CSV
reader and the epoch loop's best-epoch and early-stop counters. None of it
shares transform code with the package, except ``from_videos_concat``: the container
builder's earlier gather-then-concatenate form, which reuses the package's
start, label and row helpers because it pins only how gathered rows are laid
out.
"""

import csv
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from emofuse.errors import ParseError, SchemaError


def hann_direct(n):
    return np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * k / n) for k in range(n)])


def dft_power_direct(frame):
    """|DFT|^2 of a real frame for bins 0..n//2, via the explicit sum."""
    n = len(frame)
    n_bins = n // 2 + 1
    out = np.zeros(n_bins)
    for k in range(n_bins):
        re = 0.0
        im = 0.0
        for t in range(n):
            ang = -2.0 * math.pi * k * t / n
            re += frame[t] * math.cos(ang)
            im += frame[t] * math.sin(ang)
        out[k] = re * re + im * im
    return out


def mel_weights_direct(sample_rate, n_fft, n_mels, fmin, fmax):
    """Triangular mel filterbank built with scalar loops, peak weight 1."""

    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    edges = [
        to_hz(to_mel(fmin) + (to_mel(fmax) - to_mel(fmin)) * i / (n_mels + 1))
        for i in range(n_mels + 2)
    ]
    weights = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for b in range(n_bins):
            f = b * sample_rate / n_fft
            up = (f - lo) / (mid - lo)
            down = (hi - f) / (hi - mid)
            weights[m, b] = max(0.0, min(up, down))
    return weights


def mel_spectrogram_direct(samples, sample_rate, n_fft, hop, n_mels, fmin, fmax, floor):
    """Full reference chain: pad, frame, window, direct DFT, filterbank, log."""
    x = np.asarray(samples, dtype=np.float64)
    pad = n_fft // 2
    padded = np.pad(x, pad, mode="reflect") if len(x) > 1 else np.pad(x, pad, mode="edge")
    window = hann_direct(n_fft)
    n_frames = 1 + (len(padded) - n_fft) // hop
    power = np.zeros((n_fft // 2 + 1, n_frames))
    for j in range(n_frames):
        frame = padded[j * hop : j * hop + n_fft] * window
        power[:, j] = dft_power_direct(frame)
    fb = mel_weights_direct(sample_rate, n_fft, n_mels, fmin, fmax)
    pooled = power.mean(axis=1)
    band = np.zeros(n_mels)
    for m in range(n_mels):
        band[m] = float(np.dot(fb[m], pooled))
    return np.log10(np.maximum(band, floor))


def dct2_ortho_direct(x):
    """Orthonormal DCT-II via the explicit cosine sum."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = 0.0
        for t in range(n):
            s += x[t] * math.cos(math.pi * (2 * t + 1) * k / (2 * n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def mfcc_direct(samples, sample_rate, n_fft, hop, n_mels, n_mfcc, fmin, fmax, floor):
    logmel = mel_spectrogram_direct(samples, sample_rate, n_fft, hop, n_mels, fmin, fmax, floor)
    return dct2_ortho_direct(logmel)[:n_mfcc]


# --------------------------------------------------------------------------
# OpenFace CSV, one cell at a time
# --------------------------------------------------------------------------


OpenfaceRow = namedtuple("OpenfaceRow", "frame_index features valid confidence")


def openface_cells(path, selection):
    """``float()`` on each checked cell of each row read by ``csv``.

    The records a well-formed file must yield: the selected features of rows
    whose ``success`` is nonzero (zeros otherwise), ordered by ``frame``. It
    reads more than plain CSV numbers (quoted cells, ``1_0``-style literals,
    rows of any width that holds the checked columns), so it pins the
    parser's records, not the files the parser accepts. Its errors carry the
    parser's categories: ParseError for a bad cell, a ``csv`` refusal or text
    that is not UTF-8, SchemaError for a missing header, column or data row.
    """
    records = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = enumerate(csv.reader(fh, skipinitialspace=True), start=1)
            first = next(rows, None)
            if first is None:
                raise SchemaError(f"{path}: empty CSV")
            col = {name.strip(): i for i, name in enumerate(first[1])}
            missing = [c for c in selection.include_columns if c not in col]
            if missing:
                raise SchemaError(f"{path}: missing column(s) {missing}")

            for row_no, row in rows:
                if not row:
                    continue

                def bad(name, what):
                    idx = col[name]
                    text = row[idx] if idx < len(row) else "<missing>"
                    return ParseError(f"{path}: row {row_no}, column {name!r}: {what} value {text!r}")

                def cell(name):
                    try:
                        value = float(row[col[name]])
                    except (ValueError, IndexError):
                        raise bad(name, "non-numeric") from None
                    if not math.isfinite(value):
                        raise bad(name, "non-finite")
                    return value

                valid = "success" not in col or cell("success") != 0.0
                confidence = cell("confidence") if "confidence" in col else 1.0
                frame = int(cell("frame")) if "frame" in col else len(records) + 1
                names = selection.include_columns
                feats = np.zeros(len(names), dtype=np.float32)
                if valid:
                    with np.errstate(over="ignore"):  # beyond float32 -> inf
                        feats = np.array([cell(c) for c in names], dtype=np.float32)
                    for c, x in zip(names, feats):
                        if not math.isfinite(x):
                            raise bad(c, "non-finite")
                records.append(OpenfaceRow(frame, feats, valid, confidence))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not records:
        raise SchemaError(f"{path}: no data rows")
    records.sort(key=lambda r: r.frame_index)
    return records


# --------------------------------------------------------------------------
# Finite differences
# --------------------------------------------------------------------------


def numeric_gradient(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def max_rel_err(analytic, numeric, atol=1e-7):
    """Worst elementwise relative error, ignoring entries tiny on both sides."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    assert a.shape == n.shape
    diff = np.abs(a - n)
    scale = np.maximum(np.abs(a), np.abs(n))
    ok = diff <= atol
    rel = np.where(ok, 0.0, diff / np.maximum(scale, 1e-300))
    return float(rel.max()) if rel.size else 0.0


# --------------------------------------------------------------------------
# Recurrent cells, one unit at a time
# --------------------------------------------------------------------------


def _logistic(v):
    return 1.0 / (1.0 + math.exp(-v))


def _gate(p, gate, k, x_t, h):
    """Pre-activation of unit k of one gate: W x_t + U h + b, summed by hand."""
    w, u = p["W" + gate][k], p["U" + gate][k]
    return (
        sum(float(w[j]) * float(x_t[j]) for j in range(len(x_t)))
        + sum(float(u[j]) * h[j] for j in range(len(h)))
        + float(p["b" + gate][k])
    )


def gru_forward_direct(x, p):
    """GRU hidden states [B,T,H] from per-gate parameters and a zero h0.

    z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
    hc = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * hc.
    """
    B, T, _ = x.shape
    H = len(p["bz"])
    out = np.zeros((B, T, H))
    for b in range(B):
        h = [0.0] * H
        for t in range(T):
            z = [_logistic(_gate(p, "z", k, x[b, t], h)) for k in range(H)]
            r = [_logistic(_gate(p, "r", k, x[b, t], h)) for k in range(H)]
            rh = [r[j] * h[j] for j in range(H)]
            hc = [math.tanh(_gate(p, "h", k, x[b, t], rh)) for k in range(H)]
            h = [(1.0 - z[k]) * h[k] + z[k] * hc[k] for k in range(H)]
            out[b, t] = h
    return out


def lstm_forward_direct(x, p):
    """LSTM hidden states [B,T,H] from per-gate parameters, zero h0 and c0.

    i, f, o = sigmoid(W x + U h + b) per gate, g = tanh(Wg x + Ug h + bg),
    c' = f * c + i * g, h' = o * tanh(c').
    """
    B, T, _ = x.shape
    H = len(p["bi"])
    out = np.zeros((B, T, H))
    for b in range(B):
        h, c = [0.0] * H, [0.0] * H
        for t in range(T):
            i, f, o = (
                [_logistic(_gate(p, gate, k, x[b, t], h)) for k in range(H)]
                for gate in "ifo"
            )
            g = [math.tanh(_gate(p, "g", k, x[b, t], h)) for k in range(H)]
            c = [f[k] * c[k] + i[k] * g[k] for k in range(H)]
            h = [o[k] * math.tanh(c[k]) for k in range(H)]
            out[b, t] = h
    return out


# --------------------------------------------------------------------------
# Metric oracle (exact rational arithmetic)
# --------------------------------------------------------------------------


def metric_oracle(pred, truth, w_f1, w_acc, exclude_class=7):
    """Accuracy / macro F1 / combined as Fractions, counted by hand."""
    pairs = [(p, t) for p, t in zip(pred, truth) if t != exclude_class]
    if not pairs:
        return None
    n = len(pairs)
    acc = Fraction(sum(1 for p, t in pairs if p == t), n)
    f1s = []
    per_class = {}
    for c in range(7):
        tp = sum(1 for p, t in pairs if p == c and t == c)
        fp = sum(1 for p, t in pairs if p == c and t != c)
        fn = sum(1 for p, t in pairs if p != c and t == c)
        if tp + fp + fn == 0:
            continue
        f1 = Fraction(0) if tp == 0 else Fraction(2 * tp, 2 * tp + fp + fn)
        per_class[c] = f1
        f1s.append(f1)
    macro = sum(f1s) / len(f1s) if f1s else Fraction(0)
    combined = Fraction(w_f1).limit_denominator() * macro + Fraction(w_acc).limit_denominator() * acc
    return {"accuracy": acc, "macro_f1": macro, "combined": combined, "per_class": per_class}


# --------------------------------------------------------------------------
# Windowing and per-frame scoring, one window / one frame at a time
# --------------------------------------------------------------------------


def cut_windows_direct(audio, video, raw_labels, length, stride):
    """Stacked ``(audio, video, labels, starts, pads)`` of one video's windows.

    Starts walk the stride grid while a full window fits, plus an end-anchored
    window when tail frames are left over; a video shorter than one window
    gets the single start 0. Each window is sliced on its own and padded by
    repeating its last real row; label -1 becomes class 7.
    """
    audio = np.asarray(audio).astype(np.float32)
    video = np.asarray(video).astype(np.float32)
    labels = np.array([7 if raw == -1 else raw for raw in raw_labels], dtype=np.int64)
    n = len(labels)
    starts = []
    s = 0
    while s + length <= n:
        starts.append(s)
        s += stride
    if not starts:
        starts = [0]
    elif starts[-1] + length < n:
        starts.append(n - length)
    out = ([], [], [], [], [])
    for start in starts:
        stop = min(start + length, n)
        pad = length - (stop - start)
        rows = [audio[start:stop], video[start:stop], labels[start:stop]]
        if pad:
            rows = [np.concatenate([r, np.repeat(r[-1:], pad, axis=0)]) for r in rows]
        for acc, value in zip(out, (*rows, start, pad)):
            acc.append(value)
    a, v, y, st, pd = out
    return np.stack(a), np.stack(v), np.stack(y), np.array(st), np.array(pd)


def from_videos_concat(videos, window_len, stride):
    """``(audio, video, labels, starts, pads)`` of ``WindowDataset.from_videos``
    as it was first built: every video's windows gathered into arrays of their
    own, then each field concatenated across videos."""
    from emofuse.dataset import window_rows
    from emofuse.sequencing import remap_label, window_starts

    parts = []
    for track, audio, video in videos:
        n = len(track.labels)
        starts = np.array(window_starts(n, window_len, stride), dtype=np.int64)
        pads = np.maximum(0, starts + window_len - n)
        idx = np.minimum(window_rows(starts, pads, window_len)[0], n - 1)
        audio, video = (np.asarray(x, dtype=np.float32) for x in (audio, video))
        parts.append((audio[idx], video[idx], remap_label(track.labels)[idx], starts, pads))
    return tuple(np.concatenate(p) for p in zip(*parts))


def frame_scores_direct(window_probs, starts, pads, n_frames):
    """Per-frame mean of the real rows of every window covering the frame.

    Windows are summed in ``(start, pad)`` order, frame by frame, in float64;
    the label is the first class with the largest mean.
    """
    order = sorted(range(len(starts)), key=lambda k: (starts[k], pads[k]))
    probs = np.zeros((n_frames, np.shape(window_probs)[-1]))
    labels = np.zeros(n_frames, dtype=np.int64)
    for f in range(n_frames):
        total, count = np.zeros(probs.shape[1]), 0
        for k in order:
            row = f - starts[k]
            if 0 <= row < len(window_probs[k]) - pads[k]:
                total = total + np.asarray(window_probs[k][row], dtype=np.float64)
                count += 1
        probs[f] = total / count
        best = 0
        for c in range(1, probs.shape[1]):
            if probs[f, c] > probs[f, best]:
                best = c
        labels[f] = best
    return labels, probs


# --------------------------------------------------------------------------
# Post-recurrent layers and RMSProp in their first, out-of-place form
# --------------------------------------------------------------------------
# The package builds these from in-place, select-free passes; each must
# equal the formula here bit for bit.


def prelu_select(x, alpha, dy):
    """PReLU forward, input gradient and slope gradient through ``np.where``."""
    y = np.where(x > 0, x, alpha * x)
    neg = x <= 0
    dalpha = (dy * x * neg).reshape(-1, x.shape[-1]).sum(axis=0).astype(alpha.dtype)
    return y, np.where(neg, alpha * dy, dy), dalpha


def batchnorm_np_var(x, gamma, beta, running_mean, running_var, momentum, eps, training, dy):
    """Batch normalization through ``np.mean``/``np.var`` and whole-array temporaries.

    Returns ``(y, dx, dgamma, dbeta, running_mean, running_var)``.
    """
    flat = x.reshape(-1, x.shape[-1])
    if training:
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
        m = x.dtype.type(momentum)
        running_mean = (m * running_mean + (1 - m) * mean).astype(x.dtype)
        running_var = (m * running_var + (1 - m) * var).astype(x.dtype)
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gamma * xhat + beta
    dy2, xhat2 = dy.reshape(flat.shape), xhat.reshape(flat.shape)
    dgamma, dbeta = (dy2 * xhat2).sum(axis=0), dy2.sum(axis=0)
    dxhat = dy * gamma
    if training:
        dxhat2 = dxhat.reshape(flat.shape)
        mean_dxhat = dxhat2.mean(axis=0)
        mean_dxhat_xhat = (dxhat2 * xhat2).mean(axis=0)
        dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    else:
        dx = dxhat * inv_std
    return y, dx, dgamma, dbeta, running_mean, running_var


def dropout_float_mask(x, rate, rng, dy):
    """Inverted dropout through a float mask cast from one ``rng.random`` draw."""
    if rate == 0.0:
        return x, dy
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return x * keep * scale, dy * keep / (1.0 - rate)


def rmsprop_out_of_place(params, grads, acc, learning_rate, rho, eps):
    """One RMSProp step that rebinds every accumulator to a new array."""
    for name, p in params.items():
        g = grads[name]
        a = acc.get(name)
        if a is None:
            a = np.zeros_like(p)
        a = rho * a + (1.0 - rho) * (g * g)
        acc[name] = a
        p -= (learning_rate * g / np.sqrt(a + eps)).astype(p.dtype)


def counter_loop(scores, epochs, patience, saved=(0, -math.inf, -1, 0)):
    """The epoch loop's best-epoch and early-stop bookkeeping kept as counters, the
    form it had when a state checkpoint stored them beside its history.

    ``scores[e]`` is epoch e + 1's validation score; ``saved`` holds the counters a
    resumed run restores: (epoch_completed, best_metric, best_epoch,
    epochs_since_improve). Returns the counters after the run, the epochs that
    rewrote the best checkpoint, and whether the run stopped early.
    """
    completed, best_metric, best_epoch, since = saved
    rewrote, stopped = [], False
    for epoch in range(completed, epochs):
        if scores[epoch] > best_metric:
            best_metric, best_epoch, since = scores[epoch], epoch + 1, 0
            rewrote.append(epoch + 1)
        else:
            since += 1
        completed = epoch + 1
        if patience > 0 and since >= patience:
            stopped = True
            break
    return (completed, best_metric, best_epoch, since), rewrote, stopped


def assert_same_bits(new, old):
    """Equal dtype, shape and bits; a NaN matches any NaN."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape, (new.dtype, new.shape, old.dtype, old.shape)
    nan = np.isnan(old)
    assert (np.isnan(new) == nan).all()
    uint = np.dtype(f"u{old.dtype.itemsize}")
    assert (new.view(uint)[~nan] == old.view(uint)[~nan]).all()
