"""WAV decoding and per-chunk audio features (40 MFCC + 128 mel bands = 168).

The audio track of a video is cut into as many half-overlapping chunks as the
annotation file has lines, and each chunk is summarized by one 168-dimensional
vector: 40 MFCC coefficients followed by 128 log-mel band energies.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    AudioFormatError,
    DomainError,
    RangeError,
    ShapeError,
    UnsupportedAudioError,
)

MFCC_DIM = 40
MEL_DIM = 128


@dataclass(frozen=True)
class AudioSignal:
    """Mono PCM buffer, samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class DspConfig:
    n_fft: int = 2048
    hop_length: int = 512
    n_mels: int = MEL_DIM
    n_mfcc: int = MFCC_DIM
    log_floor: float = 1e-10

    def __post_init__(self):
        for name in ("n_fft", "hop_length", "n_mels", "n_mfcc"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n_fft < 1 or self.hop_length < 1:
            raise DomainError("n_fft and hop_length must be positive")
        if self.n_mels < 1:
            raise DomainError("n_mels must be positive")
        if self.n_fft // 2 + 1 < self.n_mels:
            raise DomainError(
                f"n_fft {self.n_fft} gives {self.n_fft // 2 + 1} frequency bins, "
                f"fewer than n_mels ({self.n_mels})"
            )
        if not 0 <= self.n_mfcc <= self.n_mels:
            raise DomainError(
                f"n_mfcc ({self.n_mfcc}) must be in [0, n_mels ({self.n_mels})]"
            )
        if not (math.isfinite(self.log_floor) and self.log_floor > 0):
            raise DomainError(f"log_floor must be finite and positive, got {self.log_floor}")


# --------------------------------------------------------------------------
# WAV decoding
# --------------------------------------------------------------------------

_PCM_TAG = 1
_FLOAT_TAG = 3


def load_wav(path) -> AudioSignal:
    """Decode a RIFF/WAVE file to a mono signal in [-1, 1].

    Supports little-endian PCM at 8 (unsigned), 16, 24 and 32 bits plus
    32-bit IEEE float, whose samples must be finite. Multichannel input is
    averaged to mono.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise AudioFormatError(f"{path}: missing fmt or data chunk")

    tag, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1 or sample_rate < 1:
        raise AudioFormatError(f"{path}: invalid channel count or sample rate")
    if tag == _PCM_TAG and bits == 8:
        raw = np.frombuffer(payload, dtype=np.uint8)
        x = (raw.astype(np.float64) - 128.0) / 128.0
    elif tag == _PCM_TAG and bits == 16:
        raw = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2")
        x = raw.astype(np.float64) / 32768.0
    elif tag == _PCM_TAG and bits == 24:
        b = np.frombuffer(payload[: len(payload) // 3 * 3], dtype=np.uint8)
        b = b.reshape(-1, 3).astype(np.uint32)
        word = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        signed = word.astype(np.int32)
        signed[signed >= 1 << 23] -= 1 << 24
        x = signed.astype(np.float64) / float(1 << 23)
    elif tag == _PCM_TAG and bits == 32:
        raw = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<i4")
        x = raw.astype(np.float64) / float(1 << 31)
    elif tag == _FLOAT_TAG and bits == 32:
        x = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4").astype(
            np.float64
        )
        if not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x)))
            raise AudioFormatError(f"{path}: non-finite float sample {x[bad]} at index {bad}")
    else:
        raise UnsupportedAudioError(
            f"{path}: unsupported encoding (format tag {tag}, {bits}-bit)"
        )

    n_frames = len(x) // n_channels
    x = x[: n_frames * n_channels].reshape(n_frames, n_channels).mean(axis=1)
    return AudioSignal(samples=x, sample_rate=int(sample_rate))


# --------------------------------------------------------------------------
# Chunking
# --------------------------------------------------------------------------


def chunk_boundaries(duration_s: float, n_chunks: int) -> np.ndarray:
    """Equal-length half-overlap tiling of [0, duration_s] into n_chunks.

    Chunk length is L = 2*duration_s/(n_chunks+1) with hop L/2, the unique
    equal-length tiling whose consecutive chunks share exactly half a chunk
    and whose last chunk ends at duration_s. Returns an [n_chunks, 2] array
    of (start_s, end_s) rows.
    """
    if n_chunks < 1:
        raise DomainError(f"n_chunks must be >= 1, got {n_chunks}")
    if duration_s <= 0:
        raise DomainError(f"duration_s must be positive, got {duration_s}")
    hop = duration_s / (n_chunks + 1)
    grid = np.arange(n_chunks + 2, dtype=np.float64) * hop
    grid[-1] = duration_s
    out = np.stack([grid[:-2], grid[2:]], axis=1)
    return out


# --------------------------------------------------------------------------
# Spectral features
# --------------------------------------------------------------------------


def hann_window(n: int) -> np.ndarray:
    # periodic form, 0.5 - 0.5 cos(2 pi k / n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, cfg: DspConfig) -> np.ndarray:
    """Triangular mel filterbank, [n_mels, n_fft//2+1], peak weight 1, spanning
    0 Hz to the Nyquist frequency."""
    n_bins = cfg.n_fft // 2 + 1
    bin_freqs = np.arange(n_bins, dtype=np.float64) * sample_rate / cfg.n_fft
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2), cfg.n_mels + 2))
    lower = edges[:-2][:, None]
    center = edges[1:-1][:, None]
    upper = edges[2:][:, None]
    up = (bin_freqs[None, :] - lower) / (center - lower)
    down = (upper - bin_freqs[None, :]) / (upper - center)
    return np.maximum(0.0, np.minimum(up, down))


@functools.lru_cache(maxsize=8)
def _band_table(sample_rate: int, cfg: DspConfig):
    """Read-only ``(inverse, steps)`` of ``mel_filterbank(sample_rate, cfg)``: with
    the bands sorted widest first, step k holds the k-th nonzero bin and weight
    of each of the n_k bands wider than k; ``inverse`` restores the band order."""
    fb = mel_filterbank(sample_rate, cfg)
    order = np.argsort(-np.count_nonzero(fb, axis=1), kind="stable")
    band, bin_ = np.nonzero(fb[order])  # by band, each band's bins in ascending order
    weight = fb[order[band], bin_, None]
    rank = np.arange(len(band)) - np.searchsorted(band, band)  # k of each bin in its band
    steps = tuple((bin_[rank == k], weight[rank == k]) for k in range(rank.max(initial=-1) + 1))
    inverse = np.argsort(order)
    for part in (inverse, *(a for step in steps for a in step)):
        part.flags.writeable = False
    return inverse, steps


def _dct2_ortho(x, n_out: int) -> np.ndarray:
    """The first ``n_out`` orthonormal DCT-II coefficients of each row of ``x``, one
    matrix product per row, so a row does not depend on the rows that share the call."""
    n = x.shape[-1]
    basis = np.cos(np.pi / n * (np.arange(n)[:, None] + 0.5) * np.arange(n_out)) * math.sqrt(2 / n)
    basis[:, :1] = math.sqrt(1 / n)
    return np.matmul(x[:, None, :], basis)[:, 0]


# chunks per rFFT call; caps the frame buffer at ~6 MB for the default DspConfig
_BLOCK = 128


def _frame_index(length: int, cfg: DspConfig) -> np.ndarray:
    """[n_frames, n_fft] sample offsets of the centered STFT frames of a chunk.

    The padding is ``np.pad`` of the chunk by n_fft//2 on each side, reflect
    mode (edge mode for a 1-sample chunk), applied to the offsets themselves.
    """
    pad = cfg.n_fft // 2
    padded = np.pad(np.arange(length), pad, mode="reflect" if length > 1 else "edge")
    n_frames = 1 + (len(padded) - cfg.n_fft) // cfg.hop_length
    return padded[np.arange(cfg.n_fft)[None, :] + cfg.hop_length * np.arange(n_frames)[:, None]]


def _stft_power(samples, starts, frame_index, window) -> np.ndarray:
    """Hann STFT power [len(starts), n_frames, n_fft//2+1] of equal-length chunks."""
    frames = samples[starts[:, None, None] + frame_index]
    frames *= window
    spec = np.fft.rfft(frames, axis=-1)
    return spec.real**2 + spec.imag**2


def _fused_rows(samples, starts, stops, sample_rate, cfg) -> np.ndarray:
    """[n_chunks, n_mfcc + n_mels] MFCC ++ log-mel rows of samples[start:stop].

    Chunks are grouped by length so each group shares one frame index, and
    each block of up to ``_BLOCK`` chunks takes one rFFT and one frame mean.
    A band's energy adds ``weight * power`` over its nonzero bins in bin order,
    starting from 0, so a row depends on its own chunk alone.
    """
    inverse, steps = _band_table(sample_rate, cfg)
    window = hann_window(cfg.n_fft)
    lengths = stops - starts
    band = np.empty((len(starts), cfg.n_mels))
    for length in np.unique(lengths):
        frame_index = _frame_index(int(length), cfg)
        rows = np.flatnonzero(lengths == length)
        for lo in range(0, len(rows), _BLOCK):
            block = rows[lo : lo + _BLOCK]
            power = _stft_power(samples, starts[block], frame_index, window).mean(axis=1).T
            acc = np.zeros((cfg.n_mels, len(block)))
            for bins, weights in steps:
                acc[: len(bins)] += power[bins] * weights
            band[block] = acc[inverse].T
    logmel = np.log10(np.maximum(band, cfg.log_floor))
    mfccs = _dct2_ortho(logmel, cfg.n_mfcc)
    return np.concatenate([mfccs, logmel], axis=1)


def extract_chunk_features(
    signal: AudioSignal,
    boundaries: np.ndarray,
    cfg: DspConfig = DspConfig(),
) -> np.ndarray:
    """A float64 [n_chunks, n_mfcc + n_mels] matrix, one row per (start_s, end_s)
    boundary row: the chunk's MFCCs, then its log-mel spectrum.

    The log-mel spectrum is log10 of the chunk's mel band energies, floored at
    ``cfg.log_floor``: its centered, reflect-padded Hann STFT power, mean-pooled
    over frames, through :func:`mel_filterbank`, each band summing its bins in
    bin order. The MFCCs are the first n_mfcc coefficients of that vector's
    orthonormal DCT-II. A chunk whose row is not finite (as when its samples are so
    large that their power overflows) is a :class:`DomainError`.
    """
    bounds = np.asarray(boundaries, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ShapeError(f"boundaries must be [n_chunks, 2], got {bounds.shape}")
    start_s, end_s = bounds[:, 0], bounds[:, 1]
    duration = signal.duration_s
    bad = ~((start_s >= 0) & (end_s <= duration + 1e-9) & (start_s < end_s))
    if bad.any():
        i = int(np.argmax(bad))
        raise RangeError(
            f"chunk {i} [{start_s[i]}, {end_s[i]}) outside signal of {duration}s"
        )
    n = len(signal.samples)
    if n == 0:
        raise DomainError("cannot extract features from an empty signal")
    a = np.clip(np.rint(start_s * signal.sample_rate).astype(np.intp), 0, n - 1)
    b = np.clip(np.rint(end_s * signal.sample_rate).astype(np.intp), a + 1, n)
    samples = np.asarray(signal.samples, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _fused_rows(samples, a, b, signal.sample_rate, cfg)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"chunk {i} [{start_s[i]}, {end_s[i]}) has non-finite features")
    return rows
