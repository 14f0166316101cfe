import struct

import numpy as np
import pytest
from hypothesis import strategies as st


def float_values(dtype, lo=-8.0, hi=8.0):
    """Floats of ``dtype`` in [lo, hi] (any non-NaN float for ``None``) mixed with
    signed zeros, infinities, subnormals and the largest finite values."""
    tiny, big = float(np.finfo(dtype).smallest_subnormal), float(np.finfo(dtype).max)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 7 * tiny, big, -big])
    width = np.dtype(dtype).itemsize * 8
    return st.one_of(special, st.floats(lo, hi, allow_nan=False, width=width))


def wav_bytes(channels, sample_rate, bits=16, fmt_tag=1):
    """Build a RIFF/WAVE byte string from raw per-channel sample values."""
    n_channels = len(channels)
    n_frames = len(channels[0])
    frames = bytearray()
    for i in range(n_frames):
        for ch in channels:
            v = ch[i]
            if fmt_tag == 3:
                frames += struct.pack("<f", v)
            elif bits == 8:
                frames += struct.pack("<B", v)
            elif bits == 16:
                frames += struct.pack("<h", v)
            elif bits == 24:
                frames += int(v).to_bytes(3, "little", signed=True)
            elif bits == 32:
                frames += struct.pack("<i", v)
            else:
                raise ValueError(bits)
    byte_rate = sample_rate * n_channels * bits // 8
    block_align = n_channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, n_channels, sample_rate, byte_rate, block_align, bits
    )
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(frames)) + bytes(frames)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.fixture
def make_wav(tmp_path):
    def _make(name, channels, sample_rate, bits=16, fmt_tag=1):
        path = tmp_path / name
        path.write_bytes(wav_bytes(channels, sample_rate, bits=bits, fmt_tag=fmt_tag))
        return path

    return _make


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
