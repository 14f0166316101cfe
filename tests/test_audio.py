import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emofuse import audio
from emofuse.audio import (
    AudioSignal,
    DspConfig,
    chunk_boundaries,
    extract_chunk_features,
    load_wav,
    mel_filterbank,
)
from emofuse.errors import (
    AudioFormatError,
    DomainError,
    RangeError,
    ShapeError,
    UnsupportedAudioError,
)

from oracles import dct2_ortho_direct, mel_spectrogram_direct, mfcc_direct

SMALL = DspConfig(n_fft=256, hop_length=64)


def whole_chunk(samples, sample_rate, cfg):
    """``extract_chunk_features``' row for one chunk spanning all of ``samples``:
    its ``cfg.n_mfcc`` MFCCs, then its ``cfg.n_mels`` log-mel values."""
    x = np.asarray(samples, dtype=np.float64)
    return extract_chunk_features(AudioSignal(x, sample_rate), [[0.0, len(x) / sample_rate]], cfg)[0]


def whole_logmel(samples, sample_rate, cfg):
    return whole_chunk(samples, sample_rate, cfg)[cfg.n_mfcc :]


def whole_mfcc(samples, sample_rate, cfg):
    return whole_chunk(samples, sample_rate, cfg)[: cfg.n_mfcc]


class TestLoadWav:
    def test_int16_scaling(self, make_wav):
        path = make_wav("a.wav", [[0, 16384, -16384, 32767]], 16000)
        sig = load_wav(path)
        assert sig.sample_rate == 16000
        np.testing.assert_allclose(
            sig.samples, [0.0, 0.5, -0.5, 32767 / 32768], atol=1e-12
        )

    def test_stereo_averaged_to_mono(self, make_wav):
        path = make_wav("s.wav", [[32767, 0], [0, 0]], 8000)
        sig = load_wav(path)
        assert sig.samples.shape == (2,)
        np.testing.assert_allclose(sig.samples[0], 32767 / 32768 / 2, atol=1e-12)

    def test_stereo_float_channels_mean_exactly(self, make_wav):
        path = make_wav("sf.wav", [[1.0], [0.0]], 8000, bits=32, fmt_tag=3)
        assert load_wav(path).samples[0] == 0.5

    def test_text_file_is_format_error(self, tmp_path):
        path = tmp_path / "fake.wav"
        path.write_text("definitely not audio")
        with pytest.raises(AudioFormatError):
            load_wav(path)

    def test_uint8(self, make_wav):
        path = make_wav("u8.wav", [[128, 255, 0]], 8000, bits=8)
        np.testing.assert_allclose(
            load_wav(path).samples, [0.0, 127 / 128, -1.0], atol=1e-12
        )

    def test_int24(self, make_wav):
        full = (1 << 23) - 1
        path = make_wav("i24.wav", [[0, full, -(1 << 23)]], 8000, bits=24)
        np.testing.assert_allclose(
            load_wav(path).samples, [0.0, full / (1 << 23), -1.0], atol=1e-12
        )

    def test_int32(self, make_wav):
        path = make_wav("i32.wav", [[0, (1 << 31) - 1]], 8000, bits=32)
        np.testing.assert_allclose(
            load_wav(path).samples, [0.0, ((1 << 31) - 1) / (1 << 31)], atol=1e-12
        )

    def test_float32(self, make_wav):
        path = make_wav("f32.wav", [[0.25, -0.75]], 8000, bits=32, fmt_tag=3)
        np.testing.assert_allclose(load_wav(path).samples, [0.25, -0.75], atol=1e-7)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_sample_is_format_error(self, make_wav, bad):
        path = make_wav("nf.wav", [[0.25, bad, -0.75]], 8000, bits=32, fmt_tag=3)
        with pytest.raises(AudioFormatError, match="non-finite float sample .* at index 1"):
            load_wav(path)

    def test_unsupported_encoding(self, make_wav):
        path = make_wav("alaw.wav", [[0, 0]], 8000, bits=16, fmt_tag=6)
        with pytest.raises(UnsupportedAudioError):
            load_wav(path)

    def test_duration(self, make_wav):
        path = make_wav("d.wav", [[0] * 16000], 16000)
        assert load_wav(path).duration_s == 1.0


class TestChunkBoundaries:
    def test_three_chunks_of_eight_seconds(self):
        np.testing.assert_array_equal(
            chunk_boundaries(8.0, 3), [(0, 4), (2, 6), (4, 8)]
        )

    def test_single_chunk_spans_signal(self):
        np.testing.assert_array_equal(chunk_boundaries(10.0, 1), [(0, 10)])

    def test_five_chunks_of_six_seconds(self):
        np.testing.assert_array_equal(
            chunk_boundaries(6.0, 5), [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6)]
        )

    def test_zero_chunks_rejected(self):
        with pytest.raises(DomainError):
            chunk_boundaries(8.0, 0)

    def test_tiling_properties_sweep(self):
        # dyadic durations make H = T/(n+1) exactly representable
        for n in list(range(1, 200)) + [999, 4096, 10000]:
            T = float(n + 1) * 0.5
            b = chunk_boundaries(T, n)
            assert b.shape == (n, 2)
            assert b[0, 0] == 0.0
            assert b[-1, 1] == T
            L = b[0, 1] - b[0, 0]
            overlap = b[:-1, 1] - b[1:, 0]
            assert (overlap == L / 2).all()
            assert (b[:, 1] - b[:, 0] == L).all()


class TestMelSpectrogram:
    def test_zero_signal_hits_floor(self):
        cfg = SMALL
        out = whole_logmel(np.zeros(500), 16000, cfg)
        np.testing.assert_array_equal(out, np.full(cfg.n_mels, np.log10(cfg.log_floor)))

    def test_sine_peaks_in_band_containing_frequency(self):
        sr, freq = 16000, 440.0
        t = np.arange(4096) / sr
        x = np.sin(2 * np.pi * freq * t)
        cfg = DspConfig(n_fft=1024, hop_length=256)
        out = whole_logmel(x, sr, cfg)
        # the winning band's triangle must contain 440 Hz
        fb = mel_filterbank(sr, cfg)
        band = int(np.argmax(out))
        bin_of_freq = freq * cfg.n_fft / sr
        lo_bin, hi_bin = np.flatnonzero(fb[band])[[0, -1]]
        assert lo_bin <= bin_of_freq <= hi_bin + 1

    def test_amplitude_doubling_adds_log10_4(self, rng):
        x = rng.standard_normal(2000)
        cfg = SMALL
        a = whole_logmel(x, 16000, cfg)
        b = whole_logmel(2.0 * x, 16000, cfg)
        above = a > np.log10(cfg.log_floor) + 1.0  # clear of the floor
        np.testing.assert_allclose(b[above] - a[above], np.log10(4.0), atol=1e-9)

    def test_matches_direct_dft_oracle(self, rng):
        sr = 8000
        cfg = DspConfig(n_fft=128, hop_length=32, n_mels=24, n_mfcc=12)
        for n in (1, 7, 130, 500):
            x = rng.standard_normal(n)
            got = whole_logmel(x, sr, cfg)
            want = mel_spectrogram_direct(
                x, sr, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.fmin, sr / 2, cfg.log_floor
            )
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_all_outputs_finite(self, rng):
        for n in (1, 3, 50, 1000):
            out = whole_logmel(rng.standard_normal(n) * 1e-12, 16000, SMALL)
            assert np.isfinite(out).all()

    def test_deterministic(self, rng):
        x = rng.standard_normal(1000)
        a = whole_logmel(x, 16000, SMALL)
        b = whole_logmel(x.copy(), 16000, SMALL)
        assert (a == b).all()


class TestDspConfig:
    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_log_floor_must_be_finite_and_positive(self, floor):
        with pytest.raises(DomainError, match="log_floor"):
            DspConfig(log_floor=floor)

    @pytest.mark.parametrize("n_mfcc", [-1, 129])
    def test_n_mfcc_outside_zero_to_n_mels(self, n_mfcc):
        with pytest.raises(DomainError, match="n_mfcc"):
            DspConfig(n_mfcc=n_mfcc)

    @pytest.mark.parametrize("n_fft, n_mels", [(1, 128), (2, 128), (4, 128), (252, 128), (64, 40)])
    def test_n_fft_with_fewer_bins_than_mel_bands(self, n_fft, n_mels):
        with pytest.raises(DomainError, match="n_fft"):
            DspConfig(n_fft=n_fft, n_mels=n_mels, n_mfcc=13)

    @pytest.mark.parametrize("n_fft, n_mels", [(254, 128), (256, 128), (78, 40), (1, 1)])
    def test_n_fft_with_a_bin_per_mel_band_is_accepted(self, n_fft, n_mels):
        assert DspConfig(n_fft=n_fft, n_mels=n_mels, n_mfcc=1).n_mels == n_mels


class TestMelFilterbank:
    def test_rows_nonempty_and_nonnegative(self):
        for n_mels, n_fft in ((128, 2048), (40, 512), (24, 128)):
            cfg = DspConfig(n_fft=n_fft, n_mels=n_mels, n_mfcc=min(n_mels, 13))
            fb = mel_filterbank(16000, cfg)
            assert fb.shape == (n_mels, n_fft // 2 + 1)
            assert (fb >= 0).all()
            assert (fb.sum(axis=1) > 0).all()

    def test_fmax_above_nyquist_rejected(self):
        cfg = DspConfig(fmax=9000.0)
        with pytest.raises(DomainError):
            mel_filterbank(16000, cfg)

    @pytest.mark.parametrize("fmin, fmax", [(8000.0, None), (3000.0, 3000.0), (4000.0, 2000.0)])
    def test_fmin_not_below_fmax_rejected(self, fmin, fmax):
        with pytest.raises(DomainError, match=r"^fmin \S+ must be below fmax"):
            mel_filterbank(16000, DspConfig(fmin=fmin, fmax=fmax))


class TestMfcc:
    def test_constant_logmel_is_impulse_at_zero(self):
        # a flat signal drives every band to the same floor value c,
        # so the orthonormal DCT puts c*sqrt(n_mels) in coefficient 0
        cfg = SMALL
        out = whole_mfcc(np.zeros(300), 16000, cfg)
        c = np.log10(cfg.log_floor)
        assert out[0] == pytest.approx(c * np.sqrt(cfg.n_mels), rel=1e-12)
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_dct_basis_vector_against_direct_sum(self):
        e0 = np.zeros(128)
        e0[0] = 1.0
        import scipy.fft

        got = scipy.fft.dct(e0, type=2, norm="ortho")
        want = dct2_ortho_direct(e0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_direct_oracle(self, rng):
        sr = 8000
        cfg = DspConfig(n_fft=128, hop_length=32, n_mels=24, n_mfcc=12)
        x = rng.standard_normal(300)
        got = whole_mfcc(x, sr, cfg)
        want = mfcc_direct(
            x, sr, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.n_mfcc, cfg.fmin, sr / 2, cfg.log_floor
        )
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_parseval_before_truncation(self, rng):
        import scipy.fft

        x = rng.standard_normal(128)
        y = scipy.fft.dct(x, type=2, norm="ortho")
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)


class TestExtractChunkFeatures:
    def _signal(self, rng, seconds=2.0, sr=8000):
        return AudioSignal(samples=rng.standard_normal(int(seconds * sr)) * 0.1, sample_rate=sr)

    def test_fused_dimension(self, rng):
        sig = self._signal(rng)
        feats = extract_chunk_features(sig, chunk_boundaries(sig.duration_s, 3))
        assert feats.shape == (3, 40 + 128) and feats.dtype == np.float64

    def test_identical_chunks_identical_features(self, rng):
        sr = 8000
        base = rng.standard_normal(sr)
        sig = AudioSignal(samples=np.concatenate([base, base]), sample_rate=sr)
        feats = extract_chunk_features(sig, np.array([[0.0, 1.0], [1.0, 2.0]]), SMALL)
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_out_of_range_boundary(self, rng):
        sig = self._signal(rng, seconds=1.0)
        with pytest.raises(RangeError):
            extract_chunk_features(sig, np.array([[0.0, 2.0]]), SMALL)
        rows = np.array([[0.0, 0.5], [0.25, 0.75], [0.5, 1.5], [-1.0, 0.5]])
        with pytest.raises(RangeError, match=r"chunk 2 \[0.5, 1.5\)"):
            extract_chunk_features(sig, rows, SMALL)

    @pytest.mark.parametrize("row", [[float("nan"), 0.5], [0.0, float("nan")], [0.5, 0.5]])
    def test_nan_or_empty_boundary_is_range_error(self, rng, row):
        sig = self._signal(rng, seconds=1.0)
        with pytest.raises(RangeError, match="chunk 1 "):
            extract_chunk_features(sig, np.array([[0.0, 0.5], row]), SMALL)

    def test_boundaries_must_have_two_columns(self, rng):
        sig = self._signal(rng, seconds=1.0)
        with pytest.raises(ShapeError):
            extract_chunk_features(sig, np.array([[0.0, 0.5, 1.0]]), SMALL)
        none = extract_chunk_features(sig, np.zeros((0, 2)), SMALL)
        assert none.shape == (0, SMALL.n_mfcc + SMALL.n_mels)

    def test_empty_signal_is_domain_error(self):
        empty = AudioSignal(samples=np.zeros(0), sample_rate=8000)
        with pytest.raises(DomainError):
            extract_chunk_features(empty, np.array([[0.0, 1e-10]]), SMALL)


# a config small enough for the direct-DFT oracle to check hundreds of chunks
TINY = DspConfig(n_fft=64, hop_length=16, n_mels=12, n_mfcc=6)


def _sample_lengths(sig, bounds):
    a = np.rint(bounds[:, 0] * sig.sample_rate).astype(int)
    b = np.rint(bounds[:, 1] * sig.sample_rate).astype(int)
    a = np.minimum(a, len(sig.samples) - 1)
    return np.minimum(np.maximum(b, a + 1), len(sig.samples)) - a, a


def _check_rows_against_oracle(sig, bounds, cfg, feats):
    """Every row of ``feats`` against the direct DFT/DCT chain, criterion 2's tolerance."""
    fmax = sig.sample_rate / 2 if cfg.fmax is None else cfg.fmax
    lengths, starts = _sample_lengths(sig, bounds)
    assert len(feats) == len(bounds)
    for i, (row, a, n) in enumerate(zip(feats, starts, lengths)):
        chunk = sig.samples[a : a + n]
        mel_want = mel_spectrogram_direct(
            chunk, sig.sample_rate, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.fmin, fmax,
            cfg.log_floor,
        )
        mfcc_want = mfcc_direct(
            chunk, sig.sample_rate, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.n_mfcc,
            cfg.fmin, fmax, cfg.log_floor,
        )
        assert np.abs(row[cfg.n_mfcc :] - mel_want).max() < 1e-6, i
        assert np.abs(row[: cfg.n_mfcc] - mfcc_want).max() < 1e-6, i


class TestBatchedExtraction:
    def test_blocks_of_two_lengths_shorter_than_half_fft(self, rng):
        sig = AudioSignal(samples=rng.standard_normal(4000), sample_rate=8000)
        bounds = chunk_boundaries(sig.duration_s, 260)
        lengths, _ = _sample_lengths(sig, bounds)
        counts = {int(n): int((lengths == n).sum()) for n in np.unique(lengths)}
        assert len(counts) == 2, counts  # boundary rounding gives two chunk lengths
        assert max(counts.values()) > audio._BLOCK  # one length spans two blocks
        assert max(counts) < TINY.n_fft // 2  # reflect padding longer than the chunk
        _check_rows_against_oracle(sig, bounds, TINY, extract_chunk_features(sig, bounds, TINY))

    def test_one_sample_chunks(self, rng):
        sr = 8000
        sig = AudioSignal(samples=rng.standard_normal(sr // 4), sample_rate=sr)
        # one sample exactly, one that rounds to zero samples and is widened to one,
        # and the last sample, between two longer chunks
        bounds = np.array([[0.0, 0.01], [0.1, 0.1 + 1 / sr], [0.2, 0.2 + 1e-5],
                           [0.25 - 1 / sr, 0.25], [0.05, 0.07]])
        lengths, _ = _sample_lengths(sig, bounds)
        assert list(lengths) == [80, 1, 1, 1, 160]
        _check_rows_against_oracle(sig, bounds, TINY, extract_chunk_features(sig, bounds, TINY))

    def test_rates_and_configs_do_not_share_a_filterbank(self, rng):
        other = DspConfig(n_fft=64, hop_length=8, n_mels=10, n_mfcc=4, fmin=100.0)
        cases = [(8000, TINY), (16000, TINY), (8000, other), (16000, other), (8000, TINY)]
        for sr, cfg in cases:
            sig = AudioSignal(samples=rng.standard_normal(sr // 10), sample_rate=sr)
            bounds = chunk_boundaries(sig.duration_s, 7)
            _check_rows_against_oracle(sig, bounds, cfg, extract_chunk_features(sig, bounds, cfg))
            # the cached operator is the transposed filterbank, exactly
            np.testing.assert_array_equal(audio._cached_filterbank(sr, cfg).toarray().T,
                                          mel_filterbank(sr, cfg))
        assert audio._cached_filterbank(8000, TINY) is audio._cached_filterbank(8000, TINY)
        assert audio._cached_filterbank(8000, TINY) is not audio._cached_filterbank(16000, TINY)
        assert audio._cached_filterbank(8000, TINY) is not audio._cached_filterbank(8000, other)

    def test_cached_filterbank_is_read_only(self):
        fb = audio._cached_filterbank(8000, TINY)
        assert not any(a.flags.writeable for a in (fb.data, fb.indices, fb.indptr))
        band, bin_ = fb.nonzero()
        with pytest.raises(ValueError):
            fb[band[0], bin_[0]] = 1.0
        with pytest.raises(ValueError):
            fb *= 2.0
        public = mel_filterbank(8000, TINY)
        public += 1.0  # the public builder returns a fresh, writable array
        np.testing.assert_array_equal(fb.toarray().T, mel_filterbank(8000, TINY))

    def test_band_energies_match_the_dense_filterbank(self, rng):
        sr, cfg = 16000, DspConfig()
        starts = rng.integers(0, sr, size=40)
        frame_index = audio._frame_index(1280, cfg)
        power = audio._stft_power(rng.standard_normal(2 * sr), starts, frame_index,
                                  audio.hann_window(cfg.n_fft)).mean(axis=1)
        dense = power @ mel_filterbank(sr, cfg).T
        np.testing.assert_allclose(power @ audio._cached_filterbank(sr, cfg), dense,
                                   rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(1, 6000),
    n_chunks=st.integers(1, 2 * audio._BLOCK + 40),
    tiled=st.booleans(),
)
@example(seed=0, n_samples=4000, n_chunks=2 * audio._BLOCK + 40, tiled=True)
def test_every_row_equals_its_chunk_alone(seed, n_samples, n_chunks, tiled):
    """A batched row does not depend on which chunks share its block: it is
    bit-equal to the row of its chunk extracted alone."""
    sr = 8000
    rng = np.random.default_rng(seed)
    sig = AudioSignal(samples=rng.standard_normal(n_samples) * rng.uniform(1e-3, 1.0),
                      sample_rate=sr)
    if tiled:  # few distinct lengths, so blocks fill up to _BLOCK chunks
        bounds = chunk_boundaries(sig.duration_s, n_chunks)
    else:
        ends = rng.uniform(0.0, sig.duration_s, size=(n_chunks, 2))
        bounds = np.sort(ends, axis=1)
        bounds[:, 1] = np.maximum(bounds[:, 1], np.nextafter(bounds[:, 0], np.inf))
    feats = extract_chunk_features(sig, bounds, TINY)
    lengths, starts = _sample_lengths(sig, bounds)
    for row, a, n in zip(feats, starts, lengths):
        chunk = sig.samples[a : a + n]
        np.testing.assert_array_equal(row, whole_chunk(chunk, sr, TINY))
