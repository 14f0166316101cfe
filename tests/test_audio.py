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

from oracles import dct2_ortho_direct, mel_spectrogram_direct, mel_weights_direct, mfcc_direct

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
                x, sr, cfg.n_fft, cfg.hop_length, cfg.n_mels, 0.0, sr / 2, cfg.log_floor
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

    @pytest.mark.parametrize("field, value", [("n_fft", 256.5), ("hop_length", 64.5),
                                              ("n_mels", 40.0), ("n_mfcc", True),
                                              ("n_fft", "2048"), ("hop_length", False)])
    def test_integer_settings_refuse_other_types(self, field, value):
        """A float, a bool or a string for a count is refused by name, not found later
        as a numpy error or a silently narrower row."""
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            DspConfig(**{field: value})

    def test_numpy_integers_are_accepted(self):
        cfg = DspConfig(n_fft=np.int64(512), hop_length=np.int32(128), n_mels=np.int16(40),
                        n_mfcc=np.uint8(13))
        assert (cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.n_mfcc) == (512, 128, 40, 13)

    @pytest.mark.parametrize("field", ["fmin", "fmax"])
    def test_band_edges_are_not_settable(self, field):
        """The mel band is fixed at 0 Hz to Nyquist: a band edge passed by name is a
        TypeError, not a setting that is silently dropped."""
        with pytest.raises(TypeError, match=field):
            DspConfig(**{field: 100.0})


class TestMelFilterbank:
    def test_rows_nonempty_and_nonnegative(self):
        for n_mels, n_fft in ((128, 2048), (40, 512), (24, 128)):
            cfg = DspConfig(n_fft=n_fft, n_mels=n_mels, n_mfcc=min(n_mels, 13))
            fb = mel_filterbank(16000, cfg)
            assert fb.shape == (n_mels, n_fft // 2 + 1)
            assert (fb >= 0).all()
            assert (fb.sum(axis=1) > 0).all()

    @pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
    def test_band_runs_from_zero_hz_to_nyquist(self, sr):
        """The default filterbank is the scalar-loop one whose band edges are 0 Hz and
        the Nyquist frequency, so the 0 Hz bin carries no weight in any band."""
        cfg = DspConfig()
        fb = mel_filterbank(sr, cfg)
        want = mel_weights_direct(sr, cfg.n_fft, cfg.n_mels, 0.0, sr / 2)
        np.testing.assert_allclose(fb, want, rtol=0, atol=1e-12)
        assert (fb[:, 0] == 0).all()


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
        got = audio._dct2_ortho(e0[None], 128)[0]
        want = dct2_ortho_direct(e0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_direct_oracle(self, rng):
        sr = 8000
        cfg = DspConfig(n_fft=128, hop_length=32, n_mels=24, n_mfcc=12)
        x = rng.standard_normal(300)
        got = whole_mfcc(x, sr, cfg)
        want = mfcc_direct(
            x, sr, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.n_mfcc, 0.0, sr / 2, cfg.log_floor
        )
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_parseval_before_truncation(self, rng):
        x = rng.standard_normal(128)
        y = audio._dct2_ortho(x[None], 128)[0]
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

    def test_chunk_whose_power_overflows_is_domain_error(self, rng):
        """Samples scaled by 1e200 are finite, but their power is not: the first chunk
        that holds one is refused by index and span, with no RuntimeWarning."""
        samples = rng.standard_normal(8000) * 0.1
        samples[5000:5100] *= 1e200
        bounds = chunk_boundaries(1.0, 7)  # chunks 4 and 5 hold the scaled samples
        with pytest.raises(DomainError, match=r"^chunk 4 \[0\.5, 0\.75\) has non-finite"):
            extract_chunk_features(AudioSignal(samples, 8000), bounds)
        np.testing.assert_array_equal(  # the chunks before it are unaffected
            extract_chunk_features(AudioSignal(samples, 8000), bounds[:4]),
            extract_chunk_features(AudioSignal(samples[:5000], 8000), bounds[:4]))

    @pytest.mark.parametrize("span, held", [((0, 100), [0]), ((2100, 2200), [1, 2]),
                                            ((7900, 8000), [6])], ids=["first", "middle", "last"])
    def test_first_non_finite_chunk_is_named(self, rng, span, held):
        """Whichever chunks hold the overflowing samples, the error names the first of
        them by index and span, and every other chunk's row is the unscaled signal's."""
        clean = rng.standard_normal(8000) * 0.1
        samples = clean.copy()
        samples[span[0] : span[1]] *= 1e200
        bounds = chunk_boundaries(1.0, 7)
        first = held[0]
        with pytest.raises(DomainError, match=rf"^chunk {first} \[{bounds[first, 0]}, "
                                              rf"{bounds[first, 1]}\) has non-finite features$"):
            extract_chunk_features(AudioSignal(samples, 8000), bounds)
        others = np.setdiff1d(np.arange(len(bounds)), held)
        np.testing.assert_array_equal(
            extract_chunk_features(AudioSignal(samples, 8000), bounds[others]),
            extract_chunk_features(AudioSignal(clean, 8000), bounds[others]))

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
    lengths, starts = _sample_lengths(sig, bounds)
    assert len(feats) == len(bounds)
    for i, (row, a, n) in enumerate(zip(feats, starts, lengths)):
        chunk = sig.samples[a : a + n]
        mel_want = mel_spectrogram_direct(
            chunk, sig.sample_rate, cfg.n_fft, cfg.hop_length, cfg.n_mels, 0.0,
            sig.sample_rate / 2, cfg.log_floor,
        )
        mfcc_want = mfcc_direct(
            chunk, sig.sample_rate, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.n_mfcc,
            0.0, sig.sample_rate / 2, cfg.log_floor,
        )
        assert np.abs(row[cfg.n_mfcc :] - mel_want).max() < 1e-6, i
        assert np.abs(row[: cfg.n_mfcc] - mfcc_want).max() < 1e-6, i


def table_filterbank(table, n_fft):
    """The dense [n_mels, n_fft//2+1] filterbank an ``audio._band_table`` holds,
    checking that each band's bins ascend from step to step."""
    inverse, steps = table
    dense = np.zeros((len(inverse), n_fft // 2 + 1))
    last = np.full(len(inverse), -1)
    for bins, weights in steps:
        assert (bins > last[: len(bins)]).all()
        last[: len(bins)] = bins
        dense[np.arange(len(bins)), bins] = weights[:, 0]
    return dense[inverse]


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
        other = DspConfig(n_fft=64, hop_length=8, n_mels=10, n_mfcc=4)
        cases = [(8000, TINY), (16000, TINY), (8000, other), (16000, other), (8000, TINY)]
        for sr, cfg in cases:
            sig = AudioSignal(samples=rng.standard_normal(sr // 10), sample_rate=sr)
            bounds = chunk_boundaries(sig.duration_s, 7)
            _check_rows_against_oracle(sig, bounds, cfg, extract_chunk_features(sig, bounds, cfg))
            # the cached table holds the filterbank, exactly
            np.testing.assert_array_equal(table_filterbank(audio._band_table(sr, cfg), cfg.n_fft),
                                          mel_filterbank(sr, cfg))
        assert audio._band_table(8000, TINY) is audio._band_table(8000, TINY)
        assert audio._band_table(8000, TINY) is not audio._band_table(16000, TINY)
        assert audio._band_table(8000, TINY) is not audio._band_table(8000, other)

    def test_cached_filterbank_is_read_only(self):
        inverse, steps = table = audio._band_table(8000, TINY)
        parts = [inverse, *(a for step in steps for a in step)]
        assert isinstance(steps, tuple) and not any(a.flags.writeable for a in parts)
        with pytest.raises(ValueError):
            steps[0][1][0] = 1.0
        with pytest.raises(ValueError):
            inverse[:] = 0
        public = mel_filterbank(8000, TINY)
        public += 1.0  # the public builder returns a fresh, writable array
        np.testing.assert_array_equal(table_filterbank(table, TINY.n_fft), mel_filterbank(8000, TINY))

    @pytest.mark.parametrize("cfg", [DspConfig(), SMALL], ids=["default", "small"])
    def test_band_energies_match_the_dense_filterbank(self, rng, cfg):
        """Each band sums ``weight * power`` over its nonzero bins in bin order, from 0,
        bit for bit; at SMALL 14 of the 128 bands hold no bin and stay at the floor.
        An infinite power reaches the bands that hold its bin as inf, never as NaN
        (``extract_chunk_features`` refuses such a row, so this reads ``_fused_rows``)."""
        sr = 16000
        samples = rng.standard_normal(2 * sr)
        samples[-1280:] *= 1e200  # its power overflows to inf in every bin
        starts = np.append(rng.integers(0, sr, size=40), 2 * sr - 1280)
        with np.errstate(over="ignore", invalid="ignore"):
            power = audio._stft_power(samples, starts, audio._frame_index(1280, cfg),
                                      audio.hann_window(cfg.n_fft)).mean(axis=1)
            logmel = audio._fused_rows(samples, starts, starts + 1280, sr, cfg)[:, cfg.n_mfcc :]
        assert np.isinf(power[-1]).all() and np.isfinite(power[:-1]).all()
        fb = mel_filterbank(sr, cfg)
        want = np.zeros((len(power), cfg.n_mels))
        for band, weights in enumerate(fb):
            for b in np.flatnonzero(weights):
                want[:, band] += weights[b] * power[:, b]
        np.testing.assert_array_equal(logmel, np.log10(np.maximum(want, cfg.log_floor)))
        np.testing.assert_allclose(want[:-1], power[:-1] @ fb.T, rtol=1e-12, atol=0)
        empty = ~fb.any(axis=1)
        assert empty.sum() == (14 if cfg == SMALL else 0)
        assert (logmel[:, empty] == np.log10(cfg.log_floor)).all()
        assert (logmel[-1] == np.where(empty, np.log10(cfg.log_floor), np.inf)).all()


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
