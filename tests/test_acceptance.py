"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Headline percentages from full-corpus training are intentionally not gated
here (criterion 7 documents that); every criterion below is checkable at
desk scale with oracles, enumeration, or fixed-seed training runs.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from emofuse.audio import AudioSignal, DspConfig, chunk_boundaries, extract_chunk_features
from emofuse.cli import main as cli_main
from emofuse.dataset import read_dataset, write_dataset
from emofuse.evaluation import evaluate
from emofuse.model import (
    FusionModel,
    ModelConfig,
    RmsProp,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)
from emofuse.nn.layers import BatchNorm, Dense, Dropout, PReLU, softmax_cross_entropy
from emofuse.nn.recurrent import Gru, Lstm
from emofuse.sequencing import window_starts
from emofuse.training import TrainConfig, dataset_metrics, run_training

from oracles import (
    max_rel_err,
    mel_spectrogram_direct,
    metric_oracle,
    mfcc_direct,
    numeric_gradient,
)
from synth import synthetic_dataset
from test_cli import make_openface_csv
from test_layers import check_layer_gradients
from test_model import TINY, random_batch
from test_recurrent import check_recurrent_gradients
from conftest import wav_bytes


def announce(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def train_accuracy(model, dataset):
    """Plain per-frame accuracy over every frame of the container, class 7 included."""
    _, preds, _, truths = zip(*predict_dataset(model, dataset))
    return float(np.mean(np.concatenate(preds) == np.concatenate(truths)))


# -----------------------------------------------------------------------
# Criterion 1 — gradient correctness of every layer and the fused model
# -----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    trials = 0

    check_layer_gradients(lambda rng: Dense(6, 4, rng, dtype=np.float64), (5, 6), trials=10)
    check_layer_gradients(lambda rng: Dense(3, 7, rng, dtype=np.float64), (2, 4, 3), trials=10)
    trials += 20
    check_layer_gradients(lambda rng: PReLU(6, dtype=np.float64), (9, 6), trials=15)
    trials += 15
    check_layer_gradients(lambda rng: Dropout(0.25), (6, 5), trials=10, use_rng=True)  # fixed mask
    trials += 10
    check_layer_gradients(lambda rng: BatchNorm(5, dtype=np.float64), (8, 5), trials=10)
    check_layer_gradients(lambda rng: BatchNorm(3, dtype=np.float64), (3, 6, 3), trials=5)
    trials += 15

    rng = np.random.default_rng(42)
    for _ in range(15):  # softmax + sparse CE, combined op
        logits = rng.standard_normal((3, 8))
        labels = rng.integers(0, 8, size=3)
        _, dlogits, _ = softmax_cross_entropy(logits, labels, np.ones(3))
        num = numeric_gradient(
            lambda v: softmax_cross_entropy(v, labels, np.ones(3))[0], logits.copy(), eps=1e-6
        )
        assert max_rel_err(dlogits, num, atol=1e-10) < 1e-6
    trials += 15

    check_recurrent_gradients(Gru, trials=12)
    check_recurrent_gradients(Lstm, trials=10)
    trials += 22

    # full fused model, training mode, 10 random parameter entries
    model = FusionModel(TINY)
    audio, video, labels, mask = random_batch(np.random.default_rng(5), TINY, batch=2)
    seed = 3

    def model_loss():
        probs = model.forward(audio, video, training=True, seed=seed)
        picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
        return float((-np.log(picked) * mask).sum() / mask.sum())

    probs = model.forward(audio, video, training=True, seed=seed)
    dlogits = probs.copy()
    flat = dlogits.reshape(-1, 8)
    flat[np.arange(flat.shape[0]), labels.reshape(-1)] -= 1.0
    dlogits *= (mask / mask.sum())[..., None]
    model.backward_from_logits(dlogits)
    grads = model.gradients()
    params = model.parameters()
    names = sorted(params)
    pick_rng = np.random.default_rng(11)
    for pick in pick_rng.choice(len(names), size=10, replace=False):
        name = names[pick]
        arr = params[name]
        idx = tuple(pick_rng.integers(0, s) for s in arr.shape)
        orig = arr[idx]
        eps = 1e-5
        arr[idx] = orig + eps
        up = model_loss()
        arr[idx] = orig - eps
        down = model_loss()
        arr[idx] = orig
        numeric = (up - down) / (2 * eps)
        assert max_rel_err([grads[name][idx]], [numeric], atol=1e-8) < 1e-3, name
    trials += 10

    elapsed = time.perf_counter() - t0
    announce(
        "criterion 1 (gradients)",
        trials >= 100 and elapsed < 120,
        f"{trials} finite-difference trials, rel err <= 1e-4 layers / 1e-3 model, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# Criterion 2 — DSP equivalence against the direct DFT/DCT oracle
# -----------------------------------------------------------------------


def test_criterion_2_dsp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    configs = [
        (8000, DspConfig(n_fft=128, hop_length=32, n_mels=24, n_mfcc=12)),
        (16000, DspConfig(n_fft=256, hop_length=64, n_mels=32, n_mfcc=20)),
    ]
    worst = 0.0
    n_signals = 0
    for sr, cfg in configs:
        for _ in range(25):
            n = int(rng.integers(1, 600))
            x = rng.standard_normal(n) * rng.uniform(0.1, 2.0)
            row = extract_chunk_features(AudioSignal(x, sr), [[0.0, n / sr]], cfg)[0]
            mfcc_got, mel_got = row[: cfg.n_mfcc], row[cfg.n_mfcc :]
            mel_want = mel_spectrogram_direct(
                x, sr, cfg.n_fft, cfg.hop_length, cfg.n_mels, 0.0, sr / 2, cfg.log_floor
            )
            mfcc_want = mfcc_direct(
                x, sr, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.n_mfcc,
                0.0, sr / 2, cfg.log_floor,
            )
            worst = max(
                worst,
                float(np.abs(mel_got - mel_want).max()),
                float(np.abs(mfcc_got - mfcc_want).max()),
            )
            assert np.abs(mel_got - mel_want).max() < 1e-6
            assert np.abs(mfcc_got - mfcc_want).max() < 1e-6
            n_signals += 1
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 2 (DSP oracle)",
        n_signals == 50 and elapsed < 60,
        f"{n_signals} signals, worst |diff| {worst:.2e} < 1e-6, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# Criterion 3 — chunking and windowing enumeration
# -----------------------------------------------------------------------


def test_criterion_3_chunking_windowing_enumeration():
    t0 = time.perf_counter()

    for n in range(1, 5001):
        starts = window_starts(n)
        covered = np.zeros(n, dtype=bool)
        for s in starts:
            covered[s : s + 15] = True
        assert covered.all(), n
        if n >= 15:
            expected = (n - 15) // 10 + 1 + (1 if (n - 15) % 10 else 0)
            assert len(starts) == expected, n
        else:
            assert starts == [0]

    # dyadic duration grid keeps H = T/(n+1) exactly representable
    pairs = 0
    for h, n_values in (
        (0.5, range(1, 10001)),
        (0.25, range(1, 2001)),
        (1.0, range(1, 2001)),
    ):
        for n in n_values:
            T = (n + 1) * h
            b = chunk_boundaries(T, n)
            L = b[0, 1] - b[0, 0]
            assert b[0, 0] == 0.0 and b[-1, 1] == T
            assert (b[:, 1] - b[:, 0] == L).all()
            if n > 1:
                assert (b[:-1, 1] - b[1:, 0] == L / 2).all()
            pairs += 1

    elapsed = time.perf_counter() - t0
    announce(
        "criterion 3 (enumeration)",
        elapsed < 30,
        f"window starts for n in [1,5000], exact chunk tiling for {pairs} "
        f"(duration, n) pairs incl. n up to 10000, {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# Criterion 4 — synthetic overfit and modality ordering
# -----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_synthetic_overfit_and_ordering(tmp_path):
    t0 = time.perf_counter()
    train_set = synthetic_dataset(200, seed=100)

    # part A: fused model reaches 95% train accuracy within 200 epochs
    state = tmp_path / "overfit.ckpt"
    accuracy = 0.0
    epochs_used = 0
    for total_epochs in (40, 80, 120, 160, 200):
        cfg = TrainConfig(epochs=total_epochs, batch_size=64, seed=0,
                          learning_rate=1e-4, mode="fused", early_stop_patience=0)
        model, _ = run_training(
            train_set, train_set, cfg,
            state_path=state,
            resume_from=state if state.exists() else None,
        )
        accuracy = train_accuracy(model, train_set)
        epochs_used = total_epochs
        if accuracy >= 0.95:
            break
    assert accuracy >= 0.95, f"train accuracy {accuracy:.3f} after {epochs_used} epochs"

    # part B: fused beats both single-modality variants, majority over 3 seeds
    wins_over_video = 0
    wins_over_audio = 0
    orderings = []
    for seed in (0, 1, 2):
        tr = synthetic_dataset(200, seed=100 + seed)
        va = synthetic_dataset(80, seed=900 + seed)
        combined = {}
        for mode in ("fused", "video_only", "audio_only"):
            cfg = TrainConfig(epochs=40, batch_size=64, seed=seed, learning_rate=1e-4,
                              mode=mode, early_stop_patience=0)
            m, _ = run_training(tr, va, cfg)
            combined[mode] = dataset_metrics(m, va, 0.67, 0.33).combined
        wins_over_video += combined["fused"] > combined["video_only"]
        wins_over_audio += combined["fused"] > combined["audio_only"]
        orderings.append(
            f"seed {seed}: fused {combined['fused']:.3f} / video {combined['video_only']:.3f} "
            f"/ audio {combined['audio_only']:.3f}"
        )

    elapsed = time.perf_counter() - t0
    announce(
        "criterion 4 (synthetic overfit)",
        accuracy >= 0.95 and wins_over_video >= 2 and wins_over_audio >= 2 and elapsed < 600,
        f"train acc {accuracy:.3f} in {epochs_used} epochs; fused>video {wins_over_video}/3, "
        f"fused>audio {wins_over_audio}/3 [{'; '.join(orderings)}], {elapsed:.0f}s",
    )


# -----------------------------------------------------------------------
# Criterion 5 — metric oracle
# -----------------------------------------------------------------------


def test_criterion_5_metric_oracle():
    report = evaluate([0, 1, 2, 2], [0, 1, 1, 2], w_f1=0.67, w_acc=0.33)
    assert report.accuracy == 0.75
    assert report.macro_f1 == pytest.approx(7.0 / 9.0, abs=1e-15)
    assert report.combined == pytest.approx(0.7686, abs=5e-5)

    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, 8, size=n).tolist()
        truth = rng.integers(0, 8, size=n).tolist()
        got = evaluate(pred, truth, w_f1=0.67, w_acc=0.33)
        want = metric_oracle(pred, truth, 0.67, 0.33)
        if want is None:
            assert got.n_evaluated == 0
        else:
            # float division of the exact rational: accuracy matches exactly
            assert Fraction(got.accuracy).limit_denominator(10**9) == want["accuracy"]
            assert got.macro_f1 == pytest.approx(float(want["macro_f1"]), abs=1e-14)
            assert got.combined == pytest.approx(float(want["combined"]), abs=1e-14)
        checked += 1
    announce(
        "criterion 5 (metric oracle)",
        checked == 25,
        "worked example (acc 0.75, macro 7/9, combined 0.7686) plus 25 random vectors",
    )


# -----------------------------------------------------------------------
# Criterion 6 — determinism and persistence
# -----------------------------------------------------------------------


def test_criterion_6_determinism_and_persistence(tmp_path):
    train_set = synthetic_dataset(24, seed=5)
    val_set = synthetic_dataset(16, seed=6)
    cfg = dict(batch_size=8, seed=3, learning_rate=1e-4, early_stop_patience=0)

    run_training(train_set, val_set, TrainConfig(epochs=2, **cfg), state_path=tmp_path / "a.ckpt")
    run_training(train_set, val_set, TrainConfig(epochs=2, **cfg), state_path=tmp_path / "b.ckpt")
    bit_identical = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    write_dataset(train_set, tmp_path / "ds")
    back = read_dataset(tmp_path / "ds")
    dataset_lossless = (
        (back.audio == train_set.audio).all()
        and (back.video == train_set.video).all()
        and (back.labels == train_set.labels).all()
        and back.videos == train_set.videos
    )

    model = FusionModel(ModelConfig(audio_dim=6, video_dim=8, audio_hidden=(5, 4),
                                    video_hidden=(6, 4), head_hidden=4))
    opt = RmsProp()
    a, v, y, m = random_batch(np.random.default_rng(0), model.config, batch=2)
    model.train_step(a, v, y, m, opt, seed=0)
    save_checkpoint(tmp_path / "m.ckpt", model, optimizer=opt)
    back_model, back_opt, _ = load_checkpoint(tmp_path / "m.ckpt")
    ckpt_lossless = all(
        (back_model.parameters()[k] == p).all() for k, p in model.parameters().items()
    ) and all(
        (back_opt.state_arrays()[k] == s).all() for k, s in opt.state_arrays().items()
    )

    run_training(train_set, val_set, TrainConfig(epochs=4, **cfg), state_path=tmp_path / "full.ckpt")
    run_training(train_set, val_set, TrainConfig(epochs=2, **cfg), state_path=tmp_path / "half.ckpt")
    run_training(
        train_set, val_set, TrainConfig(epochs=4, **cfg),
        state_path=tmp_path / "resumed.ckpt", resume_from=tmp_path / "half.ckpt",
    )
    resume_exact = (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()

    announce(
        "criterion 6 (determinism & persistence)",
        bit_identical and dataset_lossless and ckpt_lossless and resume_exact,
        f"bit-identical={bit_identical}, dataset lossless={dataset_lossless}, "
        f"checkpoint lossless={ckpt_lossless}, resume exact={resume_exact}",
    )


# -----------------------------------------------------------------------
# Criterion 7 — end-to-end pipeline over the real file formats
# -----------------------------------------------------------------------


def test_criterion_7_end_to_end_pipeline(tmp_path):
    """Full CLI path on miniature inputs; corpus-scale percentages not gated.

    With real annotation/WAV/OpenFace inputs the identical commands run at
    corpus scale; reproducing any published percentage is explicitly not an
    acceptance condition, only that every stage runs and the comparison
    table is emitted.
    """
    rng = np.random.default_rng(3)
    datasets = []
    for vid in ("clip_a", "clip_b"):
        wav = tmp_path / f"{vid}.wav"
        samples = np.clip(rng.standard_normal(6000) * 9000, -32768, 32767).astype(int)
        wav.write_bytes(wav_bytes([samples.tolist()], 8000))
        ann = tmp_path / f"{vid}.txt"
        n_frames = 27 if vid == "clip_a" else 21
        ann.write_text("\n".join(str(int(l)) for l in rng.integers(-1, 7, n_frames)) + "\n")
        csv = tmp_path / f"{vid}.csv"
        make_openface_csv(csv, n_frames, rng)
        a_out, v_out, d_out = tmp_path / f"{vid}_a", tmp_path / f"{vid}_v", tmp_path / f"{vid}_d"
        assert cli_main(["extract-audio", "--wav", str(wav), "--annotations", str(ann),
                         "--out", str(a_out)]) == 0
        assert cli_main(["ingest-video", "--csv", str(csv), "--out", str(v_out)]) == 0
        assert cli_main(["build-dataset", "--audio", str(a_out), "--video", str(v_out),
                         "--annotations", str(ann), "--out", str(d_out)]) == 0
        datasets.append(d_out)

    summaries = []
    for mode in ("audio", "video", "fused"):
        out = tmp_path / f"run_{mode}"
        assert cli_main(["train", "--train", str(datasets[0]), "--val", str(datasets[1]),
                         "--mode", mode, "--epochs", "2", "--batch", "4",
                         "--out", str(out), "--patience", "0"]) == 0
        ev = tmp_path / f"eval_{mode}"
        assert cli_main(["evaluate", "--checkpoint", str(out / "best.ckpt"),
                         "--dataset", str(datasets[1]), "--out", str(ev)]) == 0
        summaries.append(str(ev / "eval_summary.json"))
        with open(summaries[-1]) as fh:
            assert json.load(fh)["n_frames"] == 21

    assert cli_main(["report", "--summary", *summaries]) == 0
    announce(
        "criterion 7 (end-to-end)",
        True,
        "extract/ingest/build/train/evaluate/report ran on all three variants "
        "(corpus-scale percentages are documented as not gated)",
    )
