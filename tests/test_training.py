import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emofuse import training
from emofuse.dataset import WindowDataset
from emofuse.errors import DomainError, SchemaError
from emofuse.model import FusionModel, ModelConfig, RmsProp, load_checkpoint, standardize
from emofuse.sequencing import AnnotationTrack
from emofuse.training import (
    EpochRecord,
    TrainConfig,
    TrainReport,
    _epoch_seed,
    _loss_mask,
    _step_seed,
    dataset_metrics,
    fit_stats,
    run_training,
)

from oracles import counter_loop
from synth import synthetic_dataset


@pytest.fixture(scope="module")
def small_sets():
    return synthetic_dataset(24, seed=5), synthetic_dataset(16, seed=6)


def quick_config(**overrides):
    base = dict(epochs=2, batch_size=8, seed=3, learning_rate=1e-4,
                early_stop_patience=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestStandardize:
    def test_constant_dimension_maps_to_zero(self):
        ds = synthetic_dataset(8, seed=0)
        ds.audio[..., 0] = 4.25
        stats = fit_stats(ds)
        out = standardize(ds.audio, stats.audio_mean, stats.audio_std)
        np.testing.assert_allclose(out[..., 0], 0.0, atol=1e-6)

    def test_roundtrip(self, rng):
        x = rng.standard_normal((50, 6)).astype(np.float32) * 3 + 1
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        z = standardize(x, mean, std)
        np.testing.assert_allclose(z * std + mean, x, atol=1e-5)

    def test_train_stats_applied_unchanged_to_val(self, small_sets):
        train_set, val_set = small_sets
        stats = fit_stats(train_set)
        cfg = ModelConfig(audio_dim=train_set.audio_dim, video_dim=train_set.video_dim)
        model, plain = FusionModel(cfg), FusionModel(cfg)
        model.feature_stats = stats
        np.testing.assert_array_equal(
            model.logits(val_set.audio, val_set.video),
            plain.logits(
                (val_set.audio - stats.audio_mean) / stats.audio_std,
                (val_set.video - stats.video_mean) / stats.video_std,
            ),
        )

    def test_standardized_train_set_is_centered(self, small_sets):
        train_set, _ = small_sets
        stats = fit_stats(train_set)
        out = standardize(train_set.audio, stats.audio_mean, stats.audio_std)
        flat = out.reshape(-1, train_set.audio_dim)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-4)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-3)


class TestRunTraining:
    def test_same_seed_identical_traces(self, small_sets):
        train_set, val_set = small_sets
        _, r1 = run_training(train_set, val_set, quick_config())
        _, r2 = run_training(train_set, val_set, quick_config())
        assert [rec.train_loss for rec in r1.records] == [rec.train_loss for rec in r2.records]
        assert [rec.val_combined for rec in r1.records] == [rec.val_combined for rec in r2.records]

    def test_different_seed_differs(self, small_sets):
        train_set, val_set = small_sets
        _, r1 = run_training(train_set, val_set, quick_config(seed=3))
        _, r2 = run_training(train_set, val_set, quick_config(seed=4))
        assert r1.records[0].train_loss != r2.records[0].train_loss

    def test_stagnant_metric_stops_after_patience(self, small_sets):
        train_set, val_set = small_sets
        config = quick_config(epochs=20, learning_rate=1e-12, early_stop_patience=3)
        _, report = run_training(train_set, val_set, config)
        assert report.stopped_early
        assert len(report.records) == 1 + 3

    def test_validation_does_not_mutate_state(self, small_sets):
        train_set, val_set = small_sets
        model, _ = run_training(train_set, val_set, quick_config(epochs=1))
        params_before = {k: v.copy() for k, v in model.parameters().items()}
        buffers_before = {k: v.copy() for k, v in model.buffers().items()}
        dataset_metrics(model, val_set, 0.67, 0.33)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, params_before[k])
        for k, v in model.buffers().items():
            np.testing.assert_array_equal(v, buffers_before[k])

    def test_dim_mismatch_rejected(self, small_sets):
        train_set, _ = small_sets
        other = synthetic_dataset(8, seed=9, audio_dim=10)
        with pytest.raises(SchemaError):
            run_training(train_set, other, quick_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_report(self, small_sets):
        train_set, val_set = small_sets
        poisoned = WindowDataset(
            audio=train_set.audio.copy(),
            video=train_set.video.copy(),
            labels=train_set.labels,
            start_frames=train_set.start_frames,
            pad_counts=train_set.pad_counts,
            videos=train_set.videos,
            window_len=train_set.window_len,
            stride=train_set.stride,
        )
        poisoned.audio[0, 0, 0] = np.inf
        _, report = run_training(poisoned, val_set, quick_config())
        assert report.diverged

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            TrainConfig(epochs=0)
        with pytest.raises(SchemaError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -3), ("batch_size", 8.0), ("batch_size", True),
        ("epochs", 0), ("epochs", 1.5), ("early_stop_patience", -1), ("early_stop_patience", 0.5),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", -1e-4),
        ("seed", -1),
    ])
    def test_config_rejects_bad_numbers(self, field, value):
        with pytest.raises(SchemaError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, message", [
        ("mode", "unknown mode 'x'"), ("recurrent", "unknown recurrent kind 'x'"),
    ])
    def test_config_refuses_what_the_model_refuses(self, field, message):
        with pytest.raises(SchemaError, match=message):
            TrainConfig(**{field: "x"})

    @pytest.mark.parametrize("field", ["window_len", "stride"])
    def test_config_has_no_window_fields(self, field):
        # the window length comes from the dataset; a config field would do nothing
        with pytest.raises(TypeError):
            TrainConfig(**{field: 15})

    @pytest.mark.parametrize("field", ["rho", "eps", "metric_w_f1", "metric_w_acc"])
    def test_config_has_no_optimizer_or_metric_fields(self, field):
        # RmsProp's defaults and evaluation's DEFAULT_W_* are the only values used
        with pytest.raises(TypeError):
            TrainConfig(**{field: 0.5})


class TestMaskedBatches:
    def test_fully_masked_batch_is_skipped_at_its_step(self, small_sets, monkeypatch):
        train_set, val_set = small_sets  # window i is all class i % 8
        seeds, step = [], FusionModel.train_step

        def recording_step(self, audio, video, labels, mask, optimizer, seed=0):
            seeds.append(seed)
            return step(self, audio, video, labels, mask, optimizer, seed=seed)

        monkeypatch.setattr(FusionModel, "train_step", recording_step)
        config = quick_config(epochs=1, batch_size=1, include_class7=False)
        _, report = run_training(train_set, val_set, config)
        # the skipped steps keep their index: the others draw the seeds they always drew
        perm = _epoch_seed(config.seed, 0).permutation(train_set.n_windows)
        want = [_step_seed(config.seed, 0, s) for s, w in enumerate(perm) if w % 8 != 7]
        assert len(want) == 21 and seeds == want
        assert np.isfinite(report.records[0].train_loss)

    def test_no_counted_row_is_domain_error(self, small_sets, monkeypatch):
        train_set, val_set = small_sets
        all7 = WindowDataset(
            audio=train_set.audio, video=train_set.video,
            labels=np.full_like(train_set.labels, 7), start_frames=train_set.start_frames,
            pad_counts=train_set.pad_counts, videos=train_set.videos,
            window_len=train_set.window_len,
        )
        monkeypatch.setattr(FusionModel, "train_step", None)  # never reached
        with pytest.raises(DomainError, match="every real row is class 7"):
            run_training(all7, val_set, quick_config(include_class7=False))


class TestLossMask:
    @pytest.fixture
    def dataset(self):
        # L=5, stride 3: video a (7 frames) gets windows at 0 and 2; video b
        # (3 frames) one window at 0 with its last 2 rows padded
        videos = [
            (AnnotationTrack([-1, 0, 1, 2, -1, 3, 4], "a"), np.zeros((7, 2)), np.zeros((7, 3))),
            (AnnotationTrack([5, -1, 6], "b"), np.zeros((3, 2)), np.zeros((3, 3))),
        ]
        return WindowDataset.from_videos(videos, window_len=5, stride=3)

    def test_padded_rows_are_masked(self, dataset):
        mask = _loss_mask(dataset, include_class7=True)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 0, 0]])

    def test_exclude_class7_masks_unannotated_rows(self, dataset):
        np.testing.assert_array_equal(dataset.labels[:, :3], [[7, 0, 1], [1, 2, 7], [5, 7, 6]])
        mask = _loss_mask(dataset, include_class7=False)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, [[0, 1, 1, 1, 0], [1, 1, 0, 1, 1], [1, 0, 1, 0, 0]])


class TestCheckpointDeterminism:
    def test_two_runs_bit_identical_state(self, small_sets, tmp_path):
        train_set, val_set = small_sets
        run_training(train_set, val_set, quick_config(), state_path=tmp_path / "a.ckpt")
        run_training(train_set, val_set, quick_config(), state_path=tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_resume_equals_uninterrupted(self, small_sets, tmp_path):
        train_set, val_set = small_sets
        run_training(
            train_set, val_set, quick_config(epochs=4), state_path=tmp_path / "full.ckpt"
        )
        run_training(
            train_set, val_set, quick_config(epochs=2), state_path=tmp_path / "half.ckpt"
        )
        _, report = run_training(
            train_set,
            val_set,
            quick_config(epochs=4),
            state_path=tmp_path / "resumed.ckpt",
            resume_from=tmp_path / "half.ckpt",
        )
        assert len(report.records) == 2  # only the remaining epochs ran
        assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()

    def test_resume_requires_optimizer_state(self, small_sets, tmp_path):
        train_set, val_set = small_sets
        run_training(
            train_set, val_set, quick_config(), best_path=tmp_path / "best.ckpt"
        )
        with pytest.raises(SchemaError):
            run_training(
                train_set, val_set, quick_config(), resume_from=tmp_path / "best.ckpt"
            )

    def test_standardize_stats_live_in_checkpoint(self, small_sets, tmp_path):
        train_set, val_set = small_sets
        run_training(
            train_set,
            val_set,
            quick_config(standardize_features=True),
            state_path=tmp_path / "s.ckpt",
        )
        model, _, _ = load_checkpoint(tmp_path / "s.ckpt")
        assert model.feature_stats is not None
        expected = fit_stats(train_set)
        np.testing.assert_allclose(
            model.feature_stats.audio_mean, expected.audio_mean, atol=1e-6
        )


class TestDerivedProgress:
    """The best epoch, the best metric and early stopping are functions of the epoch
    history, the only progress a state checkpoint carries."""

    def test_best_is_the_first_highest_score(self):
        report = TrainReport(
            records=[EpochRecord(3, 0.1, 0.5, 0.5, 0.5), EpochRecord(4, 0.1, 0.25, 0.2, 0.3)],
            earlier=[EpochRecord(1, 0.2, 0.25, 0.2, 0.3), EpochRecord(2, 0.2, 0.5, 0.4, 0.6)],
        )
        assert report.best.epoch == 2
        assert (report.summary()["best_epoch"], report.summary()["best_metric"]) == (2, 0.5)

    def test_no_epoch_has_no_best(self):
        summary = TrainReport().summary()
        assert TrainReport().best is None
        assert (summary["best_epoch"], summary["best_metric"]) == (-1, None)

    def test_state_progress_is_the_history_alone(self, small_sets, tmp_path):
        train_set, val_set = small_sets
        _, report = run_training(train_set, val_set, quick_config(), state_path=tmp_path / "s.ckpt")
        progress = load_checkpoint(tmp_path / "s.ckpt")[2]["progress"]
        assert progress == {"history": report.history()}


class _Stepper:
    """A model stand-in whose every step returns one loss: only the loop's bookkeeping runs."""

    feature_stats = None

    def __init__(self, config):
        self.config = config

    def train_step(self, *batch, seed):
        return 0.5


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=6),
    patience=st.integers(0, 3),
    resumed_patience=st.integers(0, 3),
)
def test_derived_best_and_stop_equal_the_counter_loop(scores, patience, resumed_patience):
    """Scripted validation scores, with ties, through one run and through a run
    resumed at every split point (with its own patience, which a resume may change)."""
    train_set = synthetic_dataset(2, seed=5)
    for split in range(len(scores)):  # 0: one uninterrupted run
        calls, best_saves, state = [], [], {}

        def metrics(model, dataset, w_f1, w_acc):
            calls.append(scores[len(calls)])
            return SimpleNamespace(combined=calls[-1], accuracy=calls[-1], macro_f1=calls[-1],
                                   n_evaluated=1)

        def save(path, model, optimizer=None, meta=None):
            if path == "best":
                best_saves.append(len(calls))
            else:
                state.update(model=model, meta=json.loads(json.dumps(meta)))

        runs = [(split or len(scores), patience, None)]
        if split:
            runs.append((len(scores), resumed_patience, "state"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "FusionModel", _Stepper)
            mp.setattr(training, "dataset_metrics", metrics)
            mp.setattr(training, "save_checkpoint", save)
            mp.setattr(training, "load_checkpoint",
                       lambda path: (state["model"], RmsProp(), state["meta"]))
            saved, rewrote = (0, -math.inf, -1, 0), []
            for epochs, run_patience, resume_from in runs:
                config = quick_config(epochs=epochs, early_stop_patience=run_patience)
                _, report = run_training(train_set, train_set, config, state_path="state",
                                         best_path="best", resume_from=resume_from)
                saved, run_rewrote, stopped = counter_loop(scores, epochs, run_patience, saved)
                rewrote += run_rewrote
        summary = report.summary()
        assert (summary["epochs_run"], summary["best_metric"], summary["best_epoch"]) == saved[:3]
        assert summary["stopped_early"] == stopped
        assert best_saves == rewrote
