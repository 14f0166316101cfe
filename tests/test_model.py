import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emofuse.dataset import VideoEntry, WindowDataset
from emofuse.errors import CorruptionError, DivergenceError, DomainError, SchemaError, ShapeError
from emofuse.model import (
    INFER_WINDOWS,
    MODES,
    RECURRENT_KINDS,
    FeatureStats,
    FusionModel,
    ModelConfig,
    RmsProp,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
    standardize,
)
from emofuse.nn.layers import softmax, softmax_cross_entropy
from emofuse.sequencing import N_CLASSES, AnnotationTrack, remap_label
from emofuse.store import read_packed, write_packed
from emofuse.video import default_selection

from oracles import frame_scores_direct, max_rel_err

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

TINY = ModelConfig(
    audio_dim=6,
    video_dim=8,
    audio_hidden=(5, 4),
    video_hidden=(6, 4),
    head_hidden=4,
    window_len=5,
    dtype="float64",
)


def random_batch(rng, cfg, batch=3):
    audio = rng.standard_normal((batch, cfg.window_len, cfg.audio_dim))
    video = rng.standard_normal((batch, cfg.window_len, cfg.video_dim))
    labels = rng.integers(0, N_CLASSES, size=(batch, cfg.window_len))
    mask = np.ones((batch, cfg.window_len))
    return audio, video, labels, mask


def parameter_count(model):
    return sum(p.size for p in model.parameters().values())


def closed_form_count(audio_dim, video_dim, mode="fused", recurrent="gru",
                      audio_hidden=(128, 64), video_hidden=(256, 64), head_hidden=64,
                      n_classes=8):
    gates = 3 if recurrent == "gru" else 4

    def rec(i, h):
        return gates * (h * i + h * h + h)

    def branch(d, hidden):
        total = 0
        dims = [d, *hidden]
        for k in range(len(hidden)):
            h = dims[k + 1]
            total += rec(dims[k], h) + 2 * h + h  # recurrent + batchnorm + prelu
        return total

    total = 0
    head_in = 0
    if mode in ("fused", "audio_only"):
        total += branch(audio_dim, audio_hidden)
        head_in += audio_hidden[-1]
    if mode in ("fused", "video_only"):
        total += branch(video_dim, video_hidden)
        head_in += video_hidden[-1]
    total += head_hidden * head_in + head_hidden  # head dense 1
    total += head_hidden  # head prelu
    total += n_classes * head_hidden + n_classes  # head dense 2
    return total


class TestForward:
    def test_rows_are_distributions(self, rng):
        model = FusionModel(TINY)
        audio, video, _, _ = random_batch(rng, TINY)
        probs = model.forward(audio, video)
        assert probs.shape == (3, 5, 8)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_single_window_output_shape(self, rng):
        cfg = ModelConfig(audio_dim=168, video_dim=32, audio_hidden=(16, 8),
                          video_hidden=(16, 8), head_hidden=8)
        model = FusionModel(cfg)
        probs = model.forward(
            rng.standard_normal((15, 168)), rng.standard_normal((15, 32))
        )
        assert probs.shape == (1, 15, 8)

    def test_fresh_model_loss_near_log8(self, rng):
        cfg = ModelConfig(audio_dim=168, video_dim=32, window_len=15)
        model = FusionModel(cfg)
        audio = rng.standard_normal((100, 15, 168)).astype(np.float32)
        video = rng.standard_normal((100, 15, 32)).astype(np.float32)
        labels = rng.integers(0, 8, size=(100, 15))
        probs = model.forward(audio, video)
        picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
        mean_loss = float(-np.log(picked).mean())
        assert mean_loss == pytest.approx(np.log(8.0), abs=0.2)

    def test_dim_mismatch_rejected(self, rng):
        model = FusionModel(TINY)
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((2, 5, 7)), rng.standard_normal((2, 5, 8)))

    @pytest.mark.parametrize("training", [False, True])
    def test_branch_batch_mismatch_rejected(self, rng, training):
        model = FusionModel(TINY)
        audio, video, _, _ = random_batch(rng, TINY, batch=3)
        for a, v in ((audio, video[:2]), (audio[:, 1:], video)):
            with pytest.raises(ShapeError, match="differ"):
                model.forward(a, v, training=training)

    def test_training_flag_changes_output(self, rng):
        model = FusionModel(TINY)
        audio, video, _, _ = random_batch(rng, TINY)
        inference = model.forward(audio, video, training=False)
        train = model.forward(audio, video, training=True, seed=1)
        assert not np.allclose(inference, train)

    def test_same_seed_same_training_output(self, rng):
        model = FusionModel(TINY)
        audio, video, _, _ = random_batch(rng, TINY)
        a = model.forward(audio, video, training=True, seed=9)
        b = model.forward(audio, video, training=True, seed=9)
        np.testing.assert_array_equal(a, b)


class TestParameterCount:
    def test_closed_form_at_openface_width(self):
        model = FusionModel(ModelConfig(video_dim=714))
        assert parameter_count(model) == closed_form_count(168, 714) == 968840

    @pytest.mark.parametrize("mode", ["audio_only", "video_only"])
    def test_single_modality_counts(self, mode):
        model = FusionModel(ModelConfig(mode=mode, video_dim=714))
        assert parameter_count(model) == closed_form_count(168, 714, mode=mode)

    def test_lstm_counts(self):
        model = FusionModel(ModelConfig(recurrent="lstm", video_dim=100))
        assert parameter_count(model) == closed_form_count(168, 100, recurrent="lstm")


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        model = FusionModel(TINY)
        before = {k: v.copy() for k, v in model.parameters().items()}
        audio, video, labels, mask = random_batch(rng, TINY)
        opt = RmsProp()
        opt.learning_rate = 0.0  # below RmsProp's domain, which refuses it at construction
        model.train_step(audio, video, labels, mask, opt, seed=0)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, before[k])

    def test_repeated_steps_decrease_loss(self, rng):
        cfg = ModelConfig(
            audio_dim=6, video_dim=8, audio_hidden=(8, 6), video_hidden=(8, 6),
            head_hidden=6, window_len=5,
        )
        model = FusionModel(cfg)
        audio, video, labels, mask = random_batch(rng, cfg, batch=8)
        opt = RmsProp(learning_rate=1e-3)
        # identical call repeated: same batch, same dropout draw
        losses = [
            model.train_step(audio, video, labels, mask, opt, seed=0)
            for _ in range(50)
        ]
        assert losses[-1] < losses[0]
        non_monotone = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert non_monotone <= 5

    def test_divergence_raises(self, rng):
        model = FusionModel(TINY)
        model.parameters()["head.dense2.W"][...] = np.nan
        audio, video, labels, mask = random_batch(rng, TINY)
        with pytest.raises(DivergenceError):
            model.train_step(audio, video, labels, mask, RmsProp(), seed=0)

    @pytest.mark.parametrize("recurrent", RECURRENT_KINDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_full_model_gradient_spot_check(self, rng, mode, recurrent):
        cfg = ModelConfig(**{**TINY.__dict__, "mode": mode, "recurrent": recurrent})
        model = FusionModel(cfg)
        audio, video, labels, mask = random_batch(rng, cfg, batch=2)
        mask[1, -2:] = 0.0  # exercise the loss mask too
        seed = 13

        def loss_of_model():
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
        picks = rng.choice(len(names), size=10, replace=False)
        eps = 1e-5
        for pick in picks:
            name = names[pick]
            arr = params[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss_of_model()
            arr[idx] = orig - eps
            down = loss_of_model()
            arr[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            assert max_rel_err([analytic], [numeric], atol=1e-8) < 1e-3, name


def test_negative_seed_is_schema_error():
    with pytest.raises(SchemaError, match="seed"):
        ModelConfig(seed=-1)


@pytest.mark.parametrize("field, value", [
    ("dtype", "int32"), ("dtype", "float16"), ("seed", 1.5), ("seed", True),
])
def test_config_value_outside_its_domain_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=f"^{field} must be"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("field", ["n_classes", "dropout", "bn_momentum", "bn_eps"])
def test_fixed_architecture_is_not_a_config_field(field):
    # the 8 classes, dropout 0.25 and the BatchNorm settings are constants of the model
    with pytest.raises(TypeError):
        ModelConfig(**{field: 1})


class TestVariants:
    def test_audio_only_drops_video_branch(self, rng):
        cfg = ModelConfig(mode="audio_only", audio_dim=6, video_dim=8,
                          audio_hidden=(5, 4), video_hidden=(6, 4), head_hidden=4,
                          window_len=5)
        model = FusionModel(cfg)
        assert list(model.branches) == ["audio"]
        probs = model.forward(rng.standard_normal((2, 5, 6)), None)
        assert probs.shape == (2, 5, 8)
        assert model.head[0].in_dim == 4  # head consumes just the audio branch

    def test_branch_isolation_between_variants(self, rng):
        fused = FusionModel(TINY)
        audio_only = FusionModel(
            ModelConfig(**{**TINY.__dict__, "mode": "audio_only"})
        )
        audio, _, _, _ = random_batch(rng, TINY)
        x_f = audio.copy()
        x_a = audio.copy()
        for layer_f, layer_a in zip(fused.branches["audio"], audio_only.branches["audio"]):
            for k in layer_f.params:
                np.testing.assert_array_equal(layer_f.params[k], layer_a.params[k])
        out_f = fused._run_stack(fused.branches["audio"], x_f, True, seed=5)
        out_a = audio_only._run_stack(audio_only.branches["audio"], x_a, True, seed=5)
        np.testing.assert_array_equal(out_f, out_a)

    def test_lstm_variant_runs(self, rng):
        cfg = ModelConfig(**{**TINY.__dict__, "recurrent": "lstm"})
        model = FusionModel(cfg)
        audio, video, labels, mask = random_batch(rng, cfg)
        loss = model.train_step(audio, video, labels, mask, RmsProp(), seed=0)
        assert np.isfinite(loss)


def one_video(rng, cfg, starts, n_frames, pad_counts=None):
    """A container of one ``n_frames``-frame video with random windows at ``starts``."""
    w = len(starts)
    return WindowDataset(
        audio=rng.standard_normal((w, cfg.window_len, cfg.audio_dim)).astype(np.float32),
        video=rng.standard_normal((w, cfg.window_len, cfg.video_dim)).astype(np.float32),
        labels=np.zeros((w, cfg.window_len), dtype=np.int64),
        start_frames=np.array(starts, dtype=np.int64),
        pad_counts=np.array(pad_counts or [0] * w, dtype=np.int64),
        videos=[VideoEntry("v", n_frames, 0, w)],
        window_len=cfg.window_len,
        stride=cfg.window_len,
    )


def predict_one(model, dataset):
    """``(labels, probs)`` of a one-video container."""
    ((_, labels, probs, _),) = predict_dataset(model, dataset)
    return labels, probs


def reordered(dataset, order):
    """``dataset`` with its windows in ``order``; the video entries are kept."""
    return WindowDataset(
        audio=dataset.audio[order],
        video=dataset.video[order],
        labels=dataset.labels[order],
        start_frames=dataset.start_frames[order],
        pad_counts=dataset.pad_counts[order],
        videos=dataset.videos,
        window_len=dataset.window_len,
        stride=dataset.stride,
    )


class TestPredictVideo:
    """Per-frame scores of one video through :func:`predict_dataset`."""

    def test_single_window_argmax(self, rng):
        model = FusionModel(TINY)
        ds = one_video(rng, TINY, [0], n_frames=5)
        labels, probs = predict_one(model, ds)
        direct = model.forward(ds.audio[0], ds.video[0])[0]
        np.testing.assert_allclose(probs, direct, atol=1e-12)
        np.testing.assert_array_equal(labels, np.argmax(direct, axis=1))

    def test_overlap_takes_mean(self, rng):
        cfg = ModelConfig(**{**TINY.__dict__, "window_len": 4})
        model = FusionModel(cfg)
        ds = one_video(rng, cfg, [0, 2], n_frames=6)
        _, probs = predict_one(model, ds)
        p0 = model.forward(ds.audio[0], ds.video[0])[0]
        p1 = model.forward(ds.audio[1], ds.video[1])[0]
        np.testing.assert_allclose(probs[2], (p0[2] + p1[0]) / 2.0, atol=1e-12)
        np.testing.assert_allclose(probs[0], p0[0], atol=1e-12)

    def test_all_frames_labeled_once(self, rng):
        cfg = ModelConfig(audio_dim=4, video_dim=5, audio_hidden=(4, 3),
                          video_hidden=(4, 3), head_hidden=4)
        model = FusionModel(cfg)
        labels, probs = predict_one(model, one_video(rng, cfg, [0, 10, 12], n_frames=27))
        assert labels.shape == (27,)
        assert probs.shape == (27, 8)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_window_order_is_irrelevant(self, rng):
        cfg = ModelConfig(audio_dim=4, video_dim=5, audio_hidden=(4, 3),
                          video_hidden=(4, 3), head_hidden=4)
        model = FusionModel(cfg)
        ds = one_video(rng, cfg, [0, 10, 12], n_frames=27)
        labels_a, probs_a = predict_one(model, ds)
        labels_b, probs_b = predict_one(model, reordered(ds, [2, 1, 0]))
        np.testing.assert_array_equal(labels_a, labels_b)
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_padded_rows_discarded(self, rng):
        model = FusionModel(TINY)
        ds = one_video(rng, TINY, [0], n_frames=3, pad_counts=[2])
        labels, probs = predict_one(model, ds)
        assert labels.shape == (3,)
        full = model.forward(ds.audio[0], ds.video[0])[0]
        np.testing.assert_allclose(probs, full[:3], atol=1e-12)

    def test_argmax_tie_breaks_to_lowest_class(self, rng):
        # a head whose scores ignore its input and tie classes 1 and 2 exactly
        cfg = ModelConfig(**{**TINY.__dict__, "window_len": 4})
        model = FusionModel(cfg)
        dense = model.head[-1]
        dense.params["W"][...] = 0.0
        dense.params["b"][...] = [0, 1, 1, 0, 0, 0, 0, 0]
        labels, probs = predict_one(model, one_video(rng, cfg, [0, 2], n_frames=6))
        assert (probs[:, 1] == probs[:, 2]).all()
        np.testing.assert_array_equal(labels, np.ones(6))


class TestCheckpoint:
    def test_roundtrip_params_and_stats(self, tmp_path, rng):
        model = FusionModel(TINY)
        model.feature_stats = FeatureStats(
            audio_mean=rng.standard_normal(6).astype(np.float32),
            audio_std=rng.random(6).astype(np.float32) + 0.5,
            video_mean=rng.standard_normal(8).astype(np.float32),
            video_std=rng.random(8).astype(np.float32) + 0.5,
        )
        opt = RmsProp(learning_rate=2e-4)
        audio, video, labels, mask = random_batch(rng, TINY)
        model.train_step(audio, video, labels, mask, opt, seed=0)

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, optimizer=opt, meta={"note": "test"})
        back, opt2, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert opt2.learning_rate == 2e-4

        # float64 params round through the float32 container
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(
                back.parameters()[k], v.astype(np.float32).astype(np.float64)
            )
        for k, v in opt.state_arrays().items():
            np.testing.assert_array_equal(
                opt2.state_arrays()[k], v.astype(np.float32).astype(np.float64)
            )
        np.testing.assert_array_equal(
            back.feature_stats.audio_mean, model.feature_stats.audio_mean
        )

    def test_same_seed_is_bit_identical(self, tmp_path):
        cfg = ModelConfig(audio_dim=6, video_dim=8, audio_hidden=(5, 4),
                          video_hidden=(6, 4), head_hidden=4, seed=11)
        save_checkpoint(tmp_path / "a.ckpt", FusionModel(cfg))
        save_checkpoint(tmp_path / "b.ckpt", FusionModel(cfg))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_inference_identical_after_reload(self, tmp_path, rng):
        cfg = ModelConfig(audio_dim=6, video_dim=8, audio_hidden=(5, 4),
                          video_hidden=(6, 4), head_hidden=4, window_len=5)
        model = FusionModel(cfg)
        save_checkpoint(tmp_path / "m.ckpt", model)
        back, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        audio, video, _, _ = random_batch(rng, cfg)
        np.testing.assert_array_equal(
            model.forward(audio, video), back.forward(audio, video)
        )

    @pytest.mark.parametrize("fail_at", ["write", "fsync"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, rng, monkeypatch, fail_at):
        import emofuse.store as store_mod

        path = tmp_path / "checkpoint.ckpt"
        save_checkpoint(path, FusionModel(TINY), meta={"epoch": 1})
        good = path.read_bytes()

        class HalfWrite:
            """A file whose write stores half of the first large chunk, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if len(data) > 64:
                    self.fh.write(data[: len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        if fail_at == "write":
            monkeypatch.setattr(store_mod, "open", lambda *a: HalfWrite(open(*a)), raising=False)
        else:
            def no_fsync(fd):
                raise OSError(5, "Input/output error")

            monkeypatch.setattr(store_mod.os, "fsync", no_fsync)
        newer = FusionModel(ModelConfig(**{**TINY.__dict__, "seed": 5}))
        with pytest.raises(OSError):
            save_checkpoint(path, newer, meta={"epoch": 2})
        monkeypatch.undo()

        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.ckpt"]
        _, _, meta = load_checkpoint(path)
        assert meta == {"epoch": 1}

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "checkpoint.ckpt"
        save_checkpoint(path, FusionModel(TINY), meta={"epoch": 1})
        save_checkpoint(path, FusionModel(TINY), meta={"epoch": 2})
        assert load_checkpoint(path)[2] == {"epoch": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.ckpt"]

    @pytest.mark.parametrize("recurrent", ["gru", "lstm"])
    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch, recurrent):
        import emofuse.nn.layers as layers_mod
        import emofuse.nn.recurrent as recurrent_mod

        cfg = ModelConfig(**{**TINY.__dict__, "recurrent": recurrent, "seed": 3, "dtype": "float32"})
        model = FusionModel(cfg)
        save_checkpoint(tmp_path / "m.ckpt", model)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew initial weights")

        for mod in (layers_mod, recurrent_mod):
            monkeypatch.setattr(mod, "glorot_uniform", no_draw)
            monkeypatch.setattr(mod, "orthogonal", no_draw)
        back, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        for name, value in model.parameters().items():
            np.testing.assert_array_equal(back.parameters()[name], value)

    def test_corruption_detected(self, tmp_path):
        cfg = ModelConfig(audio_dim=6, video_dim=8, audio_hidden=(5, 4),
                          video_hidden=(6, 4), head_hidden=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, FusionModel(cfg))
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x01
        path.write_bytes(bytes(data))
        from emofuse.errors import CorruptionError

        with pytest.raises(CorruptionError):
            load_checkpoint(path)


def gate_entries(layer, gates, in_dim, hidden):
    """Names and shapes of one recurrent layer's gate-stacked parameters."""
    G = len(gates) * hidden
    return [(f"{layer}.W", (G, in_dim)), (f"{layer}.U", (G, hidden)), (f"{layer}.b", (G,))]


def fused_layout(gates):
    """Every parameter of the paper-size fused model, as checkpoint format 2 stores it."""
    return [
        *gate_entries("audio.rnn1", gates, 168, 128),
        ("audio.bn1.gamma", (128,)), ("audio.bn1.beta", (128,)), ("audio.prelu1.alpha", (128,)),
        *gate_entries("audio.rnn2", gates, 128, 64),
        ("audio.bn2.gamma", (64,)), ("audio.bn2.beta", (64,)), ("audio.prelu2.alpha", (64,)),
        *gate_entries("video.rnn1", gates, 709, 256),
        ("video.bn1.gamma", (256,)), ("video.bn1.beta", (256,)), ("video.prelu1.alpha", (256,)),
        *gate_entries("video.rnn2", gates, 256, 64),
        ("video.bn2.gamma", (64,)), ("video.bn2.beta", (64,)), ("video.prelu2.alpha", (64,)),
        ("head.dense1.W", (64, 128)), ("head.dense1.b", (64,)), ("head.prelu.alpha", (64,)),
        ("head.dense2.W", (8, 64)), ("head.dense2.b", (8,)),
    ]


class TestCheckpointLayout:
    """Checkpoints written now must keep loading later: names and shapes are pinned."""

    @pytest.mark.parametrize("recurrent, gates", [("gru", "zrh"), ("lstm", "ifog")])
    def test_parameter_names_and_shapes(self, tmp_path, rng, recurrent, gates):
        model = FusionModel(ModelConfig(recurrent=recurrent))
        layout = fused_layout(gates)
        assert [(k, v.shape) for k, v in model.parameters().items()] == layout

        opt = RmsProp()
        audio = rng.standard_normal((2, 15, 168))
        video = rng.standard_normal((2, 15, 709))
        labels = rng.integers(0, 8, size=(2, 15))
        model.train_step(audio, video, labels, np.ones((2, 15)), opt)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, optimizer=opt)

        header, _ = read_checkpoint_raw(path)
        assert header["format_version"] == 2
        stored = header["arrays"]
        assert [(e["name"], tuple(e["shape"])) for e in stored if e["kind"] == "param"] == layout
        assert [(e["name"], tuple(e["shape"])) for e in stored if e["kind"] == "optimizer"] == [
            (f"optimizer.{name}", shape) for name, shape in layout
        ]

        back, opt2, _ = load_checkpoint(path)
        for name, value in model.parameters().items():
            np.testing.assert_array_equal(back.parameters()[name], value)
        for name, value in opt.state_arrays().items():
            np.testing.assert_array_equal(opt2.state_arrays()[name], value)
        np.testing.assert_array_equal(back.forward(audio, video), model.forward(audio, video))


def loaded_arrays(model, opt):
    """A loaded model's params, buffers, RMSProp accumulators and feature stats
    under the names a checkpoint stores them by."""
    stats = model.feature_stats
    return {**model.parameters(), **model.buffers(),
            **{f"optimizer.{k}": v for k, v in opt.state_arrays().items()},
            **{f"stats.{k}": getattr(stats, k)
               for k in ("audio_mean", "audio_std", "video_mean", "video_std")}}


def read_checkpoint_raw(path):
    """A checkpoint's JSON header and its arrays by stored name, parsed by hand."""
    with open(path, "rb") as fh:
        data = fh.read()
    (n,) = struct.unpack_from("<Q", data, 8)
    header, blob = json.loads(data[16 : 16 + n]), data[16 + n :]
    return header, {
        e["name"]: np.frombuffer(blob[e["offset"] : e["offset"] + e["nbytes"]], "<f4").reshape(
            e["shape"])
        for e in header["arrays"]
    }


class TestFormat1Checkpoint:
    """Checkpoint format 1 stored each recurrent cell's params, and their RMSProp
    accumulators, per gate (``audio.rnn1.Wz``, ``optimizer.audio.rnn1.Wz``, ...).
    It is no longer read.

    ``data/format1_{gru,lstm}.ckpt`` were written by the format-1 writer: a fused
    model with TINY's sizes at float32, seed 11, feature stats, and two RMSProp
    steps (learning rate 1e-2) on random batches. ``data/format1_forward.npz``
    holds a fixed input and each model's forward output from that writer's code.
    ``data/format2_{gru,lstm}.ckpt`` are the format-1 files as loaded and saved
    again by the first format-2 code, which still read format 1. The code can no
    longer regenerate them, so ``test_store.py`` pins their bytes.
    """

    @pytest.mark.parametrize("recurrent", ["gru", "lstm"])
    def test_is_refused_naming_format_1(self, recurrent):
        with pytest.raises(SchemaError, match="format-1 checkpoint .*train again$"):
            load_checkpoint(os.path.join(DATA, f"format1_{recurrent}.ckpt"))

    @pytest.mark.parametrize("recurrent, gates", [("gru", "zrh"), ("lstm", "ifog")])
    def test_loads_per_gate_arrays_stacked_in_gate_order(self, recurrent, gates):
        # the format-2 fixture loads the format-1 fixture's arrays, each
        # recurrent cell's per-gate arrays stacked in gate order
        header, raw = read_checkpoint_raw(os.path.join(DATA, f"format1_{recurrent}.ckpt"))
        assert header["format_version"] == 1
        model, opt, meta = load_checkpoint(os.path.join(DATA, f"format2_{recurrent}.ckpt"))
        assert meta == {"epoch": 2} and model.config.recurrent == recurrent

        loaded = loaded_arrays(model, opt)
        used = set()
        for name, value in loaded.items():
            layer, kind = name.rsplit(".", 1)
            stored = [f"{layer}.{kind}{g}" for g in gates] if ".rnn" in layer else [name]
            used.update(stored)
            np.testing.assert_array_equal(value, np.concatenate([raw[n] for n in stored]),
                                          err_msg=name)
        assert used == set(raw)

        # float32 BLAS kernels may round differently on another CPU; a gate
        # taken from the wrong rows moves these probabilities far more
        with np.load(os.path.join(DATA, "format1_forward.npz")) as fixture:
            np.testing.assert_allclose(model.forward(fixture["audio"], fixture["video"]),
                                       fixture[f"{recurrent}_probs"], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("recurrent", ["gru", "lstm"])
    def test_format_2_fixture_loads_the_same_arrays(self, recurrent):
        path = os.path.join(DATA, f"format2_{recurrent}.ckpt")
        header, raw = read_checkpoint_raw(path)
        assert header["format_version"] == 2
        loaded = loaded_arrays(*load_checkpoint(path)[:2])
        assert set(loaded) == set(raw)
        for name, value in loaded.items():
            # a writable array is a copy, not a read-only view of the file's bytes
            assert value.dtype == np.float32 and value.flags.writeable, name
            np.testing.assert_array_equal(value, raw[name], err_msg=name)

    @pytest.mark.parametrize("recurrent", ["gru", "lstm"])
    def test_resaved_as_format_2_and_trains_on(self, tmp_path, rng, recurrent):
        model, opt, _ = load_checkpoint(os.path.join(DATA, f"format2_{recurrent}.ckpt"))
        save_checkpoint(tmp_path / "m.ckpt", model, optimizer=opt)
        header, _ = read_checkpoint_raw(tmp_path / "m.ckpt")
        assert header["format_version"] == 2
        back, opt2, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert list(opt2.state_arrays()) == list(opt.state_arrays()) == list(model.parameters())
        batch = random_batch(rng, ModelConfig(**{**TINY.__dict__, "dtype": "float32"}))
        losses = [m.train_step(*batch, o, seed=1) for m, o in ((model, opt), (back, opt2))]
        assert losses[0] == losses[1]
        for name, value in model.parameters().items():
            np.testing.assert_array_equal(back.parameters()[name], value)


class TestLogits:
    @pytest.mark.parametrize("mode", ["fused", "audio_only", "video_only"])
    def test_forward_is_softmax_of_logits(self, rng, mode):
        model = FusionModel(ModelConfig(**{**TINY.__dict__, "mode": mode}))
        audio, video, _, _ = random_batch(rng, TINY)
        np.testing.assert_array_equal(
            model.forward(audio, video), softmax(model.logits(audio, video))
        )
        np.testing.assert_array_equal(
            model.forward(audio, video, training=True, seed=4),
            softmax(model.logits(audio, video, training=True, seed=4)),
        )

    @pytest.mark.parametrize("recurrent", ["gru", "lstm"])
    def test_train_step_loss_is_softmax_cross_entropy(self, rng, recurrent):
        model = FusionModel(ModelConfig(**{**TINY.__dict__, "recurrent": recurrent}))
        audio, video, labels, mask = random_batch(rng, TINY)
        mask[0, -2:] = 0.0
        # training-mode outputs use batch statistics, so this extra call
        # leaves the train step's logits (same dropout seed) unchanged
        expected, _, _ = softmax_cross_entropy(
            model.logits(audio, video, training=True, seed=9), labels, mask
        )
        assert model.train_step(audio, video, labels, mask, RmsProp(), seed=9) == expected

    def test_default_config_accepts_shipped_video_width(self):
        width = len(default_selection().include_columns)
        model = FusionModel(ModelConfig())
        audio = np.zeros((1, 15, 168), dtype=np.float32)
        video = np.zeros((1, 15, width), dtype=np.float32)
        assert model.forward(audio, video).shape == (1, 15, 8)


def labelled_dataset(rng, cfg, lengths, stride=3):
    """Videos of the given frame counts, cut into windows; returns (dataset, per-frame labels)."""
    videos = [
        (AnnotationTrack(rng.integers(-1, 7, size=n).tolist(), f"v{v}"),
         rng.standard_normal((n, cfg.audio_dim)), rng.standard_normal((n, cfg.video_dim)))
        for v, n in enumerate(lengths)
    ]
    dataset = WindowDataset.from_videos(videos, window_len=cfg.window_len, stride=stride)
    return dataset, [remap_label(track.labels) for track, _, _ in videos]


def video_part(dataset, entry):
    """The one-video container holding ``entry``'s windows."""
    lo, hi = entry.window_offset, entry.window_offset + entry.window_count
    part = reordered(dataset, np.arange(lo, hi))
    part.videos = [VideoEntry(entry.video_id, entry.n_frames, 0, entry.window_count)]
    return part


def assert_same_predictions(got, want):
    """Two streams of ``(video_id, labels, probs, truth)`` agree exactly."""
    got, want = list(got), list(want)
    assert [g[0] for g in got] == [w[0] for w in want]
    for g, w in zip(got, want):
        for a, b in zip(g[1:], w[1:]):
            np.testing.assert_array_equal(a, b)


class TestPredictDataset:
    def test_matches_predict_video_per_video(self, rng):
        model = FusionModel(TINY)
        dataset, _ = labelled_dataset(rng, TINY, [12, 5, 3, 9])
        results = list(predict_dataset(model, dataset))
        assert [r[0] for r in results] == [v.video_id for v in dataset.videos]
        for (_, labels, probs, _), entry in zip(results, dataset.videos):
            part = video_part(dataset, entry)
            want_labels, want_probs = frame_scores_direct(
                model.forward(part.audio, part.video), part.start_frames.tolist(),
                part.pad_counts.tolist(), entry.n_frames,
            )
            np.testing.assert_array_equal(labels, want_labels)
            np.testing.assert_array_equal(probs, want_probs)

    def test_container_equals_its_single_video_parts(self, rng):
        model = FusionModel(TINY)
        # 44 windows: forward slices cross video boundaries
        dataset, _ = labelled_dataset(rng, TINY, [40, 5, 3, 70, 9, 22])
        assert dataset.n_windows > INFER_WINDOWS
        parts = [video_part(dataset, e) for e in dataset.videos]
        assert_same_predictions(
            predict_dataset(model, dataset),
            [result for part in parts for result in predict_dataset(model, part)],
        )

    def test_container_window_order_is_irrelevant(self, rng):
        # stride 1: up to five windows share a frame, so the summation order shows
        dataset, _ = labelled_dataset(rng, TINY, [23, 9], stride=1)
        order = np.concatenate([
            e.window_offset + rng.permutation(e.window_count) for e in dataset.videos
        ])
        model = FusionModel(TINY)
        assert_same_predictions(
            predict_dataset(model, reordered(dataset, order)), predict_dataset(model, dataset)
        )

    def test_applies_the_model_feature_stats(self, rng):
        dataset, _ = labelled_dataset(rng, TINY, [12, 40])
        stats = FeatureStats(
            audio_mean=rng.standard_normal(TINY.audio_dim).astype(np.float32),
            audio_std=(rng.random(TINY.audio_dim) + 0.5).astype(np.float32),
            video_mean=rng.standard_normal(TINY.video_dim).astype(np.float32),
            video_std=(rng.random(TINY.video_dim) + 0.5).astype(np.float32),
        )
        standardized = reordered(dataset, np.arange(dataset.n_windows))
        standardized.audio = standardize(dataset.audio, stats.audio_mean, stats.audio_std)
        standardized.video = standardize(dataset.video, stats.video_mean, stats.video_std)
        plain = FusionModel(TINY)
        with_stats = FusionModel(TINY)
        with_stats.feature_stats = stats
        # raw data through a stats-bearing model == standardized data through a plain one
        assert_same_predictions(
            predict_dataset(with_stats, dataset), predict_dataset(plain, standardized)
        )
        raw = list(predict_dataset(plain, dataset))
        assert not np.array_equal(raw[0][2], next(predict_dataset(with_stats, dataset))[2])

    def test_window_rows_not_model_config_set_the_length(self, rng):
        # a recurrent model runs at any window length; scoring follows the data
        dataset, _ = labelled_dataset(rng, TINY, [12, 3])
        longer = FusionModel(ModelConfig(**{**TINY.__dict__, "window_len": TINY.window_len + 2}))
        assert_same_predictions(
            predict_dataset(longer, dataset), predict_dataset(FusionModel(TINY), dataset)
        )

    def test_no_layer_keeps_a_cache(self, rng):
        model = FusionModel(TINY)
        dataset, _ = labelled_dataset(rng, TINY, [40, 12])
        model.forward(dataset.audio[:4], dataset.video[:4], training=True, seed=0)
        assert any(layer._cache is not None for layer in model._layers)
        list(predict_dataset(model, dataset))
        assert all(layer._cache is None for layer in model._layers)

    def test_padded_rows_may_hold_any_label(self, rng):
        # the window at 0 holds frames 0-2 and a padded row at frame 3, whose
        # label differs from the real row of the window at 2 there
        cfg = ModelConfig(**{**TINY.__dict__, "window_len": 4})
        dataset = one_video(rng, cfg, [0, 2], n_frames=6, pad_counts=[1, 0])
        dataset.labels[:] = [[1, 1, 2, 5], [2, 3, 3, 3]]
        ((_, _, _, truth),) = predict_dataset(FusionModel(cfg), dataset)
        np.testing.assert_array_equal(truth, [1, 1, 2, 3, 3, 3])

    def test_truth_drops_padded_rows(self, rng):
        model = FusionModel(TINY)
        dataset, truths = labelled_dataset(rng, TINY, [11, 2])
        assert dataset.pad_counts[-1] == TINY.window_len - 2
        for (_, labels, _, truth), want in zip(predict_dataset(model, dataset), truths):
            assert truth.shape == labels.shape == want.shape
            np.testing.assert_array_equal(truth, want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    lengths=st.lists(st.integers(1, 3 * TINY.window_len), min_size=1, max_size=6),
    stride=st.integers(1, TINY.window_len),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[15, 15, 15], stride=1, seed=0)  # 33 windows: two forward slices
def test_predict_dataset_equals_the_direct_frame_scores(lengths, stride, seed):
    rng = np.random.default_rng(seed)
    dataset, truths = labelled_dataset(rng, TINY, lengths, stride=stride)
    shuffled = reordered(dataset, np.concatenate([
        e.window_offset + rng.permutation(e.window_count) for e in dataset.videos
    ]))
    model = FusionModel(TINY)
    results = list(predict_dataset(model, shuffled))
    assert [r[0] for r in results] == [e.video_id for e in dataset.videos]
    for (_, labels, probs, truth), entry, want_truth in zip(results, shuffled.videos, truths):
        part = video_part(shuffled, entry)
        want_labels, want_probs = frame_scores_direct(
            model.forward(part.audio, part.video), part.start_frames.tolist(),
            part.pad_counts.tolist(), entry.n_frames,
        )
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(probs, want_probs)
        np.testing.assert_array_equal(truth, want_truth)


class TestBatchInvariance:
    """A window's inference output does not depend on the windows batched with it."""

    @pytest.mark.parametrize("mode", ["fused", "audio_only", "video_only"])
    @pytest.mark.parametrize("recurrent", ["gru", "lstm"])
    @pytest.mark.parametrize("base", [TINY, ModelConfig()], ids=["tiny", "paper"])
    def test_rows_identical_at_any_batch_size(self, base, recurrent, mode):
        cfg = ModelConfig(**{**base.__dict__, "recurrent": recurrent, "mode": mode})
        model = FusionModel(cfg)
        rng = np.random.default_rng(3)
        S = INFER_WINDOWS
        n = 3 * S + 2
        audio = rng.standard_normal((n, cfg.window_len, cfg.audio_dim))
        video = rng.standard_normal((n, cfg.window_len, cfg.video_dim))
        full = model.forward(audio, video)
        for batch in (1, S - 1, S, S + 1):
            assert np.array_equal(model.forward(audio[:batch], video[:batch]), full[:batch]), batch
        perm = rng.permutation(n)
        assert np.array_equal(model.forward(audio[perm], video[perm]), full[perm])
        assert np.array_equal(model.forward(audio[n - 1], video[n - 1])[0], full[n - 1])

    def test_training_forward_is_one_batch(self, rng):
        # BatchNorm batch statistics span the whole batch in training mode
        model = FusionModel(TINY)
        audio, video, _, _ = random_batch(rng, TINY, batch=INFER_WINDOWS + 3)
        whole = model.forward(audio, video, training=True, seed=1)
        part = model.forward(audio[:INFER_WINDOWS], video[:INFER_WINDOWS], training=True, seed=1)
        assert not np.allclose(whole[:INFER_WINDOWS], part)


def rewrite_header(path, edit):
    """Apply ``edit`` to a packed file's JSON header (a checkpoint or a container's
    file), leaving its blob untouched; bytes that ``edit`` returns replace the header."""
    data = path.read_bytes()
    (n,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + n])
    raw = edit(header)
    raw = raw if isinstance(raw, bytes) else json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + n :])


def edit_entry(array, key, change):
    """A ``rewrite_header`` edit replacing ``key`` of array entry ``array`` with ``change(value)``."""
    def edit(header):
        (entry,) = [e for e in header["arrays"] if e["name"] == array]
        entry[key] = change(entry[key])
    return edit


# each damages a checkpoint that holds feature stats and RMSProp accumulators
DAMAGED_CHECKPOINTS = {
    "format_1": (lambda h: h.update(format_version=1), r"format-1 checkpoint .*train again$"),
    "stats_shape": (edit_entry("stats.video_std", "shape", lambda s: [1, *s]),
                    r"array stats\.video_std has shape \[1, (\d+)\], expected \[\1\]$"),
    "stats_renamed": (edit_entry("stats.video_std", "name", lambda n: "stats.video_sd"),
                      r"unexpected array stats\.video_sd$"),
    "accumulator_transposed": (edit_entry("optimizer.audio.rnn1.W", "shape", lambda s: s[::-1]),
                               r"array optimizer\.audio\.rnn1\.W has shape \[(\d+), (\d+)\], "
                               r"expected \[\2, \1\]$"),
    "accumulator_renamed": (edit_entry("optimizer.audio.rnn1.W", "name", lambda n: n + "z"),
                            r"missing array optimizer\.audio\.rnn1\.W$"),
    "stats_partial": (lambda h: h.update(arrays=[e for e in h["arrays"]
                                                 if e["name"] != "stats.audio_mean"]),
                      r"missing array stats\.audio_mean$"),
    "accumulators_without_optimizer": (lambda h: h.update(optimizer=None),
                                       r"unexpected array optimizer\.audio\.bn1\.beta$"),
    # the optimizer section is exact, as config is: no unknown key, no defaulted learning_rate
    "optimizer_unknown_key": (lambda h: h["optimizer"].update(momentum=0.9),
                              r"\.ckpt: missing or malformed field .*unexpected keyword argument "
                              r"'momentum'$"),
    "optimizer_without_learning_rate": (lambda h: h.update(optimizer={"rho": 0.9}),
                                        r"\.ckpt: missing or malformed field 'learning_rate'$"),
    "optimizer_empty": (lambda h: h.update(optimizer={}),
                        r"\.ckpt: missing or malformed field 'learning_rate'$"),
}


def repack(path, edit):
    """Rewrite the packed file at ``path`` after ``edit(header, {name: (kind, array)})``,
    under a checksum that matches."""
    header, arrays = read_packed(path)
    del header["blob_sha256"]
    kinds = {e["name"]: e["kind"] for e in header.pop("arrays")}
    entries = {n: (kinds[n], np.array(a)) for n, a in arrays.items()}
    edit(header, entries)
    write_packed(path, header, [({"name": n, "kind": k}, a) for n, (k, a) in entries.items()])


def set_array_value(path, name, value):
    """Rewrite the packed file at ``path`` with the first value of array ``name`` set to ``value``."""
    def edit(header, entries):
        entries[name][1].flat[0] = value

    repack(path, edit)


# header values outside the domain of the type that holds them: (section, key, value)
REFUSED_HEADER_VALUES = [
    ("config", "dtype", "int32"), ("config", "dtype", "float16"),
    ("config", "seed", 1.5), ("config", "seed", -1),
    ("optimizer", "learning_rate", -1.0), ("optimizer", "learning_rate", 0.0),
    ("optimizer", "learning_rate", float("nan")),
]
HEADER_IDS = [f"{section}.{key}={value}" for section, key, value in REFUSED_HEADER_VALUES]
# settings that checkpoints stored before they became constants: (section, key, constant)
CONSTANT_HEADER_KEYS = [
    ("config", "n_classes", 8), ("config", "dropout", 0.25), ("config", "bn_momentum", 0.99),
    ("config", "bn_eps", 1e-5), ("optimizer", "rho", 0.9), ("optimizer", "eps", 1e-7),
]
CONSTANT_KEY_IDS = [f"{section}.{key}" for section, key, _ in CONSTANT_HEADER_KEYS]
# values a stored constant may not take; "other", "negated" and "retyped" derive from the constant
NOT_THE_CONSTANT = {"other": "other", "negated": "negated", "retyped": "retyped", "0": 0,
                    "1e308": 1e308, "1e-300": 1e-300, "nan": float("nan"), "inf": float("inf"),
                    "1e400": 10**400, "true": True, "null": None}
# stored array values outside their domain: (array, value)
REFUSED_ARRAY_VALUES = {
    "nan_weight": ("head.dense2.W", float("nan")),
    "negative_running_var": ("audio.bn1.running_var", -1.0),
    "negative_video_std": ("stats.video_std", -1.0),
    "negative_accumulator": ("optimizer.audio.rnn1.W", -1.0),
    "nan_accumulator": ("optimizer.audio.rnn1.W", float("nan")),
}


class TestMalformedCheckpoint:
    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, FusionModel(TINY))
        return path

    @pytest.fixture
    def trained(self, tmp_path, rng):
        """A checkpoint holding feature stats and RMSProp accumulators."""
        model = FusionModel(TINY)
        model.feature_stats = FeatureStats(rng.random(6), rng.random(6) + 0.5,
                                           rng.random(8), rng.random(8) + 0.5)
        opt = RmsProp()
        model.train_step(*random_batch(rng, TINY), opt)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, optimizer=opt)
        return path

    @pytest.mark.parametrize("damage", sorted(DAMAGED_CHECKPOINTS))
    def test_damaged_checkpoint_is_schema_error(self, trained, damage):
        edit, message = DAMAGED_CHECKPOINTS[damage]
        rewrite_header(trained, edit)
        with pytest.raises(SchemaError, match=message):
            load_checkpoint(trained)

    @pytest.mark.parametrize("section, key, value", REFUSED_HEADER_VALUES, ids=HEADER_IDS)
    def test_header_value_outside_its_domain_is_schema_error(self, trained, section, key, value):
        rewrite_header(trained, lambda h: h[section].update({key: value}))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(trained))}: {key} must be"):
            load_checkpoint(trained)

    @pytest.mark.parametrize("wrong", list(NOT_THE_CONSTANT.values()), ids=list(NOT_THE_CONSTANT))
    @pytest.mark.parametrize("section, key, constant", CONSTANT_HEADER_KEYS, ids=CONSTANT_KEY_IDS)
    def test_stored_constant_loads_only_at_its_value(self, trained, section, key, constant, wrong):
        rewrite_header(trained, lambda h: h[section].update({key: constant}))
        model, optimizer, _ = load_checkpoint(trained)
        assert model.config == TINY and optimizer.learning_rate == 1e-4
        value = {"other": 5 if key == "n_classes" else 2 * constant, "negated": -constant,
                 "retyped": float(constant) if key == "n_classes" else str(constant)}.get(wrong, wrong)
        rewrite_header(trained, lambda h: h[section].update({key: value}))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(trained))}: {section}\\.{key} "
                                              f"must be {re.escape(repr(constant))}, got "):
            load_checkpoint(trained)

    @pytest.mark.parametrize("section, key", [("config", "seed"), ("optimizer", "learning_rate")])
    def test_integer_past_float_range_is_schema_error(self, trained, section, key):
        # JSON integers have no size limit, and one past float range overflows where it is used
        rewrite_header(trained, lambda h: h[section].update({key: 10**400}))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(trained))}: {key} must be"):
            load_checkpoint(trained)

    @pytest.mark.parametrize("damage", sorted(REFUSED_ARRAY_VALUES))
    def test_array_value_outside_its_domain_is_domain_error(self, trained, damage):
        name, value = REFUSED_ARRAY_VALUES[damage]
        set_array_value(trained, name, value)
        with pytest.raises(DomainError, match=f"^{re.escape(str(trained))}: array {name} holds a "
                                              f"{'non-finite' if np.isnan(value) else 'negative'}"):
            load_checkpoint(trained)

    @pytest.mark.parametrize("buffer", ["running_mean", "running_var"])
    def test_missing_batchnorm_buffer_is_schema_error(self, ckpt, buffer):
        name = f"audio.bn1.{buffer}"
        rewrite_header(ckpt, lambda h: h.update(arrays=[e for e in h["arrays"] if e["name"] != name]))
        with pytest.raises(SchemaError, match=name):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("key", ["blob_sha256", "config", "arrays"])
    def test_missing_header_key_is_schema_error(self, ckpt, key):
        rewrite_header(ckpt, lambda h: h.pop(key))
        with pytest.raises(SchemaError, match=key):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_format_version_is_schema_error(self, ckpt, version):
        rewrite_header(ckpt, lambda h: h.update(format_version=version))
        with pytest.raises(SchemaError, match="format_version"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("key, value", [
        ("offset", -36), ("offset", -1), ("offset", 1.5), ("offset", "0"), ("offset", None),
        ("nbytes", -32), ("nbytes", True), ("nbytes", 36), ("nbytes", 28), ("nbytes", 0),
    ])
    def test_array_entry_out_of_bounds_is_schema_error(self, ckpt, key, value):
        # head.dense2.b holds 8 float32s: nbytes must be 32, offset an integer >= 0
        def edit(header):
            (entry,) = [e for e in header["arrays"] if e["name"] == "head.dense2.b"]
            entry[key] = value

        rewrite_header(ckpt, edit)
        with pytest.raises(SchemaError, match=r"array head\.dense2\.b "):
            load_checkpoint(ckpt)

    def test_undecodable_header_is_corruption(self, ckpt):
        data = bytearray(ckpt.read_bytes())
        data[16] = 0xFF  # first header byte: no longer UTF-8, let alone JSON
        ckpt.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="header"):
            load_checkpoint(ckpt)
