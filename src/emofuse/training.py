"""Epoch loop: seeded shuffling, batching, validation tracking, early stop.

Every source of randomness is derived from (seed, epoch, step), so a run is
reproducible from its config and a checkpoint resume continues the exact
uninterrupted trajectory.
"""

from __future__ import annotations

import logging
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataset import WindowDataset, window_rows
from .errors import DivergenceError, DomainError, SchemaError, ShapeError, require_number, schema_fields
from .evaluation import DEFAULT_W_ACC, DEFAULT_W_F1, evaluate
from .model import (
    STD_FLOOR,
    FeatureStats,
    FusionModel,
    ModelConfig,
    RmsProp,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)
from .sequencing import UNANNOTATED_CLASS

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    learning_rate: float = 1e-4
    mode: str = "fused"
    recurrent: str = "gru"
    include_class7: bool = True
    standardize_features: bool = False
    early_stop_patience: int = 5

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("early_stop_patience", 0)):
            require_number(name, getattr(self, name), lambda v: v >= minimum, f"an integer >= {minimum}",
                           numbers.Integral)
        RmsProp(self.learning_rate)  # the types that own these rules, which a checkpoint meets too
        ModelConfig(mode=self.mode, recurrent=self.recurrent, seed=self.seed)


_RESUME_MAY_CHANGE = ("epochs", "early_stop_patience")  # the rest must match the saved run


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_combined: float
    val_accuracy: float
    val_macro_f1: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    stopped_early: bool = False
    diverged: bool = False
    earlier: list[EpochRecord] = field(default_factory=list)  # run before a resume; in summary()

    @property
    def best(self) -> EpochRecord | None:
        """The first epoch with the highest validation score, resumed epochs included."""
        return max(self.earlier + self.records, key=lambda r: r.val_combined, default=None)

    def history(self) -> list[dict]:
        return [asdict(r) for r in self.earlier + self.records]

    def summary(self) -> dict:
        best = self.best
        return {
            "epochs_run": len(self.earlier) + len(self.records),
            "best_epoch": best.epoch if best else -1,
            "best_metric": best.val_combined if best else None,
            "stopped_early": self.stopped_early,
            "diverged": self.diverged,
            "history": self.history(),
        }


# --------------------------------------------------------------------------
# Feature standardization
# --------------------------------------------------------------------------


def fit_stats(train_set: WindowDataset) -> FeatureStats:
    """Per-dimension mean/std over all training window rows."""
    audio = train_set.audio.reshape(-1, train_set.audio_dim).astype(np.float64)
    video = train_set.video.reshape(-1, train_set.video_dim).astype(np.float64)
    return FeatureStats(
        audio_mean=audio.mean(axis=0).astype(np.float32),
        audio_std=np.maximum(audio.std(axis=0), STD_FLOOR).astype(np.float32),
        video_mean=video.mean(axis=0).astype(np.float32),
        video_std=np.maximum(video.std(axis=0), STD_FLOOR).astype(np.float32),
    )


# --------------------------------------------------------------------------
# Validation and the epoch loop
# --------------------------------------------------------------------------


def _loss_mask(dataset: WindowDataset, include_class7: bool) -> np.ndarray:
    # padded tail rows never contribute to the loss
    _, real = window_rows(dataset.start_frames, dataset.pad_counts, dataset.window_len)
    mask = real.astype(np.float32)
    if not include_class7:
        mask *= (dataset.labels != UNANNOTATED_CLASS).astype(np.float32)
    return mask


def dataset_metrics(model: FusionModel, dataset: WindowDataset, w_f1: float, w_acc: float):
    """Frame-level evaluation over every video in the container, videos in container order."""
    _, preds, _, truths = zip(*predict_dataset(model, dataset))
    return evaluate(np.concatenate(preds), np.concatenate(truths), w_f1=w_f1, w_acc=w_acc)


def _saved_history(path, meta) -> list[EpochRecord]:
    """A state checkpoint's ``meta.progress.history``: entry k is epoch k + 1, with a finite
    train_loss >= 0 and scores in [0, 1] (the default weights keep the combined score there).
    Other progress keys, which older checkpoints carry, are ignored."""
    progress = meta.get("progress", {}) if isinstance(meta, dict) else None
    if not isinstance(progress, dict):
        raise SchemaError(f"{path}: checkpoint meta.progress is not a JSON object")
    names = [f.name for f in fields(EpochRecord)]
    with schema_fields(path):
        rows = [[r[name] for name in names] for r in progress.get("history", [])]
    for k, (epoch, loss, *scores) in enumerate(rows):
        at = f"{path}: meta.progress.history[{k}]"
        require_number(f"{at}: epoch", epoch, lambda e: e == k + 1, f"{k + 1}", numbers.Integral)
        require_number(f"{at}: train_loss", loss, lambda v: v >= 0, "a finite number >= 0")
        for name, score in zip(names[2:], scores):
            require_number(f"{at}: {name}", score, lambda v: 0 <= v <= 1, "a number in [0, 1]")
    return [EpochRecord(epoch, *map(float, rest)) for epoch, *rest in rows]


def _epoch_seed(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch])


def _step_seed(seed: int, epoch: int, step: int) -> int:
    # stable scalar for the per-layer dropout streams
    return int(np.random.default_rng([seed, epoch, step]).integers(0, 2**31 - 1))


def run_training(
    train_set: WindowDataset,
    val_set: WindowDataset,
    config: TrainConfig,
    state_path=None,
    best_path=None,
    resume_from=None,
) -> tuple[FusionModel, TrainReport]:
    """Train a model on the container, validating each epoch.

    ``state_path`` receives the full resumable state (model + optimizer +
    epoch history) after every epoch; ``best_path`` the best-validation-metric
    model so far. ``resume_from`` continues a run saved via ``state_path``;
    ``config`` may differ from that run's only in ``epochs`` and
    ``early_stop_patience``.
    The two paths' directories are made only once every input check passed,
    so a refused run leaves no directory behind.
    """
    if train_set.audio_dim != val_set.audio_dim or train_set.video_dim != val_set.video_dim:
        raise SchemaError("train/val feature dims differ")
    mask_all = _loss_mask(train_set, config.include_class7)
    if not mask_all.any():
        raise DomainError("no training row counts toward the loss: every real row is class 7")
    n = train_set.n_windows

    report = TrainReport()
    if resume_from is not None:
        model, optimizer, meta = load_checkpoint(resume_from)
        if optimizer is None:
            raise SchemaError(f"{resume_from}: checkpoint has no optimizer state, cannot resume")
        report.earlier = _saved_history(resume_from, meta)
        dims = (model.config.audio_dim, model.config.video_dim)
        if dims != (train_set.audio_dim, train_set.video_dim):
            raise ShapeError(f"{resume_from}: checkpoint feature dims {dims} differ from the "
                             f"training set's {(train_set.audio_dim, train_set.video_dim)}")
        with schema_fields(resume_from):  # the settings the checkpoint trains with, not its record
            saved = {**meta["train_config"], "mode": model.config.mode,
                     "recurrent": model.config.recurrent, "learning_rate": optimizer.learning_rate,
                     "standardize_features": model.feature_stats is not None}
            differ = [f"{f.name} {saved[f.name]!r} saved, {getattr(config, f.name)!r} given"
                      for f in fields(TrainConfig) if f.name not in _RESUME_MAY_CHANGE
                      and saved[f.name] != getattr(config, f.name)]
        if differ:
            raise SchemaError(f"{resume_from}: --resume continues the saved run, whose config "
                              f"differs: {'; '.join(differ)}")
        if config.epochs <= len(report.earlier):
            raise DomainError(f"{resume_from}: --epochs must exceed the {len(report.earlier)} epochs "
                              f"of the checkpoint's history, got {config.epochs}")
    else:
        model_cfg = ModelConfig(
            mode=config.mode,
            recurrent=config.recurrent,
            audio_dim=train_set.audio_dim,
            video_dim=train_set.video_dim,
            window_len=train_set.window_len,
            seed=config.seed,
        )
        model = FusionModel(model_cfg)
        if config.standardize_features:
            model.feature_stats = fit_stats(train_set)
        optimizer = RmsProp(config.learning_rate)
    for path in (state_path, best_path):
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    for epoch in range(len(report.earlier), config.epochs):
        perm = _epoch_seed(config.seed, epoch).permutation(n)
        losses = []
        try:
            for step, lo in enumerate(range(0, n, config.batch_size)):
                idx = perm[lo : lo + config.batch_size]
                if not mask_all[idx].any():
                    continue  # every row padded or class 7: no loss, no update
                loss = model.train_step(
                    train_set.audio[idx],
                    train_set.video[idx],
                    train_set.labels[idx],
                    mask_all[idx],
                    optimizer,
                    seed=_step_seed(config.seed, epoch, step),
                )
                losses.append(loss)
        except DivergenceError:
            logger.info("epoch %d: training diverged, keeping last good state", epoch + 1)
            report.diverged = True
            break

        val = dataset_metrics(model, val_set, DEFAULT_W_F1, DEFAULT_W_ACC)
        scores = (val.combined, val.accuracy, val.macro_f1) if val.n_evaluated else (0.0,) * 3
        record = EpochRecord(epoch + 1, float(np.mean(losses)), *scores)
        report.records.append(record)
        logger.info(
            "epoch %d: train_loss=%.4f val_combined=%.4f",
            record.epoch, record.train_loss, record.val_combined,
        )

        best = report.best  # a later epoch that only ties the best does not replace it
        if best is record and best_path is not None:
            save_checkpoint(best_path, model, meta={"train_config": asdict(config)})
        if state_path is not None:  # the history is the run's only progress record
            save_checkpoint(state_path, model, optimizer=optimizer, meta={
                "train_config": asdict(config), "progress": {"history": report.history()}})

        if config.early_stop_patience > 0 and epoch + 1 - best.epoch >= config.early_stop_patience:
            report.stopped_early = True
            break

    return model, report
