"""Frame-level scoring: accuracy, per-class F1, macro F1, weighted combined.

The combined score is w_f1 * macro_f1 + w_acc * accuracy. Macro F1 averages
over the seven expression classes {0..6}; frames whose truth is class 7
(unannotated) are excluded from scoring, and classes absent from
both truth and predictions are left out of the macro average so short clips
are not deflated by classes they never contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError
from .sequencing import N_CLASSES, UNANNOTATED_CLASS

DEFAULT_W_F1 = 0.67
DEFAULT_W_ACC = 0.33
EXPRESSION_CLASSES = tuple(range(7))


@dataclass
class EvalReport:
    accuracy: float | None
    per_class_f1: dict[int, float]
    macro_f1: float | None
    combined: float | None
    confusion: np.ndarray  # [8, 8] counts, truth rows x prediction columns
    n_evaluated: int
    n_frames: int
    w_f1: float
    w_acc: float

    @property
    def no_evaluable_frames(self) -> bool:
        return self.n_evaluated == 0

    def summary(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "combined": self.combined,
            "per_class_f1": {str(k): v for k, v in self.per_class_f1.items()},
            "n_evaluated": self.n_evaluated,
            "n_frames": self.n_frames,
            "weights": {"f1": self.w_f1, "accuracy": self.w_acc},
            "confusion": self.confusion.tolist(),
        }


def evaluate(
    predictions,
    truth,
    w_f1: float = DEFAULT_W_F1,
    w_acc: float = DEFAULT_W_ACC,
) -> EvalReport:
    """Score per-frame predictions against per-frame truth labels."""
    predictions = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise AlignmentError(
            f"predictions ({predictions.shape}) and truth ({truth.shape}) must be "
            "1-D and equally long"
        )
    if predictions.size and (
        predictions.min() < 0
        or predictions.max() >= N_CLASSES
        or truth.min() < 0
        or truth.max() >= N_CLASSES
    ):
        raise AlignmentError("labels must lie in {0..7}")

    n_frames = truth.size
    keep = truth != UNANNOTATED_CLASS
    p, t = predictions[keep], truth[keep]
    n_eval = int(keep.sum())

    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (t, p), 1)

    accuracy = macro_f1 = combined = None
    per_class_f1 = {}
    if n_eval:
        accuracy = float(np.trace(confusion)) / n_eval
        for c in EXPRESSION_CLASSES:
            tp = confusion[c, c]
            fn = confusion[c].sum() - tp
            fp = confusion[:, c].sum() - tp
            if tp + fn + fp == 0:
                continue  # absent from truth and predictions alike
            per_class_f1[c] = 0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)
        macro_f1 = float(np.mean(list(per_class_f1.values()))) if per_class_f1 else 0.0
        combined = w_f1 * macro_f1 + w_acc * accuracy
    return EvalReport(
        accuracy=accuracy,
        per_class_f1=per_class_f1,
        macro_f1=macro_f1,
        combined=combined,
        confusion=confusion,
        n_evaluated=n_eval,
        n_frames=n_frames,
        w_f1=w_f1,
        w_acc=w_acc,
    )
