"""Command line entry point: one executable, one subcommand per pipeline stage.

Subcommands succeed with exit code 0 and never mutate their inputs; on
failure they print a single ``error: <category>: <message>`` line to stderr
and exit 1 (2 for bad usage). Set EMOFUSE_LOG=debug|info|warning to change
log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from . import audio as audio_mod
from . import video as video_mod
from .dataset import (
    WindowDataset,
    read_dataset,
    read_frame_features,
    write_dataset,
    write_frame_features,
)
from .errors import EmofuseError, ParseError, SchemaError, schema_fields
from .evaluation import DEFAULT_W_ACC, DEFAULT_W_F1, evaluate
from .model import RECURRENT_KINDS, load_checkpoint, predict_dataset
from .sequencing import WINDOW_LEN, WINDOW_STRIDE, parse_annotations
from .store import json_object, write_atomic, write_json
from .training import TrainConfig, run_training

logger = logging.getLogger(__name__)

_MODE_FLAG = {"audio": "audio_only", "video": "video_only", "fused": "fused"}


def _setup_logging():
    level = os.environ.get("EMOFUSE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _require_file(path, what):
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


# --------------------------------------------------------------------------
# extract-audio
# --------------------------------------------------------------------------


def cmd_extract_audio(args) -> int:
    _require_file(args.wav, "wav file")
    _require_file(args.annotations, "annotation file")
    cfg = audio_mod.DspConfig(
        n_fft=args.n_fft,
        hop_length=args.hop,
        log_floor=args.floor,
        n_mels=args.n_mels,
        n_mfcc=args.n_mfcc,
    )
    track = parse_annotations(args.annotations)
    n_chunks = len(track.labels)
    signal = audio_mod.load_wav(args.wav)
    bounds = audio_mod.chunk_boundaries(signal.duration_s, n_chunks)
    matrix = audio_mod.extract_chunk_features(signal, bounds, cfg).astype(np.float32)
    write_frame_features(
        args.out,
        matrix,
        modality="audio",
        meta={
            "video_id": track.video_id,
            "source_wav": os.path.basename(args.wav),
            "sample_rate": signal.sample_rate,
            "n_chunks": n_chunks,
            "dsp": asdict(cfg),
        },
    )
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} audio features to {args.out}")
    return 0


# --------------------------------------------------------------------------
# ingest-video
# --------------------------------------------------------------------------


def cmd_ingest_video(args) -> int:
    _require_file(args.csv, "csv file")
    if args.columns:
        selection = video_mod.load_column_manifest(args.columns)
    else:
        selection = video_mod.default_selection()
    records = video_mod.parse_openface_csv(args.csv, selection)
    matrix = np.stack([r.features for r in records])  # float32 rows
    n_invalid = sum(1 for r in records if not r.valid)
    write_frame_features(
        args.out,
        matrix,
        modality="video",
        meta={
            "video_id": os.path.splitext(os.path.basename(args.csv))[0],
            "source_csv": os.path.basename(args.csv),
            "columns": list(selection.include_columns),
            "n_invalid_frames": n_invalid,
        },
    )
    print(
        f"parsed {len(records)} rows ({n_invalid} invalid) into "
        f"{matrix.shape[1]}-dim features at {args.out}"
    )
    return 0


# --------------------------------------------------------------------------
# build-dataset
# --------------------------------------------------------------------------


def _collect_videos(args) -> list[tuple[str, str, str]]:
    """(annotation_path, audio_container, video_container) triples, in annotation file name order."""
    if os.path.isfile(args.annotations):
        return [(args.annotations, args.audio, args.video)]
    triples = []
    for name in sorted(os.listdir(args.annotations)):
        if not name.endswith(".txt"):
            continue
        vid = os.path.splitext(name)[0]
        triples.append((os.path.join(args.annotations, name), os.path.join(args.audio, vid),
                        os.path.join(args.video, vid)))
    if not triples:
        raise FileNotFoundError(f"no .txt annotation files under {args.annotations}")
    return triples


def cmd_build_dataset(args) -> int:
    triples = _collect_videos(args)

    def assemble(triple):
        ann_path, audio_dir, video_dir = triple
        track = parse_annotations(ann_path)
        audio_feats, audio_header = read_frame_features(audio_dir, modality="audio")
        video_feats, video_header = read_frame_features(video_dir, modality="video")
        return (track, audio_feats, video_feats,
                (audio_dir, audio_header, "dsp", {}), (video_dir, video_header, "columns", []))

    if args.jobs > 1 and len(triples) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(assemble, triples))
    else:
        results = [assemble(t) for t in triples]

    meta = {}  # every video's audio dsp and video columns must be the first video's
    for path, header, key, default in (m for r in results for m in r[3:]):
        value = header.get("meta", {})
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: meta is not a JSON object")
        value = value.get(key, default)
        if meta.setdefault(key, value) != value:
            raise SchemaError(f"{path}: meta.{key} differs from the first video's")
    dataset = WindowDataset.from_videos(
        [r[:3] for r in results], window_len=args.window, stride=args.stride, meta=meta
    )
    write_dataset(dataset, args.out)
    print(
        f"wrote {dataset.n_windows} windows from {len(results)} video(s) to {args.out}"
    )
    return 0


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


def cmd_train(args) -> int:
    train_set = read_dataset(args.train)
    val_set = read_dataset(args.val)
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
        learning_rate=args.lr,
        mode=_MODE_FLAG[args.mode],
        recurrent=args.recurrent,
        include_class7=not args.exclude_class7,
        standardize_features=args.standardize,
        early_stop_patience=args.patience,
    )
    state_path = os.path.join(args.out, "checkpoint.ckpt")
    best_path = os.path.join(args.out, "best.ckpt")
    with np.errstate(all="ignore"):  # a loss that overflows to NaN ends in one error line
        model, report = run_training(train_set, val_set, config, state_path=state_path,
                                     best_path=best_path, resume_from=args.resume)

    log = "".join(
        f"epoch {r['epoch']} train_loss {r['train_loss']:.6f} "
        f"val_combined {r['val_combined']:.6f} val_accuracy {r['val_accuracy']:.6f} "
        f"val_macro_f1 {r['val_macro_f1']:.6f}\n"
        for r in report.history()
    )
    summary = {"config": asdict(config), **report.summary()}
    write_atomic(os.path.join(args.out, "train_log.txt"), [log.encode()])
    write_json(os.path.join(args.out, "summary.json"), summary)

    if report.diverged:
        print("error: divergence: training loss became non-finite", file=sys.stderr)
        return 1
    print(
        f"trained {config.mode} ({config.recurrent}) for {len(report.records)} epochs; "
        f"best val combined {report.best.val_combined:.4f} at epoch {report.best.epoch}"
    )
    return 0


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------


def _parse_weights(text: str) -> tuple[float, float]:
    try:
        if "_" in text or not text.isascii():  # float() takes "0_5" and non-ASCII digits
            raise ValueError
        w_f1, w_acc = (float(p) for p in text.split(","))
    except ValueError:
        raise ParseError(f"weights must be 'w_f1,w_acc', got {text!r}") from None
    if not (math.isfinite(w_f1) and math.isfinite(w_acc)):
        raise ParseError(f"weights must be finite, got {text!r}")
    return w_f1, w_acc


def cmd_evaluate(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    model, _, meta = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.dataset)
    w_f1, w_acc = _parse_weights(args.weights)

    # --out is made once a video is predicted: a model that rejects the windows leaves nothing
    pred_dir = os.path.join(args.out, "predictions")
    all_preds, all_truth = [], []
    for video_id, labels, probs, truth in predict_dataset(model, dataset):
        if not all_preds:
            os.makedirs(pred_dir, exist_ok=True)
        all_preds.append(labels)
        all_truth.append(truth)
        with open(os.path.join(pred_dir, f"{video_id}.txt"), "w") as fh:
            fh.write(_prediction_lines(labels, probs))

    report = evaluate(
        np.concatenate(all_preds), np.concatenate(all_truth), w_f1=w_f1, w_acc=w_acc
    )
    summary = {
        "mode": model.config.mode,
        "recurrent": model.config.recurrent,
        **report.summary(),
    }
    write_json(os.path.join(args.out, "eval_summary.json"), summary)
    np.savetxt(
        os.path.join(args.out, "confusion.csv"),
        report.confusion,
        fmt="%d",
        delimiter=",",
    )
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(_format_report(summary))
    print(_format_report(summary), end="")
    return 0


def _prediction_lines(labels: np.ndarray, probs: np.ndarray) -> str:
    """One ``frame,label,p_0,...,p_{C-1}`` line per frame, probabilities to 6 decimals."""
    line = "{},{}," + ",".join(["{:.6f}"] * probs.shape[1]) + "\n"
    return "".join(
        line.format(i, label, *row) for i, (label, row) in enumerate(zip(labels.tolist(), probs.tolist()))
    )


def _format_report(summary: dict) -> str:
    lines = [
        f"mode: {summary['mode']} ({summary['recurrent']})",
        f"frames evaluated: {summary['n_evaluated']} of {summary['n_frames']}",
    ]
    if summary["combined"] is None:
        lines.append("no evaluable frames")
    else:
        lines += [
            f"accuracy:  {summary['accuracy']:.4f}",
            f"macro F1:  {summary['macro_f1']:.4f}",
            f"combined:  {summary['combined']:.4f} "
            f"(w_f1={summary['weights']['f1']}, w_acc={summary['weights']['accuracy']})",
        ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------


_FEATURES = {"audio_only": "Audio only", "video_only": "Video only", "fused": "Audio+Video"}
_MODELS = {"gru": "GRU layers", "lstm": "LSTM layers"}


def cmd_report(args) -> int:
    rows = []
    for path in args.summary:
        _require_file(path, "summary file")
        with open(path, "rb") as fh:
            s = json_object(path, fh.read(), "summary")
        with schema_fields(path):
            perf = "n/a" if s["combined"] is None else f"{100.0 * s['combined']:.1f}%"
            rows.append((_FEATURES[s["mode"]], _MODELS[s["recurrent"]], perf))

    headers = ("Features", "Model", "Performance")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(3)
    ]
    out = [" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    out.append("-+-".join("-" * w for w in widths))
    for r in rows:
        out.append(" | ".join(r[i].ljust(widths[i]) for i in range(3)))
    print("\n".join(out))
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emofuse",
        description="Bimodal (audio + facial features) frame-level expression recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dsp, train = audio_mod.DspConfig(), TrainConfig()  # the defaults the flags show

    p = sub.add_parser("extract-audio", help="WAV + annotations -> per-frame 168-dim audio features")
    p.add_argument("--wav", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-fft", type=int, default=dsp.n_fft)
    p.add_argument("--hop", type=int, default=dsp.hop_length)
    p.add_argument("--floor", type=float, default=dsp.log_floor)
    p.add_argument("--n-mels", type=int, default=dsp.n_mels)
    p.add_argument("--n-mfcc", type=int, default=dsp.n_mfcc)
    p.set_defaults(func=cmd_extract_audio)

    p = sub.add_parser("ingest-video", help="OpenFace CSV -> per-frame video features")
    p.add_argument("--csv", required=True)
    p.add_argument("--columns", default=None, help="column manifest (default: shipped OpenFace 2.x list)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest_video)

    p = sub.add_parser("build-dataset", help="aligned features + annotations -> window dataset")
    p.add_argument("--audio", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=WINDOW_LEN)
    p.add_argument("--stride", type=int, default=WINDOW_STRIDE)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a model on window datasets")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=_MODE_FLAG, default="fused")
    p.add_argument("--recurrent", choices=RECURRENT_KINDS, default=train.recurrent)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--batch", type=int, default=train.batch_size)
    p.add_argument("--lr", type=float, default=train.learning_rate)
    p.add_argument("--seed", type=int, default=train.seed)
    p.add_argument("--patience", type=int, default=train.early_stop_patience)
    p.add_argument("--exclude-class7", action="store_true",
                   help="drop unannotated (class 7) timesteps from the loss")
    p.add_argument("--standardize", action="store_true",
                   help="standardize features with training-split statistics")
    p.add_argument("--resume", default=None, help="resume from a state checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a window dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", default=f"{DEFAULT_W_F1},{DEFAULT_W_ACC}",
                   help="combined-metric weights as 'w_f1,w_acc'")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="tabulate one or more evaluation summaries")
    p.add_argument("--summary", nargs="+", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmofuseError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing input or an unusable --out
        print(f"error: file: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
