import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_evaluate_short_traced_smoke_run():
    # one short traced run of the benchmark: every evaluate command and its
    # output check must pass against the current sources
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "evaluate-short",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    for name in ("nn.recurrent.Gru.calls", "model.load_checkpoint.s", "model.forward.ms",
                 "model.forward.calls"):
        assert metrics[name]["value"] > 0, name


def test_train_gru_traced_smoke_run():
    # one short traced training run; its fixed-input loss probe fails on a
    # broken gradient, and the traced layers must include the post-recurrent
    # block and the optimizer
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "train-gru",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    for name in ("nn.layers.PReLU.forward.ms", "nn.layers.BatchNorm.backward.ms",
                 "nn.optim.RmsProp.step.ms", "training.validation.s", "model.save_checkpoint.s"):
        assert metrics[name]["value"] > 0, name


def test_ingest_traced_smoke_run():
    # one short traced ingest run: its per-call hooks read what the ingest
    # functions return (the chunk count, the CSV rows and their validity), and
    # the traced build-dataset passes --jobs 1
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "ingest",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    for name in ("video.rows", "video.invalid_rows", "audio.chunks", "cli.build_dataset.jobs1.s"):
        assert metrics[name]["value"] > 0, name
