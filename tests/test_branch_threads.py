"""A fused model runs its audio branch on a worker thread and its video branch
on the caller's. These tests pin that this changes no output byte, that the
worker runs under the caller's numpy error state, and that a failing branch
returns only once both have finished, with the audio branch's error first;
and that a process forked after a fused forward gets a worker of its own."""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from emofuse import model
from emofuse.cli import main
from emofuse.model import FusionModel, ModelConfig

from test_cli import pipeline  # noqa: F401  (fixture)
from test_model import TINY, random_batch

# float32 at the paper's audio width: windows of 3e38 overflow a branch's first projection
F32 = ModelConfig(**{**TINY.__dict__, "dtype": "float32", "audio_dim": 168, "video_dim": 168})


def run_every_command(pipeline, out):  # noqa: F811
    """Train GRU and LSTM (standardized; 3 windows in batches of 2, the last
    partial), resume a cut run, train each single-branch mode and evaluate;
    return every output file's bytes."""
    ds = str(pipeline["dataset"])

    def train(name, epochs, *extra):
        assert main(["train", "--train", ds, "--val", ds, "--epochs", str(epochs), "--batch", "2",
                     "--seed", "3", "--patience", "0", "--out", str(out / name), *extra]) == 0

    train("gru", 2, "--standardize")
    train("lstm", 2, "--standardize", "--recurrent", "lstm")
    train("resumed", 1, "--standardize")
    train("resumed", 2, "--standardize", "--resume", str(out / "resumed" / "checkpoint.ckpt"))
    train("audio", 1, "--mode", "audio")
    train("video", 1, "--mode", "video")
    assert main(["evaluate", "--checkpoint", str(out / "gru" / "best.ckpt"), "--dataset", ds,
                 "--out", str(out / "eval")]) == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_every_output_byte_is_the_serial_runs(pipeline, tmp_path, monkeypatch):  # noqa: F811
    submitted, submit = [], model._WORKER.submit
    monkeypatch.setattr(model._WORKER, "submit", lambda *a: submitted.append(a) or submit(*a))
    out = tmp_path / "run"
    threaded = run_every_command(pipeline, out)
    assert submitted
    out.rename(tmp_path / "threaded")
    monkeypatch.setattr(model, "_concurrently", lambda calls: [call() for call in calls])
    submitted.clear()
    serial = run_every_command(pipeline, out)
    assert submitted == []
    assert len(threaded) == 24 and threaded.keys() == serial.keys()
    assert [name for name, data in threaded.items() if data != serial[name]] == []


def delayed(monkeypatch, layer, delay=0.0, error=None):
    """Make ``layer.forward`` wait ``delay`` seconds, note its thread, then
    raise ``error`` or run; return the list of noted threads."""
    threads, forward = [], layer.forward

    def slow(*args, **kwargs):
        time.sleep(delay)
        threads.append(threading.current_thread())
        if error is not None:
            raise error
        return forward(*args, **kwargs)

    monkeypatch.setattr(layer, "forward", slow)
    return threads


def test_the_worker_thread_runs_the_audio_branch(monkeypatch, rng):
    net = FusionModel(TINY)
    threads = {name: delayed(monkeypatch, stack[0]) for name, stack in net.branches.items()}
    net.forward(*random_batch(rng, TINY)[:2])
    assert threads["video"] == [threading.current_thread()]
    assert len(threads["audio"]) == 1 and threads["audio"][0] is not threading.current_thread()


def test_the_callers_errstate_raises_in_the_worker(rng):
    audio, video = random_batch(rng, F32)[:2]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        FusionModel(F32).forward(np.full_like(audio, 3e38), video)


def test_the_callers_errstate_silences_the_worker(rng):
    audio, video = random_batch(rng, F32)[:2]
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        FusionModel(F32).forward(np.full_like(audio, 3e38), video)
    assert [str(w.message) for w in caught] == []


def test_a_failing_call_returns_after_the_worker_finishes(monkeypatch, rng):
    net = FusionModel(F32)
    audio, video = random_batch(rng, F32)[:2]
    with monkeypatch.context() as patch:
        threads = delayed(patch, net.branches["audio"][0], delay=0.2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            net.forward(audio, np.full_like(video, 3e38))  # the video branch fails at once
        assert len(threads) == 1 and threads[0] is not threading.current_thread()
    for training in (False, True):
        np.testing.assert_array_equal(net.forward(audio, video, training, seed=2),
                                      FusionModel(F32).forward(audio, video, training, seed=2))


@pytest.mark.parametrize("slow", ["audio", "video"])
def test_when_both_branches_fail_the_audio_error_is_raised(monkeypatch, rng, slow):
    net = FusionModel(TINY)
    for name, stack in net.branches.items():
        delayed(monkeypatch, stack[0], 0.2 if name == slow else 0.0, LookupError(name))
    with pytest.raises(LookupError, match="^audio$"):
        net.forward(*random_batch(rng, TINY)[:2])


def test_a_child_forked_after_a_fused_forward_runs_one(rng):
    """The child inherits the executor but not its thread; without a new
    executor its first fused forward would wait for the missing thread forever."""
    net = FusionModel(TINY)
    audio, video = random_batch(rng, TINY)[:2]
    expected = net.forward(audio, video)  # starts the worker thread
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a threaded process
        pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if np.array_equal(net.forward(audio, video), expected) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
