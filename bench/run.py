"""Offline benchmark of the emofuse pipeline at the paper's shapes.

    python3 bench/run.py --workload train-gru --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one process each

Run from anywhere; inputs are generated under ``.bench-out/`` at the
repository root and removed at exit. One run of a workload:

1. sets up its seeded inputs at least ``SETUP_MIN_REPEATS`` times and for
   at least ``SETUP_MIN_SECONDS`` (``setup_s`` is the median), keeping the
   last set;
2. runs closed-loop passes of the workload until ``--seconds`` have passed:
   each CLI command starts when the previous one and its output check have
   returned;
3. prints one line per metric with its unit and meaning, then, as the last
   line, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics derived from the
traced passes' spans, the tracing overhead against the untraced passes, and
writes the spans to ``.bench-out/trace-<workload>-seed<seed>.jsonl``.

BLAS and OpenMP pools are pinned to one thread for this process (and the
per-workload processes it starts), before numpy loads; the machine's own
settings are not touched.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench-out")

WORKLOAD_NAMES = ("ingest", "train-gru", "train-lstm", "evaluate-short")
DEFAULT_SECONDS = 20
# set up at least this many times and for at least this long; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment() -> dict:
    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    passes = []  # (traced, PassResult)
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            root = workloads.fresh(os.path.join(work, "inputs"))
            os.makedirs(root)
            t0 = time.perf_counter()
            workload.setup(root, args.seed)
            setup_times.append(time.perf_counter() - t0)

        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                passes.append((traced, workload.run_pass(tracer if traced else None)))
            finally:
                if traced:
                    tracer.uninstall()
            if time.perf_counter() >= deadline and len(passes) >= 1 + args.trace:
                break
        checks = workload.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    ops = [op for _, r in passes for op in r.ops] + checks.ops
    failed = [op for op in ops if op.error is not None]
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(passes)}")
    for op in failed:
        print(f"failed op {op.name}: {op.error}")
    print(f"ops_failed_share   {len(failed) / len(ops):.4f}  "
          f"({len(failed)} failed of {len(ops)} operations)")
    if workload.final_losses:
        print("final train losses " + " ".join(f"{x:.6f}" for x in workload.final_losses))

    if args.trace:
        def median_wall(kind):
            return statistics.median(r.wall_s for t, r in passes if t == kind)

        overhead = median_wall(True) / median_wall(False) - 1.0
        metrics = tracing.per_layer_metrics(tracer.spans, overhead)
        units = tracing.PER_LAYER_METRICS
        os.makedirs(OUT_DIR, exist_ok=True)
        dump = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(dump)
        for name, value in metrics.items():
            print(f"{name:34s} {value:.6g} {units[name]}")
        for target in sorted(set(tracer.missing)):
            print(f"not traced (absent from the program): {target}")
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(dump, ROOT)}")
    else:
        results = [r for _, r in passes]
        units_s = [u for r in results for u in r.units]
        rates = [x for r in results for x in r.rates]
        steps = [s for r in results for s in r.steps_ms]
        if not units_s or not rates:
            print("error: no pass completed; metrics cannot be computed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": statistics.median(rates),
            "pass_s": statistics.median(units_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        alias, meaning = workload.frames_metric
        print(f"setup_s            {metrics['setup_s']:.4f} s  "
              f"(median of {len(setup_times)} set-ups of the workload's inputs)")
        print(f"frames_per_s       {metrics['frames_per_s']:.2f} frames/s  "
              f"(median of {len(rates)}; {alias}: {meaning})")
        print(f"pass_s             {metrics['pass_s']:.4f} s  "
              f"(median of {len(units_s)}: {workload.pass_metric})")
        print(f"peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB  (peak resident memory)")
        if steps:
            p50, p90 = np.percentile(steps, [50, 90])
            beyond = sum(s > p90 for s in steps)
            print(f"train_step_ms.p50  {p50:.2f} ms  (n={len(steps)} steps of B=64)")
            print(f"train_step_ms.p90  {p90:.2f} ms  ({beyond} steps beyond)")
        units = END_TO_END

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined, status = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "emofuse", "cli.py")):
        print(f"error: emofuse sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
