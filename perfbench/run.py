"""Benchmark runner: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload general-decide --seed 0 --seconds 30 --trace 0

Run from a source checkout; ``vtsearch`` is imported from its ``src/``.
The untraced run (``--trace 0``) reports ``wall_s`` (median wall time of
the workload's fixed batch after an untimed warm-up), ``setup_s`` (median
time of ``import vtsearch`` in fresh interpreters) and ``peak_rss_mb``
(peak resident memory through the warm-up and the first batch).
The traced run (``--trace 1``) alternates untraced and traced batches and
reports per-layer self time, call counts, work counts and the tracing
overhead.  Every emitted record is checked, and must be byte-identical
across the batches of one run.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("general-decide", "simple-sweep", "closed-form-scale")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_IMPORTS = 5
MIN_REPS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_seconds() -> float:
    """Time of ``import vtsearch`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import vtsearch; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except FileNotFoundError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def timed_reps(seconds: float, min_reps: int, rep) -> None:
    """Call ``rep(i)`` at least min_reps times, then while another fits."""
    start = time.perf_counter()
    durations: list[float] = []
    while (len(durations) < min_reps
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        t = time.perf_counter()
        rep(len(durations))
        durations.append(time.perf_counter() - t)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def rounded(values: list[float]) -> list[float]:
    return [round(v, 3) for v in values]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "vtsearch" / "__init__.py").is_file():
        print(f"no vtsearch sources under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    setup = ([] if args.trace else
             [import_seconds() for _ in range(SETUP_IMPORTS)])
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    print("env " + json.dumps(environment(), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    tracer = Tracer(workloads.trace_targets())
    walls = {False: [], True: []}
    reference: list[str] | None = None
    attempted = failed = 0
    peak_rss_mb = 0.0

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workloads.run_configs([workloads.WARMUP], scratch / "warmup")

        def rep(i: int) -> None:
            nonlocal reference, attempted, failed, peak_rss_mb
            traced = bool(args.trace) and i % 2 == 1
            outdir = scratch / f"rep{i}"
            tracer.run_id = i
            t = time.perf_counter()
            if traced:
                with tracer.installed():
                    paths = workload.batch(inputs, outdir)
            else:
                paths = workload.batch(inputs, outdir)
            walls[traced].append(time.perf_counter() - t)
            if i == 0:
                # later batches only add allocator fragmentation, which
                # varies from run to run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            lines = [line for p in paths for line in p.read_text().splitlines()]
            n, bad = workloads.evaluate(lines, reference)
            attempted += n
            failed += bad
            if reference is None:
                reference = lines
            shutil.rmtree(outdir)

        timed_reps(args.seconds, MIN_REPS + args.trace, rep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer, workloads.COUNTERS)
        metrics["tracing.overhead_s"] = metric(
            statistics.median(walls[True]) - statistics.median(walls[False]), "s")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans_path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")
        detail = f"traced_batches_s={rounded(walls[True])}"
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls[False]), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        detail = " ".join([f"{k}={m['value']:.6g} {m['unit']}"
                           for k, m in metrics.items()]
                          + [f"imports_s={rounded(setup)}"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"failed_share={failed / attempted:.4f} ({failed}/{attempted} records) "
          f"batches_s={rounded(walls[False])} {detail}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


def layer_metrics(tracer, counters) -> dict:
    """Per-layer self time (median over traced batches), calls and counts."""
    traced = sorted({s.run_id for s in tracer.spans})
    per_batch = [tracer.self_time_by_name(r) for r in traced]
    last = traced[-1]
    calls = tracer.calls_by_name(last)
    counts = tracer.counts.get(last, {})
    metrics = {}
    for name in dict.fromkeys(t.span for t in tracer.targets):
        metrics[f"{name}.self_s"] = metric(
            statistics.median(b.get(name, 0.0) for b in per_batch), "s")
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in counters:
        metrics[name] = metric(counts.get(name, 0), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
