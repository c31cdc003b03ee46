#!/usr/bin/env python3
"""Benchmark harness for pshlab: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload as a closed loop (one job at a time) for S seconds
against the checkout's own ``src/`` (nothing is installed), checks every
output outside the timed region, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured on jobs that alternate between traced and untraced so that the
tracing overhead is reported beside them.  See ``perfbench/README.md``.

Only the standard library is imported here: the exact-sequence workload
must not pull in numpy by itself.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP before anything can load numpy; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_workload  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The checkout cannot be benchmarked (exit code 2, no result)."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _check_checkout() -> None:
    """Fail unless pshlab imports from this checkout's src/, and point every
    child process there too."""
    if not (SRC / "pshlab" / "__init__.py").is_file():
        raise BenchError(f"no pshlab sources under {SRC}")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("pshlab")
    if spec is None or spec.origin is None or \
            Path(spec.origin).resolve().parent != (SRC / "pshlab").resolve():
        raise BenchError("pshlab does not resolve to the checkout's src/")


def _warm_bytecode() -> None:
    """Compile src/ and the benchmark once, so no timed or set-up process
    pays for bytecode compilation."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError("byte-compiling the sources failed")


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of the time from process spawn to the
    end of the workload's set-up (imports, fixed inputs, warm-up)."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("set-up probe failed:\n"
                             + done.stderr.decode(errors="replace"))
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def _probe(args) -> int:
    """Child side of `_setup_seconds`: set up, then print the clock."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        load_workload(args.workload)(args.seed, workdir).setup()
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _loop(workload, seconds: float, tracer: Tracer | None):
    """Closed loop: prepare, time, check, one job at a time.

    With a tracer, odd jobs run traced and even jobs untraced; only the
    untraced durations are returned as `plain`.
    """
    plain, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    min_jobs = 1 if tracer is None else 2
    start = time.perf_counter()
    index = 0
    while index < min_jobs or time.perf_counter() - start < seconds:
        inputs = workload.prepare(index)
        active = tracer if tracer is not None and index % 2 == 1 else None
        gc.collect()
        if active is not None:
            active.begin_job()
        t0 = time.perf_counter()
        outputs = workload.run(inputs, active)
        elapsed = time.perf_counter() - t0
        if active is not None:
            active.end_job()
            workload.trace_extras(inputs, active)
            traced.append(elapsed)
        else:
            plain.append(elapsed)
        tally = workload.check(inputs, outputs)
        attempted += tally.attempted
        failed += tally.failed
        problems.extend(f"job {index}: {p}" for p in tally.problems)
        index += 1
    return plain, traced, attempted, failed, problems


def _declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _emit(correct: bool, attempted: int, failed: int,
          values: dict[str, tuple[float, str]], key: str) -> None:
    declared = _declared_metrics(key)
    produced = {name: unit for name, (_, unit) in values.items()}
    if produced != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json {key}: "
                         f"{sorted(set(produced) ^ set(declared))}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in values.items()},
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _check_checkout()
        if args.setup_probe:
            return _probe(args)
        _warm_bytecode()
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            return _measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _measure(args, workdir: Path) -> int:
    setup_s = None if args.trace else _setup_seconds(args)
    workload = load_workload(args.workload)(args.seed, workdir)
    workload.setup()
    tracer = Tracer() if args.trace else None
    plain, traced, attempted, failed, problems = _loop(
        workload, args.seconds, tracer)
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    correct = not problems

    if args.trace:
        values = layer_metrics(tracer, workload, plain, traced)
        _emit(correct, attempted, failed, values, "per_layer")
    else:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb = workload.peak_rss_kb() or self_kb
        values = {
            "jobs_per_s": (len(plain) / sum(plain), "1/s"),
            "job_ms.p50": (1e3 * statistics.median(plain), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        _emit(correct, attempted, failed, values, "end_to_end")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
