#!/usr/bin/env python3
"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py --seeds 201-210 [--workloads a,b]

Runs ``perfbench/run.py`` untraced once per workload and seed, one run at a
time, and prints one markdown row per workload and end-to-end metric: the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median beside the metric's bound, and the share of failed
operations.  Nonzero exit if a run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("201-210"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--json", default=None,
                        help="also write every run's result here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    print("| workload | metric | median | q1 | q3 | spread | bound | failed share |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            runs[workload].append({"seed": seed,
                                   **json.loads(done.stdout.splitlines()[-1])})
        if not runs[workload]:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs[workload]})
        ok = ok and all(r["correct"] for r in runs[workload])
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"| {workload} | {name} | {median:.4g} | {q1:.4g} "
                  f"| {q3:.4g} | {(q3 - q1) / median:.3f} | {bound} "
                  f"| {', '.join(f'{s:.4f}' for s in shares)} |")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
