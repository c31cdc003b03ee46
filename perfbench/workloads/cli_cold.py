"""cli-cold: sessions of fresh ``python -m pshlab`` processes, one at a time.

One job is one session of the six commands in `session_commands`, each a
new interpreter, so interpreter start, ``import pshlab`` and report
rendering all count.  The only seeded inputs are the arrangement file given
to ``lct`` and the quadrature seed of the ``bergman`` scan; every other
command is fixed, so sessions are of equal size for every seed.

Peak RSS is that of the largest child, read per child with ``os.wait4``.
In traced jobs the children run ``perfbench/tracer.py`` in place of
``-m pshlab`` and hand their per-layer totals back through a file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import Base, Tally

SEQUENCE_M_MAX = 3000
ANALYZE_M_MAX = 12
TRACER = Path(__file__).resolve().parents[1] / "tracer.py"
NAMES = ("lct", "compare", "sequence", "verify_paper", "analyze", "bergman")


def random_arrangement(rng: random.Random) -> dict:
    """A file-format arrangement of 2-5 lines x + q*y with weights k/q."""
    slopes = rng.sample(range(-9, 10), rng.randint(2, 5))
    return {
        "lines": [[["1", "0"], [str(s), str(rng.randint(-3, 3))]]
                  for s in slopes],
        "coeffs": [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in slopes],
        "point_mass": f"{rng.randint(0, 3)}/{rng.randint(1, 4)}",
    }


def session_commands(arrangement_file: Path, bergman_seed: int) -> dict:
    common = ["--no-timestamp"]
    return {
        "lct": ["lct", "--file", str(arrangement_file)] + common,
        "compare": ["compare", "--preset", "theorem1", "--m1", "4",
                    "--m2", "3"] + common,
        "sequence": ["sequence", "--preset", "theorem1", "--m-max",
                     str(SEQUENCE_M_MAX), "--format", "csv"] + common,
        "verify_paper": ["verify-paper"] + common,
        "analyze": ["analyze", "--preset", "theorem1", "--m-max",
                    str(ANALYZE_M_MAX)] + common,
        "bergman": ["bergman", "--preset", "theorem1", "--m1", "3", "--m2",
                    "4", "--curve", "x=y", "--samples", "20000", "--seed",
                    str(bergman_seed), "--max-degree", "8"] + common,
    }


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, bytes, int]:
    """Run one process to its end: exit code, stdout, its own peak RSS (KB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # wait4 reaped the child; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def run_session(commands: dict, workdir: Path, tracer=None) -> dict:
    results = {}
    for name, args in commands.items():
        if tracer is None:
            argv = [sys.executable, "-m", "pshlab"] + args
        else:
            totals = workdir / f"{name}.trace.json"
            argv = [sys.executable, str(TRACER), str(totals)] + args
        t0 = time.perf_counter()
        code, out, rss_kb = run_child(argv, workdir / f"{name}.err")
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.merge(json.loads(totals.read_text(encoding="utf-8")))
            totals.unlink()
        results[name] = {"code": code, "stdout": out, "ms": 1e3 * elapsed,
                         "rss_kb": rss_kb}
    return results


def _inputs(workdir: Path, seed: int) -> tuple[dict, dict]:
    rng = random.Random(f"cli-cold:{seed}")
    arrangement = random_arrangement(rng)
    path = workdir / "arrangement.json"
    path.write_text(json.dumps(arrangement), encoding="utf-8")
    return arrangement, session_commands(path, rng.randint(0, 2 ** 31 - 1))


def measure_session(workdir: Path, seed: int) -> dict[str, float]:
    """cli.* metrics from one untraced session, for the other workloads."""
    _, commands = _inputs(workdir, seed)
    results = run_session(commands, workdir)
    return cli_metrics_of([results])


def cli_metrics_of(sessions: list[dict]) -> dict[str, float]:
    values = {f"cli.{name}_ms": statistics.median(s[name]["ms"]
                                                  for s in sessions)
              for name in NAMES}
    values["cli.stdout_bytes"] = sum(len(r["stdout"])
                                     for r in sessions[0].values())
    return values


def expected_lct(arrangement: dict) -> Fraction:
    """min(1/a_i over positive a_i, 2/total) from the file itself."""
    coeffs = [Fraction(a) for a in arrangement["coeffs"]]
    total = sum(coeffs) + Fraction(arrangement["point_mass"])
    return min([Fraction(2) / total] + [1 / a for a in coeffs if a > 0])


class Workload(Base):
    def setup(self) -> None:
        self.arrangement, self.commands = _inputs(self.workdir, self.seed)
        self.lct = expected_lct(self.arrangement)
        self.violations = {str(3 * k + 1)
                           for k in range(1, (SEQUENCE_M_MAX - 1) // 3 + 1)}
        self.reference: dict[str, bytes] = {}
        self.sessions: list[dict] = []
        self.peak_kb = 0
        # warm-up: one process through the whole import and the smallest
        # command
        code, _, _ = run_child(
            [sys.executable, "-m", "pshlab"] + self.commands["lct"],
            self.workdir / "warmup.err")
        if code != 0:
            raise RuntimeError("pshlab lct failed during warm-up")

    def prepare(self, index: int):
        return index

    def run(self, index: int, tracer) -> dict:
        return {"traced": tracer is not None,
                "results": run_session(self.commands, self.workdir, tracer)}

    def check(self, index: int, out: dict) -> Tally:
        tally = Tally()
        results = out["results"]
        for name, r in results.items():
            text = r["stdout"].decode()
            ok = r["code"] == 0 and self._content_ok(name, text)
            reference = self.reference.setdefault(name, r["stdout"])
            tally.expect(ok and r["stdout"] == reference,
                         f"{name}: exit {r['code']}, wrong or changed output")
        if not out["traced"]:
            self.sessions.append(results)
            self.peak_kb = max([self.peak_kb]
                               + [r["rss_kb"] for r in results.values()])
        return tally

    def _content_ok(self, name: str, text: str) -> bool:
        if name == "lct":
            return Fraction(json.loads(text)["lct"]) == self.lct
        if name == "compare":
            # phi_4 has gamma 1/2 < 2/3 and total 7/4 <= 2: phi_3 is more
            # singular, phi_4 is not
            return json.loads(text)["comparison"]["relation"] \
                == "second_more_singular"
        if name == "sequence":
            rows = list(csv.DictReader(io.StringIO(text)))
            flagged = {r["m"] for r in rows if r["vs_previous"]
                       in ("second_more_singular", "incomparable")}
            return len(rows) == SEQUENCE_M_MAX and flagged == self.violations
        if name == "verify_paper":
            return json.loads(text)["all_passed"] is True
        if name == "analyze":
            results = json.loads(text)["results"]
            return [r["m"] for r in results] == list(
                range(1, ANALYZE_M_MAX + 1)) and all(
                r["ideal"]["b"] == [2 * r["m"] // 3] * 3
                and len(r["generators"]) == r["ideal"]["p"] + 1
                for r in results)
        if name == "bergman":
            return json.loads(text)["verdict"] == "UNBOUNDED"
        raise KeyError(name)

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def cli_metrics(self) -> dict[str, float]:
        return cli_metrics_of(self.sessions)
