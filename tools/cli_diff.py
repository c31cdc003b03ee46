#!/usr/bin/env python3
"""Check that the pshlab CLI prints the same bytes as another checkout.

    python3 tools/cli_diff.py PARENT_SRC

PARENT_SRC is the ``src`` directory of the checkout to compare against
(for example an exported parent commit).  Every command below runs once
with ``PYTHONPATH=PARENT_SRC`` and once with this checkout's ``src``, each
in a fresh interpreter, report commands with ``--no-timestamp``, and their
standard output, standard error and exit codes are compared byte for byte:

- 34 commands in each of the formats json, csv and md (102 pairs): ``lct``,
  ``compare``, ``sequence`` (plain, ``--indices pow2``, ``3k+2`` and a
  list), ``verify-paper`` (all claims and ``--claims``), ``analyze``
  (``--m-max`` and ``--m``) and ``bergman`` (scans along x=y, a ray and
  a ray inside the line y = 0, whose non-finite report exits 2, ray
  slopes with ``--audit-gram`` and over 64 rays, and ray slopes at m = 8
  and the scan (4, 8), where the default cutoff 12 admits nothing at
  m = 8 and is raised to 19), on presets, on a three-line file
  arrangement with a Gaussian-rational line (also ray slopes and a scan of
  2,000 points at cutoff 47, the top cofactor degree the Hopf rule takes)
  and on three files with huge
  coefficients: the lines x and x + 10^300 y (weights 3/4,
  then 99/100 on the second line) and the lines x and x + 2^1998 y; and
  ``--audit-gram`` at m = 1 on x, x + 2^1998 y with weight 99/100, whose
  Gram scale leaves the float range; ``sequence`` (``--m-max 200`` and
  ``--indices pow2``), ``compare`` and ``analyze --m 1 3`` on lines x, y
  and x + y whose weights and point mass have denominators of about 1000
  bits, the file limit; ``compare`` and ``analyze`` at an index of 4,201
  digits on lines x, y with weights 2^999/3 and 1/2, refused since single
  indices are capped at 1,000 bits (exit 2; a checkout without the cap
  exits 1 with a traceback, so these cases differ from one).  A format a
  command does not have must fail the same way on both sides;
- ``sequence --preset theorem1 --m-max 3000`` in the three formats;
- the parser's own output: ``--help``, ``--version``, ``sequence --help``,
  ``bergman --help`` and an unknown subcommand (exit 2, usage on standard
  error);
- the three demos: ``demos/01`` and ``demos/02`` print generators,
  memberships, oracle margins and the monotonicity tables through the
  polynomial layer, ``demos/03`` the kernel cross-check (113 cases in all).

Prints one line per case.  For each difference it also prints how many of
the numbers in the two outputs differ, paired in order of appearance, with
the largest absolute and relative difference between paired numbers, the
largest absolute difference divided by the largest finite magnitude among
the case's paired float literals (or numbers, without floats), and a diff
excerpt.  Exits 1 if any case differs, 0 otherwise.  Takes a minute or
two: the ``bergman`` cases load numpy.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("json", "csv", "md")
DEMOS = ("01_arrangements_and_ideals.py", "02_sequence_monotonicity.py",
         "03_kernel_crosscheck.py")

FILE_ARRANGEMENT = {
    "lines": [[["1", "0"], ["0", "0"]],
              [["0", "0"], ["1", "0"]],
              [["1", "0"], ["1/2", "1/2"]]],
    "coeffs": ["1/2", "2/3", "5/6"],
    "point_mass": "1/4",
}

HUGE_ARRANGEMENT = {
    "lines": [[["1", "0"], ["0", "0"]],
              [["1", "0"], [str(10 ** 300), "0"]]],
    "coeffs": ["1/2", "3/4"],
}

# huge coefficients in the weight and in the norm: Gram exponent -0.99 on
# x + 10^300 y; and x + 2^1998 y, whose normalized form overflows a float
HUGE_FILES = {
    "HUGE": HUGE_ARRANGEMENT,
    "TINY_EXPONENT": {**HUGE_ARRANGEMENT, "coeffs": ["1/2", "99/100"]},
    "HUGE_NORM": {"lines": [["1", "0"], ["1/" + str(2 ** 999), str(2 ** 999)]],
                  "coeffs": ["1/2", "3/4"]},
}
# weights and point mass over denominators 5^430 and 7^355 - 2 (998 and 997
# bits): the sequence kernel's integers, not the Bergman layer's floats
BIG_WEIGHTS = {
    "lines": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]],
              [["1", "0"], ["1", "0"]]],
    "coeffs": [f"{k * 5 ** 429 + r}/{5 ** 430}"
               for k, r in ((3, 1), (2, -1), (4, -1))],
    "point_mass": f"{7 ** 354}/{7 ** 355 - 2}",
}

# x + 2^1998 y with weight 99/100: log_scale -2742 at m = 1, beyond the
# float range of the dense Gram views (audited only, at m = 1)
EXTREME_SCALE = {**HUGE_FILES["HUGE_NORM"], "coeffs": ["1/2", "99/100"]}
# weight 2^999/3 on x: times an index of 4,201 digits, a class exponent
# prints beyond Python's int-to-str digit limit unless the index is refused
HUGE_INDEX_WEIGHTS = {"lines": [[["1", "0"], ["0", "0"]],
                                [["0", "0"], ["1", "0"]]],
                      "coeffs": [f"{2 ** 999}/3", "1/2"]}
HUGE_INDEX = str(10 ** 4200)


# a decimal or float literal, or a non-finite float as json or Python
# prints it
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|-?\b(?:Infinity|inf)\b|\b(?:NaN|nan)\b")


def _gap(a: str, b: str) -> tuple[float, float]:
    """Absolute and relative difference of two printed numbers, infinite
    when either is no finite float (NaN, inf or an integer beyond 10^308)."""
    x, y = float(a), float(b)
    if not math.isfinite(x - y):
        return math.inf, math.inf
    return abs(x - y), abs(x - y) / max(abs(x), abs(y), sys.float_info.min)


def numeric_report(before: bytes, after: bytes) -> str:
    """How many numbers are printed differently in two outputs, their
    largest absolute and relative difference, and the largest absolute
    difference over the case's scale, pairing the numbers in order;
    outputs whose text around the numbers differs do not pair."""
    texts = [out.decode(errors="replace") for out in (before, after)]
    old, new = (NUMBER.findall(text) for text in texts)
    if NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
        return f"numbers: {len(old)} -> {len(new)}, text differs, not paired"
    gaps = [_gap(a, b) for a, b in zip(old, new) if a != b]
    top = max((g[0] for g in gaps), default=0.0)
    # the scale of the case: a difference next to entries that are zero up
    # to rounding reads near 1 relative to them, but not against this.
    # Integers (counts, seeds, exact coefficients such as 10^300) never
    # move by rounding, so float literals set the scale when there are any.
    finite = [(a, abs(v)) for a in old + new if math.isfinite(v := float(a))]
    floats = [v for a, v in finite if any(c in a for c in ".eE")]
    scale = max(floats or [v for _, v in finite], default=0.0)
    return (f"numbers: {len(gaps)} of {len(new)} differ, max abs "
            f"{top:.2g}, max rel "
            f"{max((g[1] for g in gaps), default=0.0):.2g}, max abs / "
            f"largest |number| {top / max(scale, sys.float_info.min):.2g}")


def cases(arrangement_file: str, huge_files: list[str],
          extreme_file: str, big_weights_file: str,
          huge_index_file: str) -> list[list[str]]:
    f = ["--file", arrangement_file]
    big = ["--file", big_weights_file]
    index = ["--file", huge_index_file]
    t = ["--preset", "theorem1"]
    fast = ["--samples", "10000", "--points", "9"]
    commands = [
        ["lct", *t],
        ["lct", "--preset", "point"],
        ["lct", *f],
        ["compare", *t, "--m1", "4", "--m2", "3"],
        ["compare", *f, "--m1", "5", "--m2", "7"],
        ["sequence", *t, "--m-max", "40"],
        ["sequence", *t, "--indices", "pow2", "--k-max", "10"],
        ["sequence", *t, "--indices", "3k+2", "--k-max", "12"],
        ["sequence", *f, "--m-max", "30", "--indices", "2,4,8,16"],
        ["verify-paper"],
        ["verify-paper", "--claims", "prop2", "thm1"],
        ["analyze", *t, "--m-max", "12"],
        ["analyze", *f, "--m", "1", "3", "7"],
        ["sequence", *big, "--m-max", "200"],
        ["sequence", *big, "--indices", "pow2"],
        ["compare", *big, "--m1", "4", "--m2", "3"],
        ["analyze", *big, "--m", "1", "3"],
        ["compare", *index, "--m1", HUGE_INDEX, "--m2", "3"],
        ["analyze", *index, "--m", HUGE_INDEX],
        ["bergman", *t, "--m1", "3", "--m2", "4", "--curve", "x=y", *fast],
        ["bergman", *t, "--m1", "3", "--m2", "5", "--curve",
         "dir:0.6,0.1,0.3,-0.7", *fast],
        ["bergman", *t, "--m1", "3", "--m2", "4", "--curve", "dir:1,0,0,0"],
        ["bergman", *t, "--m", "4", "--rays", "4", "--samples", "10000",
         "--audit-gram"],
        ["bergman", *f, "--m", "2", "--rays", "3", "--samples", "10000"],
        ["bergman", *t, "--m", "1", "--rays", "64"],
        ["bergman", *f, "--m", "2", "--rays", "64"],
        ["bergman", *f, "--m", "1", "--max-degree", "47", "--rays", "4"],
        ["bergman", *f, "--m1", "1", "--m2", "2", "--max-degree", "47",
         "--points", "2000"],
        ["bergman", *t, "--m", "8", "--rays", "3"],
        ["bergman", *t, "--m1", "4", "--m2", "8", "--points", "9"],
    ] + [["bergman", "--file", huge, "--m", "2", "--rays", "3",
          "--samples", "10000"] for huge in huge_files] + [
        ["bergman", "--file", extreme_file, "--m", "1", "--rays", "3",
         "--samples", "10000", "--audit-gram"]]
    out = [[*cmd, "--format", fmt] for cmd in commands for fmt in FORMATS]
    out += [["sequence", *t, "--m-max", "3000", "--format", fmt]
            for fmt in FORMATS]
    parser = [["--help"], ["--version"], ["sequence", "--help"],
              ["bergman", "--help"], ["frobnicate"]]
    return [["-m", "pshlab", *cmd, "--no-timestamp"] for cmd in out] + [
        ["-m", "pshlab", *cmd] for cmd in parser] + [
        [str(ROOT / "demos" / demo)] for demo in DEMOS]


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "pshlab").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("error: give the src directory of the other checkout",
              file=sys.stderr)
        return 2
    parent_src = Path(argv[0]).resolve()
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arrangement.json"
        path.write_text(json.dumps(FILE_ARRANGEMENT), encoding="utf-8")
        huge = {}
        for name, data in {**HUGE_FILES, "EXTREME_SCALE": EXTREME_SCALE,
                           "BIG_WEIGHTS": BIG_WEIGHTS,
                           "HUGE_INDEX_WEIGHTS": HUGE_INDEX_WEIGHTS}.items():
            huge[name] = Path(tmp) / f"{name.lower()}.json"
            huge[name].write_text(json.dumps(data), encoding="utf-8")
        all_cases = cases(str(path), [str(huge[name]) for name in HUGE_FILES],
                          str(huge["EXTREME_SCALE"]), str(huge["BIG_WEIGHTS"]),
                          str(huge["HUGE_INDEX_WEIGHTS"]))
        for argv_ in all_cases:
            label = " ".join(argv_[2:] if argv_[0] == "-m" else argv_)
            label = label.replace(str(path), "FILE").replace(str(ROOT), ".")
            label = label.replace(HUGE_INDEX, "10^4200")
            for name, file in huge.items():
                label = label.replace(str(file), name)
            before, after = run(parent_src, argv_), run(ROOT / "src", argv_)
            if before == after:
                print(f"same  exit {after[0]}  {len(after[1]):>8} B  {label}")
                continue
            differences += 1
            print(f"DIFF  exit {before[0]} -> {after[0]}  {label}")
            print(f"      {numeric_report(before[1], after[1])}")
            for stream in (1, 2):
                diff = difflib.unified_diff(
                    before[stream].decode(errors="replace").splitlines(),
                    after[stream].decode(errors="replace").splitlines(),
                    "parent", "this checkout", lineterm="", n=1)
                for line in list(diff)[:20]:
                    print(f"      {line}")
    print(f"{differences} of {len(all_cases)} cases differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
