#!/usr/bin/env python3
"""Random sweep of the integrability oracle against exact membership.

    PYTHONPATH=src python3 tools/oracle_sweep.py [--cases 2400] [--seed 0]

Each case draws an arrangement of 1-4 distinct lines with simple
coefficients (x, y, x + k y, x + k i y for small k, so x - 3y among them),
weights that are multiples of 1/4 or 1/3, an optional point mass, a
function f (a product of up to three lines of a fixed pool, plus an
optional monomial, so f may have several homogeneous components) and a
multiple c on a grid of quarters and thirds, so that many cases sit
exactly on a threshold.  It compares ``integrability_estimate(arr, f,
c).integrable`` with ``contains(arr, ideal_of(arr, c), f)``.

Prints the case count, the wrong and undecided verdicts, each wrong case,
and exits 1 if any verdict is wrong.  The sweep's wall time goes to
stderr, so stdout stays comparable between versions.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

from pshlab import (ArrangementError, GaussianRational, contains, ideal_of,
                    new_arrangement)
from pshlab import BivariatePolynomial as P
from pshlab.integrability import integrability_estimate

LINE_POOL = [(1, 0), (0, 1)] + [
    (1, coeff) for k in (1, 2, 3)
    for coeff in (k, -k, GaussianRational(0, k), GaussianRational(0, -k))]
WEIGHTS = sorted({Fraction(k, q) for q in (3, 4) for k in range(1, 2 * q + 1)})
C_GRID = sorted({Fraction(k, q) for q in (3, 4) for k in range(1, 4 * q + 1)})


def _line(cx, cy) -> P:
    return P({(1, 0): cx, (0, 1): cy})


def draw_case(rng: random.Random):
    """One (arrangement, f, c) triple."""
    while True:
        lines = rng.sample(LINE_POOL, rng.randint(1, 4))
        weights = [rng.choice(WEIGHTS) for _ in lines]
        mass = rng.choice((0, 0, Fraction(1, 2), Fraction(1)))
        try:
            arr = new_arrangement(lines, weights, mass)
            break
        except ArrangementError:  # equal lines drawn
            continue
    f = P.one()
    for _ in range(rng.randint(0, 3)):
        f = f * _line(*rng.choice(LINE_POOL))
    if rng.random() < 0.5:
        u, v = rng.randint(0, 3), rng.randint(0, 3)
        f = f + P.monomial(u, v, rng.choice((1, -2, GaussianRational(0, 1))))
    if f.is_zero:
        f = P.one()
    return arr, f, rng.choice(C_GRID)


def sweep(cases: int, seed: int) -> tuple[list[str], int]:
    """The wrong cases (described) and the undecided count."""
    rng = random.Random(f"oracle-sweep:{seed}")
    wrong, undecided = [], 0
    for _ in range(cases):
        arr, f, c = draw_case(rng)
        member = contains(arr, ideal_of(arr, c), f)
        verdict = integrability_estimate(arr, f, c)
        undecided += verdict.undecided
        if verdict.integrable != member:
            wrong.append(f"{arr.describe()} f={f} c={c}: contains={member}, "
                         f"oracle={verdict}")
    return wrong, undecided


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", type=int, default=2400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    wrong, undecided = sweep(args.cases, args.seed)
    print(f"wall {time.perf_counter() - start:.2f} s", file=sys.stderr)
    for line in wrong:
        print("WRONG", line)
    print(f"cases {args.cases}, wrong {len(wrong)}, undecided {undecided}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
