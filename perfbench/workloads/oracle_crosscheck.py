"""oracle-crosscheck: exact membership against the integrability oracle.

One job takes one fresh seeded arrangement (x, y and two lines x + q*y, the
real and imaginary parts of q nonzero with denominators 7, 11 or 13;
weights k/4; total mass in [3/2, 5/2]), so the oracle's mesh is built
inside the job as users pay for it, and decides every monomial of degree
<= 3 at every c in C_GRID both ways: ``contains(ideal_of(arr, c), f)`` and
``integrability_estimate``.

Inputs stay off the oracle's blind spots, each of which is a FOUND entry
in CHANGES.md: every exponent lies at least 1/4 from an integrability
threshold or exactly on one (the tail-ratio test cannot see closer cases),
and line coefficients are not simple (mesh points fall exactly on lines
such as x - 3y or x - 3iy, as in the fixed case below).

Each job also runs the fixed arrangement x, x+y, 2x+y with weights 1/2 at
f = 1, c = 3/2: two mesh points lie exactly on x+y, log 0 turns the
partial sums into +inf and the oracle says integrable although c * total =
9/4 >= 2.  It is counted as a failed operation, not as a wrong output.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pshlab
from pshlab import BivariatePolynomial, GaussianRational

from workloads import Base, Tally

C_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
          Fraction(5, 2))
MONOMIALS = tuple((u, d - u) for d in range(4) for u in range(d, -1, -1))
TOTAL_BAND = (Fraction(3, 2), Fraction(5, 2))
MIN_MARGIN = Fraction(1, 4)
DENOMINATORS = (7, 11, 13)
# Fresh meshes built in set-up: the oracle caches 8 (integrability._mesh_for)
# and the heap settles only after the cache has turned over once.
WARM_MESHES = 14


def _clear_of_thresholds(value: Fraction) -> bool:
    """Integrability thresholds sit at integers of c*a_i and c*total."""
    frac = value - (value.numerator // value.denominator)
    return frac == 0 or frac <= 1 - MIN_MARGIN


def arrangement(rng: random.Random):
    while True:
        lines = [(1, 0), (0, 1)]
        while len(lines) < 4:
            re, im = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                               rng.choice(DENOMINATORS)) for _ in range(2))
            lines.append((1, GaussianRational(re, im)))
        weights = [Fraction(rng.randint(1, 4), 4) for _ in range(4)]
        total = sum(weights)
        if not TOTAL_BAND[0] <= total <= TOTAL_BAND[1]:
            continue
        if not all(_clear_of_thresholds(c * a)
                   for c in C_GRID for a in weights + [total]):
            continue
        try:
            return pshlab.new_arrangement(lines, weights)
        except pshlab.ArrangementError:  # two equal lines drawn
            continue


class Workload(Base):
    def setup(self) -> None:
        warnings.simplefilter("ignore", RuntimeWarning)
        self.rng = random.Random(f"oracle-crosscheck:{self.seed}")
        self.monomials = [BivariatePolynomial.monomial(u, v)
                          for u, v in MONOMIALS]
        self.fault_arr = pshlab.new_arrangement(
            [(1, 0), (1, 1), (2, 1)], [Fraction(1, 2)] * 3)
        self.fault_case = (BivariatePolynomial.one(), Fraction(3, 2))
        # warm-up: WARM_MESHES fresh meshes, without which each job
        # page-faults its temporary arrays afresh and runs about 1.6 times
        # as long as in a long session; then the fixed case, whose mesh
        # stays cached, as for users who repeat an arrangement.
        warm_rng = random.Random("oracle-crosscheck:warm-up")
        for _ in range(WARM_MESHES):
            self._decide(arrangement(warm_rng), self.monomials[0], C_GRID[0])
        self._decide(self.fault_arr, *self.fault_case)

    @staticmethod
    def _decide(arr, f, c) -> tuple[bool, bool]:
        member = pshlab.contains(arr, pshlab.ideal_of(arr, c), f)
        return member, pshlab.integrability_estimate(arr, f, c).integrable

    def prepare(self, index: int):
        return arrangement(self.rng)

    def run(self, arr, tracer) -> dict:
        grid = [((u, v), c, self._decide(arr, f, c))
                for (u, v), f in zip(MONOMIALS, self.monomials)
                for c in C_GRID]
        return {"grid": grid,
                "fault": self._decide(self.fault_arr, *self.fault_case)}

    def check(self, arr, out: dict) -> Tally:
        tally = Tally()
        for mono, c, (member, integrable) in out["grid"]:
            tally.expect(member == integrable,
                         f"{arr.describe()}: x^{mono[0]} y^{mono[1]} at c={c}:"
                         f" contains={member}, oracle={integrable}")
        member, integrable = out["fault"]
        tally.expect(member == integrable, "fixed case", known_fault=True)
        return tally
