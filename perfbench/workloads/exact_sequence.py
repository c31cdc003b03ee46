"""exact-sequence: the exact and polynomial layers, in process, no numpy.

One job takes one seeded arrangement (four lines x, y and two random
Gaussian-rational lines, weights k/q with q <= 6, total mass in [2, 3]) and
runs the monotonicity report up to M_MAX, subsequence checks on
divisibility chains, generators and membership for m = 1..M_GENERATORS
(the work of ``pshlab analyze``) and the paper's claim registry.  The
theorem1 report to M_MAX is part of every job as well.

This module imports only the standard library and pshlab, never numpy
directly, so that a lazier ``import pshlab`` shows in set-up time and RSS.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

import pshlab
from pshlab import BivariatePolynomial, GaussianRational

from workloads import Base, Tally

M_MAX = 2000
M_GENERATORS = 10
CHAINS = 4
CHAIN_FACTORS = (2, 3, 5)
LINES = 4
AXES = ((GaussianRational(1), GaussianRational(0)),
        (GaussianRational(0), GaussianRational(1)))
TOTAL_BAND = (Fraction(2), Fraction(3))
EVAL_POINTS = 2


def random_line(rng: random.Random) -> tuple:
    """x + q*y with q a nonzero Gaussian rational of small height."""
    while True:
        q = GaussianRational(Fraction(rng.randint(-7, 7), rng.randint(1, 5)),
                             Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        if not q.is_zero:
            return (1, q)


def arrangement(rng: random.Random):
    while True:
        lines = [(1, 0), (0, 1)]
        lines += [random_line(rng) for _ in range(LINES - 2)]
        weights = [Fraction(rng.randint(1, q), q)
                   for q in (rng.randint(2, 6) for _ in range(LINES))]
        if not TOTAL_BAND[0] <= sum(weights) <= TOTAL_BAND[1]:
            continue
        try:
            return pshlab.new_arrangement(lines, weights)
        except pshlab.ArrangementError:  # two equal lines drawn
            continue


def divisibility_chain(rng: random.Random, m_max: int) -> list[int]:
    chain = [rng.randint(1, 9)]
    while chain[-1] * max(CHAIN_FACTORS) <= m_max:
        chain.append(chain[-1] * rng.choice(CHAIN_FACTORS))
    return chain


@dataclass
class Inputs:
    arr: object
    chains: list[list[int]]
    points: list[tuple[complex, complex]]


def _float_value(poly, x: complex, y: complex) -> tuple[complex, float]:
    """Value of an expanded polynomial and the sum of its term magnitudes."""
    value, scale = 0j, 0.0
    for (a, b), coeff in poly.terms():
        term = complex(coeff) * x ** a * y ** b
        value += term
        scale += abs(term)
    return value, scale


def _lelong(cls) -> Fraction:
    return sum(cls.gamma, Fraction(0)) + cls.delta


class Workload(Base):
    def setup(self) -> None:
        self.rng = random.Random(f"exact-sequence:{self.seed}")
        self.theorem1 = pshlab.preset("theorem1")
        self.theorem1_violations = [(3 * k, 3 * k + 1)
                                    for k in range(1, (M_MAX - 1) // 3 + 1)]
        # warm-up: one small pass over every operation of a job
        warm = self.prepare(-1)
        warm.chains = [[1, 2]]
        self._run(warm, m_max=8, m_generators=2, verify=False)

    def prepare(self, index: int) -> Inputs:
        rng = self.rng
        arr = arrangement(rng)
        chains = [divisibility_chain(rng, M_MAX) for _ in range(CHAINS)]
        points = [(cmath.rect(rng.uniform(0.5, 1.0), rng.uniform(0, 6.28)),
                   cmath.rect(rng.uniform(0.5, 1.0), rng.uniform(0, 6.28)))
                  for _ in range(EVAL_POINTS)]
        return Inputs(arr, chains, points)

    def run(self, inputs: Inputs, tracer) -> dict:
        return self._run(inputs, M_MAX, M_GENERATORS, verify=True)

    def _run(self, inputs: Inputs, m_max: int, m_generators: int,
             verify: bool) -> dict:
        arr = inputs.arr
        out = {
            "report": pshlab.monotonicity_report(arr, m_max),
            "theorem1": pshlab.monotonicity_report(self.theorem1, m_max),
            "chains": [pshlab.check_subsequence(arr, c) for c in inputs.chains],
            "analyze": [],
            "verify": pshlab.verify_paper() if verify else None,
        }
        for m in range(1, m_generators + 1):
            ideal = pshlab.ideal_of(arr, m)
            gens = pshlab.generators(arr, ideal)
            members = [pshlab.contains(arr, ideal, g) for g in gens]
            monomials = {
                (u, d - u): pshlab.contains(
                    arr, ideal, BivariatePolynomial.monomial(u, d - u))
                for d in (ideal.e - 1, ideal.e) if d >= 0
                for u in range(d + 1)}
            out["analyze"].append((m, ideal, gens, members, monomials))
        return out

    def check(self, inputs: Inputs, out: dict) -> Tally:
        arr = inputs.arr
        tally = Tally()
        report = out["report"]
        nu = arr.total_mass
        bounds_ok = len(report.entries) == M_MAX and all(
            nu - Fraction(2, e.m) <= _lelong(e.cls) <= nu
            for e in report.entries)
        tally.expect(bounds_ok, "nu(phi) - 2/m <= nu(phi_m) <= nu(phi) fails")
        tally.expect(out["theorem1"].violations == self.theorem1_violations,
                     "theorem1 adjacent violations are not {(3k, 3k+1)}")
        for chain, verdict in zip(inputs.chains, out["chains"]):
            tally.expect(verdict.decreasing,
                         f"divisibility chain {chain} not decreasing")
        for m, ideal, gens, members, monomials in out["analyze"]:
            tally.expect(
                _generators_ok(arr, m, ideal, gens, inputs.points)
                and all(members)
                and all(member == _monomial_member(arr, ideal, u, v)
                        for (u, v), member in monomials.items()),
                f"generators or membership wrong at m={m}")
        tally.expect(out["verify"].all_passed, "verify_paper failed")
        return tally


def _monomial_member(arr, ideal, u: int, v: int) -> bool:
    """x^u y^v lies in prod l_i^b_i * m^p iff it vanishes to order b_i along
    each line (only the axes divide a monomial) and to order e at 0."""
    orders = [u if (line.cx, line.cy) == AXES[0] else
              v if (line.cx, line.cy) == AXES[1] else 0
              for line in arr.lines]
    return all(o >= b for o, b in zip(orders, ideal.b)) and u + v >= ideal.e


def _generators_ok(arr, m, ideal, gens, points) -> bool:
    """J(m phi) has b_i = floor(m a_i), e = floor(m total) - 1, and its
    generators equal prod l_i^b_i * x^j y^(p-j), checked in floating point."""
    b = tuple(m * a // 1 for a in arr.coeffs)
    e = m * arr.total_mass // 1 - 1
    p = max(0, e - sum(b))
    if (ideal.b, ideal.e, ideal.p) != (b, e, p) or len(gens) != p + 1:
        return False
    for x, y in points:
        common = 1 + 0j
        for line, power in zip(arr.lines, b):
            common *= (complex(line.cx) * x + complex(line.cy) * y) ** power
        for j, g in enumerate(gens):
            want = common * x ** (p - j) * y ** j
            got, scale = _float_value(g, x, y)
            if abs(got - want) > 1e-9 * max(scale, abs(want)):
                return False
    return True
