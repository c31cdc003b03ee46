"""Singularity classes of arrangement weights and their exact comparison.

Every weight this package produces is equivalent, near the origin, to

    psi = sum_i gamma_i log|ell_i| + delta log|z|

with rational exponents, and the class (gamma; delta) determines the
singularity up to bounded functions.  Pulling psi1 - psi2 back under the
blowup of the origin turns "locally bounded above" into a finite list of
rational inequalities: every line exponent must not decrease, and neither
may the total mass sum(gamma) + delta (the exceptional-divisor slope).
That criterion is what `more_singular_or_equal` decides, exactly.

`boundedness_probe` is the independent numerical cross-check: it samples
psi1 - psi2 along shrinking approaches to each line and along generic rays
and looks for growth.  Its sensitivity is finite (see the docstring).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arrangement import Line, WeightedArrangement
from .gaussian import to_fraction
from .multiplier_ideal import IdealDescriptor


class ArrangementMismatchError(ValueError):
    """Classes over different line lists cannot be compared."""


class Relation(Enum):
    EQUIVALENT = "equivalent"
    FIRST_MORE_SINGULAR = "first_more_singular"
    SECOND_MORE_SINGULAR = "second_more_singular"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Witness:
    """The inequality that defeats a directed comparison.

    `first` and `second` are the exponents of the compared classes in the
    order of the failed check: the check psi1 <= psi2 + O(1) fails because
    first < second at this coordinate.
    """

    kind: str  # "gamma" or "total"
    index: int | None
    first: Fraction
    second: Fraction

    def __str__(self) -> str:
        where = f"gamma[{self.index}]" if self.kind == "gamma" else "total"
        return f"{where}: {self.first} < {self.second}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "first": str(self.first),
            "second": str(self.second),
        }


@dataclass(frozen=True, init=False)
class SingularityClass:
    """Exponent data (gamma; delta) of a representative weight.

    Stored as integer numerators `num` (the gamma_i, then delta) over one
    positive denominator `den`, with gcd(num, den) = 1: that form is
    unique, so equality and hashing are those of the exponents.  `gamma`,
    `delta` and `total` are Fractions built on access.
    """

    key: tuple[Line, ...]
    num: tuple[int, ...]
    den: int

    def __init__(self, key: tuple[Line, ...], gamma, delta):
        exps = [to_fraction(q) for q in (*gamma, delta)]
        den = math.lcm(*(q.denominator for q in exps))  # already reduced
        self.__dict__.update(key=key, den=den, num=tuple(
            q.numerator * (den // q.denominator) for q in exps))

    @classmethod
    def scaled(cls, key: tuple[Line, ...], num: tuple[int, ...], den: int
               ) -> "SingularityClass":
        """The class with exponents num[i]/den (delta last), den > 0."""
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(n // g for n in num), den // g
        self = object.__new__(cls)
        self.__dict__.update(key=key, num=num, den=den)
        return self

    @property
    def gamma(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num[:-1])

    @property
    def delta(self) -> Fraction:
        return Fraction(self.num[-1], self.den)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.num), self.den)

    def to_dict(self) -> dict:
        return {"gamma": [str(g) for g in self.gamma], "delta": str(self.delta)}


@dataclass(frozen=True)
class ComparisonResult:
    relation: Relation
    witnesses: tuple[Witness, ...] = ()

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def class_of_weight(arr: WeightedArrangement) -> SingularityClass:
    """The class of the arrangement weight itself: gamma = a, delta = d0."""
    return SingularityClass(key=arr.key, gamma=arr.coeffs, delta=arr.point_mass)


def class_of_ideal(arr: WeightedArrangement, ideal: IdealDescriptor, m
                   ) -> SingularityClass:
    """Class of (1/2m) log sum |g_k|^2 over generators of the ideal.

    The common line factors contribute b_i/m per line; the residual power
    of the maximal ideal contributes a radial exponent p/m.
    """
    m = to_fraction(m)
    if m <= 0:
        raise ValueError("approximation index m must be positive")
    return SingularityClass.scaled(arr.key, tuple(
        [v * m.denominator for v in (*ideal.b, ideal.p)]), m.numerator)


def _require_same_key(s1: SingularityClass, s2: SingularityClass) -> None:
    if s1.key != s2.key:
        raise ArrangementMismatchError(
            "classes live over different line arrangements"
        )


def _violation(s1: SingularityClass, s2: SingularityClass,
               lhs: list[int], rhs: list[int]) -> Witness | None:
    """Why psi1 <= psi2 + O(1) fails, given the exponents of s1 and s2
    scaled to one common denominator (delta last)."""
    for i in range(len(lhs) - 1):
        if lhs[i] < rhs[i]:
            return Witness(kind="gamma", index=i,
                           first=Fraction(s1.num[i], s1.den),
                           second=Fraction(s2.num[i], s2.den))
    if sum(lhs) < sum(rhs):
        return Witness(kind="total", index=None, first=s1.total,
                       second=s2.total)
    return None


def _cross_scaled(s1: SingularityClass, s2: SingularityClass
                  ) -> tuple[list[int], list[int]]:
    """Both numerator vectors over the common denominator s1.den * s2.den."""
    _require_same_key(s1, s2)
    d1, d2 = s1.den, s2.den
    return [n * d2 for n in s1.num], [n * d1 for n in s2.num]


def directed_violation(s1: SingularityClass, s2: SingularityClass) -> Witness | None:
    """Why psi1 <= psi2 + O(1) fails, or None if it holds."""
    return _violation(s1, s2, *_cross_scaled(s1, s2))


def more_singular_or_equal(s1: SingularityClass, s2: SingularityClass) -> bool:
    """True iff psi1 <= psi2 + O(1) near the origin."""
    return directed_violation(s1, s2) is None


def compare(s1: SingularityClass, s2: SingularityClass) -> ComparisonResult:
    """Full comparison of s1 relative to s2, with witnesses on failure."""
    lhs, rhs = _cross_scaled(s1, s2)
    if lhs == rhs:  # otherwise some coordinate or the total differs
        return ComparisonResult(Relation.EQUIVALENT)
    forward = _violation(s1, s2, lhs, rhs)
    reverse = _violation(s2, s1, rhs, lhs)
    if forward is None:
        return ComparisonResult(Relation.FIRST_MORE_SINGULAR, (reverse,))
    if reverse is None:
        return ComparisonResult(Relation.SECOND_MORE_SINGULAR, (forward,))
    return ComparisonResult(Relation.INCOMPARABLE, (forward, reverse))


def lelong(s: SingularityClass) -> Fraction:
    """Lelong number at the origin: the generic slope sum(gamma) + delta."""
    return s.total


# -- numerical boundedness probe -----------------------------------------


def generic_rays(arr: WeightedArrangement, count: int, seed: int
                 ) -> list[tuple[complex, complex]]:
    """`count` unit directions in C^2, drawn from `seed`, each at distance
    more than 0.05 from every line of the arrangement."""
    rng = random.Random(seed)
    rays: list[tuple[complex, complex]] = []
    while len(rays) < count:
        parts = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(v * v for v in parts))
        if norm == 0.0:
            continue
        u = (complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm)
        dist = min(
            (abs(line.evaluate(*u)) / line.coeff_norm() for line in arr.lines),
            default=1.0,
        )
        if dist > 0.05:
            rays.append(u)
    return rays


@functools.lru_cache(maxsize=16)
def _probe_geometry(arr: WeightedArrangement, decades: int,
                    offsets: tuple[int, ...], rays: int, seed: int
                    ) -> tuple[tuple[tuple[tuple[float, ...], float], ...], ...]:
    """Per scale r = 10^-1..10^-decades, log line values and log norms.

    Points: each line's unit direction pushed off the line by eps = r^j for
    every offset j, plus `rays` fixed generic directions, all scaled by r.
    Line values at the pushed points are evaluated in the split form
    ell_k(v + eps*n) = ell_k(v) + eps*ell_k(n), with the analytic zero
    ell_i(v_i) = 0 substituted exactly; plain coordinate arithmetic would
    absorb offsets below 1e-16 into the unit-size direction.
    """
    directions = generic_rays(arr, rays, seed)
    per_scale = []
    for d in range(1, decades + 1):
        r = 10.0 ** (-d)
        log_r = math.log(r)
        pts: list[tuple[tuple[float, ...], float]] = []
        for i, line in enumerate(arr.lines):
            v = line.direction()
            n = line.unit_normal()
            base = [lk.evaluate(*v) for lk in arr.lines]
            base[i] = 0.0
            push = [lk.evaluate(*n) for lk in arr.lines]
            for j in offsets:
                eps = r ** j
                logs = tuple(
                    log_r + math.log(abs(b + eps * q))
                    for b, q in zip(base, push)
                )
                pts.append((logs, log_r + 0.5 * math.log1p(eps * eps)))
        for u in directions:
            logs = tuple(
                log_r + math.log(abs(lk.evaluate(*u))) for lk in arr.lines
            )
            pts.append((logs, log_r))
        per_scale.append(tuple(pts))
    return tuple(per_scale)


def boundedness_probe(arr: WeightedArrangement, s1: SingularityClass,
                      s2: SingularityClass, *, decades: int = 6,
                      offsets: tuple[int, ...] = (1, 2, 3), rays: int = 64,
                      seed: int = 7, rise_threshold: float = 5.0) -> bool:
    """Sampled verdict on whether psi1 - psi2 is bounded above near 0.

    Declares "unbounded" when the per-scale maximum of psi1 - psi2 rises by
    more than `rise_threshold` across the sampled decades.  The instrument
    has finite sensitivity: a violation is guaranteed visible only when
    some approach family has slope <= -1/2 against log r; see the tests for
    the pair generator that respects this.
    """
    _require_same_key(s1, s2)
    geometry = _probe_geometry(arr, decades, tuple(offsets), rays, seed)
    dg = [float(a - b) for a, b in zip(s1.gamma, s2.gamma)]
    dd = float(s1.delta - s2.delta)
    maxima = []
    for pts in geometry:
        maxima.append(max(
            sum(g * ll for g, ll in zip(dg, logs)) + dd * ln
            for logs, ln in pts
        ))
    best_rise = 0.0
    running_min = maxima[0]
    for value in maxima[1:]:
        best_rise = max(best_rise, value - running_min)
        running_min = min(running_min, value)
    return best_rise <= rise_threshold
