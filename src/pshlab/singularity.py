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
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .arrangement import Line, WeightedArrangement, hopf_charts
from .gaussian import integer_ratio, to_fraction
from .multiplier_ideal import IdealDescriptor
from .records import Frozen


def ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class ArrangementMismatchError(ValueError):
    """Classes over different line lists cannot be compared."""


class Relation(Enum):
    EQUIVALENT = "equivalent"
    FIRST_MORE_SINGULAR = "first_more_singular"
    SECOND_MORE_SINGULAR = "second_more_singular"
    INCOMPARABLE = "incomparable"


class Witness(NamedTuple):
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


class SingularityClass(Frozen):
    """Exponent data (gamma; delta) of a representative weight.

    Stored as integer numerators `num` (the gamma_i, then delta) over one
    positive denominator `den`, with gcd(num, den) = 1: that form is
    unique, so equality and hashing are those of the exponents.  `gamma`,
    `delta` and `total` are Fractions built on access.
    """

    __slots__ = _fields = ("key", "num", "den")
    key: tuple[Line, ...]
    num: tuple[int, ...]
    den: int

    def __init__(self, key: tuple[Line, ...], gamma, delta):
        exps = [to_fraction(q) for q in (*gamma, delta)]
        den = math.lcm(*(q.denominator for q in exps))  # already reduced
        num = tuple(q.numerator * (den // q.denominator) for q in exps)
        for name, value in (("key", key), ("num", num), ("den", den)):
            object.__setattr__(self, name, value)

    @classmethod
    def scaled(cls, key: tuple[Line, ...], num: tuple[int, ...], den: int
               ) -> "SingularityClass":
        """The class with exponents num[i]/den (delta last), den > 0."""
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple([n // g for n in num]), den // g
        self = object.__new__(cls)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
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
        *gamma, delta = [ratio_str(n, self.den) for n in self.num]
        return {"gamma": gamma, "delta": delta}


class ComparisonResult(Frozen):
    """The relation of s1 to s2, the compared `pair`; `witnesses` are built
    on first access.  Equality and hash are those of (relation, witnesses),
    and the repr shows the relation."""

    _fields = ("relation", "pair")

    def __init__(self, relation: Relation,
                 pair: tuple[SingularityClass, SingularityClass]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "pair", pair)

    @functools.cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        s1, s2 = self.pair
        return tuple(w for w in (directed_violation(s1, s2),
                                 directed_violation(s2, s1)) if w is not None)

    def __eq__(self, other) -> bool:
        return isinstance(other, ComparisonResult) and (
            self.relation, self.witnesses) == (other.relation, other.witnesses)

    def __hash__(self) -> int:
        return hash((self.relation, self.witnesses))

    def __repr__(self) -> str:
        return f"ComparisonResult(relation={self.relation!r})"

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
    n, d = integer_ratio(m)
    if n <= 0:
        raise ValueError("approximation index m must be positive")
    return SingularityClass.scaled(arr.key, tuple(
        [v * d for v in (*ideal.b, ideal.p)]), n)


def _gaps(s1: SingularityClass, s2: SingularityClass) -> list[int]:
    """The exponents of s1 minus those of s2 (delta last), over the common
    denominator s1.den * s2.den."""
    if s1.key != s2.key:
        raise ArrangementMismatchError(
            "classes live over different line arrangements")
    return [a * s2.den - b * s1.den for a, b in zip(s1.num, s2.num)]


def directed_violation(s1: SingularityClass, s2: SingularityClass) -> Witness | None:
    """Why psi1 <= psi2 + O(1) fails, or None if it holds."""
    *gaps, delta_gap = _gaps(s1, s2)
    for i, gap in enumerate(gaps):
        if gap < 0:
            return Witness(kind="gamma", index=i,
                           first=Fraction(s1.num[i], s1.den),
                           second=Fraction(s2.num[i], s2.den))
    if sum(gaps) + delta_gap < 0:
        return Witness(kind="total", index=None, first=s1.total,
                       second=s2.total)
    return None


def more_singular_or_equal(s1: SingularityClass, s2: SingularityClass) -> bool:
    """True iff psi1 <= psi2 + O(1) near the origin."""
    return directed_violation(s1, s2) is None


def compare(s1: SingularityClass, s2: SingularityClass) -> ComparisonResult:
    """Full comparison of s1 relative to s2; the witnesses of a failed
    direction are built only when read."""
    # psi1 <= psi2 fails iff a gamma gap or the total gap is negative
    gaps = _gaps(s1, s2)
    total = sum(gaps)
    gaps.pop()  # the delta gap, which enters only the total
    forward_fails = total < 0 or min(gaps, default=0) < 0
    if total > 0 or max(gaps, default=0) > 0:  # psi2 <= psi1 fails
        relation = Relation.INCOMPARABLE if forward_fails else \
            Relation.FIRST_MORE_SINGULAR
    else:  # when neither direction fails, every gap is 0, delta's too
        relation = Relation.SECOND_MORE_SINGULAR if forward_fails else \
            Relation.EQUIVALENT
    return ComparisonResult(relation, (s1, s2))


def lelong(s: SingularityClass) -> Fraction:
    """Lelong number at the origin: the generic slope sum(gamma) + delta."""
    return s.total


# -- numerical boundedness probe -----------------------------------------

PROBE_DECADES = 6  # scales r = 10^-1..10^-PROBE_DECADES
PROBE_OFFSETS = (1, 2, 3)  # each line point is pushed off by r^j, j in these
PROBE_RAYS, PROBE_SEED = 64, 7  # the generic rays sampled at every scale
PROBE_RISE = 5.0  # a larger rise of the per-scale maximum means unbounded


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
        dist = min((line.modulus(*u) for line in arr.lines), default=1.0)
        if dist > 0.05:
            rays.append(u)
    return rays


@functools.lru_cache(maxsize=16)
def _probe_geometry(arr: WeightedArrangement
                    ) -> tuple[tuple[tuple[tuple[float, ...], float], ...], ...]:
    """Per scale r = 10^-1..10^-PROBE_DECADES, log line values and log norms.

    Points: each line point p pushed off its line along the unit normal n
    by eps = r^j for every j in PROBE_OFFSETS, plus PROBE_RAYS fixed generic
    directions, all scaled by r.  The line values at p + eps n are the
    chart moduli |ell_k(p) + eps ell_k(n)| of `arrangement.hopf_charts`,
    where ell_i(p_i) = 0 exactly; plain coordinate arithmetic would absorb
    offsets below 1e-16 into the unit-size direction.  Lines enter
    unit-normalized, which shifts each log by a constant and moves no rise.
    """
    directions = generic_rays(arr, PROBE_RAYS, PROBE_SEED)
    per_scale = []
    for d in range(1, PROBE_DECADES + 1):
        r = 10.0 ** (-d)
        log_r = math.log(r)
        pts: list[tuple[tuple[float, ...], float]] = []
        for chart in hopf_charts(arr)[:len(arr.lines)]:  # no line, no chart
            for j in PROBE_OFFSETS:
                eps = r ** j
                logs = tuple(log_r + math.log(v)
                             for v in chart.moduli(1.0, eps))
                pts.append((logs, log_r + 0.5 * math.log1p(eps * eps)))
        for u in directions:
            logs = tuple(log_r + math.log(line.modulus(*u))
                         for line in arr.lines)
            pts.append((logs, log_r))
        per_scale.append(tuple(pts))
    return tuple(per_scale)


def boundedness_probe(arr: WeightedArrangement, s1: SingularityClass,
                      s2: SingularityClass) -> bool:
    """Sampled verdict on whether psi1 - psi2 is bounded above near 0.

    Declares "unbounded" when the per-scale maximum of psi1 - psi2 rises by
    more than PROBE_RISE across the sampled decades.  The instrument
    has finite sensitivity: a violation is guaranteed visible only when
    some approach family has slope <= -1/2 against log r; see the tests for
    the pair generator that respects this.
    """
    *dg, dd = [gap / (s1.den * s2.den) for gap in _gaps(s1, s2)]
    maxima = []
    for pts in _probe_geometry(arr):
        maxima.append(max(
            sum(g * ll for g, ll in zip(dg, logs)) + dd * ln
            for logs, ln in pts
        ))
    best_rise = 0.0
    running_min = maxima[0]
    for value in maxima[1:]:
        best_rise = max(best_rise, value - running_min)
        running_min = min(running_min, value)
    return best_rise <= PROBE_RISE
