"""The approximation sequence {phi_m} and its monotonicity structure.

Entry m pairs the multiplier ideal J(m*phi) with the singularity class of
the induced weight (1/2m) log sum |g_k|^2.  A violation at (m, m') means
the class of phi_{m'} is not at least as singular as that of phi_m, which
certifies that no choice of additive constants can make the sequence
decrease across that step: classes already quotient the constants out.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .arrangement import WeightedArrangement, preset
from .multiplier_ideal import (IdealDescriptor, floor_data, generator_strings,
                               generators, ideal_of)
from .polynomials import BivariatePolynomial
from .records import Record
from .singularity import (
    ComparisonResult,
    Relation,
    SingularityClass,
    class_of_weight,
    compare,
    directed_violation,
    more_singular_or_equal,
    ratio_str,
)

# The finite ranges the claims check: k = 1..100 of the pairs (3k, 3k+2),
# k = 1..10 of the indices 2^k, k = 0..50 of the indices 3k+2, and
# m = 1..100 of the smooth and point presets.
PATTERN_K_MAX, POW2_K_MAX, LINEAR_K_MAX, CLAIM_M_MAX = 100, 10, 50, 100


class SequenceEntry(NamedTuple):
    m: int
    ideal: IdealDescriptor
    cls: SingularityClass

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "ideal": self.ideal.to_dict(),
            "class": self.cls.to_dict(),
            "lelong": ratio_str(sum(self.cls.num), self.cls.den),
        }


def _entries(arr: WeightedArrangement, ms: Iterable[int]
             ) -> list[SequenceEntry]:
    """The entries at the indices ms (each m >= 1) in one integer pass:
    J(m*phi) by `floor_data`, and its class with exponents b_i/m and p/m."""
    (weights, total, den), key = arr.scaled_weights, arr.key
    out = []
    for m in ms:
        b, e, p = floor_data(weights, total, den, m)
        out.append(SequenceEntry(m, IdealDescriptor(b, e, p),
                                 SingularityClass.scaled(key, (*b, p), m)))
    return out


def entry(arr: WeightedArrangement, m: int) -> SequenceEntry:
    if not isinstance(m, int) or m < 1:
        raise ValueError("approximation index must be an integer >= 1")
    return _entries(arr, (m,))[0]


def build_sequence(arr: WeightedArrangement, m_max: int) -> list[SequenceEntry]:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return _entries(arr, range(1, m_max + 1))


def _walk(entries: Sequence[SequenceEntry]
          ) -> tuple[list[ComparisonResult], list[tuple[int, int]]]:
    """The consecutive-step walk: compare(phi_next, phi_prev) for each step,
    and the steps (m, m') where phi_m' is not at least as singular."""
    steps = [compare(nxt.cls, prev.cls) for prev, nxt in zip(entries, entries[1:])]
    violations = [
        (prev.m, nxt.m)
        for prev, nxt, step in zip(entries, entries[1:], steps)
        if step.relation in (Relation.SECOND_MORE_SINGULAR, Relation.INCOMPARABLE)
    ]
    return steps, violations


def adjacent_violations(arr: WeightedArrangement, m_max: int
                        ) -> list[tuple[int, int]]:
    """Steps (m, m+1) where phi_{m+1} fails to be at least as singular."""
    if m_max < 2:
        raise ValueError("need m_max >= 2 to compare adjacent entries")
    return monotonicity_report(arr, m_max).violations


class PatternCheck(NamedTuple):
    """Outcome of the (3k, 3k+2) comparison for one k."""

    k: int
    pair: tuple[int, int]
    forward_fails: bool  # phi_{3k+2} is NOT more singular than phi_{3k}
    reverse_holds: bool  # phi_{3k} IS more singular than phi_{3k+2}

    @property
    def is_violation(self) -> bool:
        return self.forward_fails and self.reverse_holds

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "pair": list(self.pair),
            "forward_fails": self.forward_fails,
            "reverse_holds": self.reverse_holds,
        }


def pattern_violations(arr: WeightedArrangement, k_max: int) -> list[PatternCheck]:
    """Run the (3k, 3k+2) checks for k = 1..k_max.

    For the three-line 2/3 arrangement every k is expected to be a
    violation; for other arrangements the checks are reported unasserted.
    """
    out = []
    lows, highs = (_entries(arr, range(r, 3 * k_max + r, 3)) for r in (3, 5))
    for k, (lo, hi) in enumerate(zip(lows, highs), start=1):
        relation = compare(hi.cls, lo.cls).relation
        out.append(
            PatternCheck(
                k=k,
                pair=(3 * k, 3 * k + 2),
                forward_fails=relation in (Relation.SECOND_MORE_SINGULAR,
                                           Relation.INCOMPARABLE),
                reverse_holds=relation in (Relation.SECOND_MORE_SINGULAR,
                                           Relation.EQUIVALENT),
            )
        )
    return out


def deviation_within_bounds(arr: WeightedArrangement, ent: SequenceEntry) -> bool:
    """Exact convergence certificate 0 <= a_i - gamma_i <= 1/m and
    |delta - d0| <= k/m, k = max(2, lines - 1) the worst-case numerator of
    the delta defect (one floor defect per extra summand); holds for every
    genuine entry.  Scaled by m*L*D for a_i = A_i/L and the class over D."""
    weights, total, den = arr.scaled_weights
    *gamma, delta = ent.cls.num
    d, scale, m = ent.cls.den, den * ent.cls.den, ent.m
    mass = total - sum(weights)  # the point mass d0, over L
    return all(0 <= m * (a * d - g * den) <= scale
               for a, g in zip(weights, gamma)) and \
        m * abs(delta * den - mass * d) <= max(2, len(arr.lines) - 1) * scale


class SubsequenceVerdict(NamedTuple):
    indices: tuple[int, ...]
    decreasing: bool
    strictly: bool
    converges_to_weight: bool
    first_failure: tuple[int, int] | None

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "decreasing": self.decreasing,
            "strictly": self.strictly,
            "converges_to_weight": self.converges_to_weight,
            "first_failure": list(self.first_failure) if self.first_failure else None,
        }


def _subsequence_verdict(arr: WeightedArrangement,
                         entries: Sequence[SequenceEntry]) -> SubsequenceVerdict:
    steps, failures = _walk(entries)
    return SubsequenceVerdict(
        indices=tuple(ent.m for ent in entries),
        decreasing=not failures,
        strictly=all(s.relation is Relation.FIRST_MORE_SINGULAR for s in steps),
        converges_to_weight=all(deviation_within_bounds(arr, ent)
                                for ent in entries),
        first_failure=failures[0] if failures else None,
    )


def check_subsequence(arr: WeightedArrangement, indices: Iterable[int]
                      ) -> SubsequenceVerdict:
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValueError("the index family names no index")
    if any(i < 1 for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be a strictly increasing list of m >= 1")
    return _subsequence_verdict(arr, _entries(arr, idx))


# -- full report ----------------------------------------------------------


class MonotonicityReport(Record):
    __slots__ = _fields = ("arrangement", "entries", "comparisons",
                           "violations", "subsequence")

    def __init__(self, arrangement: WeightedArrangement,
                 entries: list[SequenceEntry],
                 comparisons: list[ComparisonResult],  # entry m+1 vs entry m
                 violations: list[tuple[int, int]],
                 subsequence: SubsequenceVerdict | None = None):
        self.arrangement = arrangement
        self.entries = entries
        self.comparisons = comparisons
        self.violations = violations
        self.subsequence = subsequence

    def to_dict(self) -> dict:
        return {
            "arrangement": self.arrangement.describe(),
            "entries": [e.to_dict() for e in self.entries],
            "comparisons": [c.to_dict() for c in self.comparisons],
            "violations": [list(v) for v in self.violations],
            "subsequence": self.subsequence.to_dict() if self.subsequence else None,
        }


def monotonicity_report(arr: WeightedArrangement, m_max: int,
                        indices: Sequence[int] | None = None
                        ) -> MonotonicityReport:
    entries = build_sequence(arr, m_max)
    comparisons, violations = _walk(entries)
    sub = check_subsequence(arr, indices) if indices is not None else None
    return MonotonicityReport(
        arrangement=arr,
        entries=entries,
        comparisons=comparisons,
        violations=violations,
        subsequence=sub,
    )


# -- claim registry --------------------------------------------------------


class ClaimResult(NamedTuple):
    claim_id: str
    description: str
    passed: bool
    details: Mapping = MappingProxyType({})  # read-only when defaulted

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "description": self.description,
            "passed": self.passed,
            "details": dict(self.details),
        }


class VerificationReport(Record):
    __slots__ = _fields = ("results",)

    def __init__(self, results: list[ClaimResult]):
        self.results = results

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "claims": [r.to_dict() for r in self.results],
            "all_passed": self.all_passed,
        }


def _claim_generators() -> ClaimResult:
    arr = preset("theorem1")
    xyz = (
        BivariatePolynomial.x()
        * BivariatePolynomial.y()
        * (BivariatePolynomial.x() + BivariatePolynomial.y())
    )
    expected = {
        2: [xyz],
        3: [xyz ** 2],
        4: [xyz ** 2 * BivariatePolynomial.x(), xyz ** 2 * BivariatePolynomial.y()],
        5: [xyz ** 3],
    }
    details: dict = {}
    ok = True
    for m, want in expected.items():
        got = generators(arr, ideal_of(arr, m))
        match = got == want
        ok = ok and match
        details[f"m={m}"] = {
            "generators": generator_strings(arr, ideal_of(arr, m)),
            "match": match,
        }
    c5 = entry(arr, 5).cls
    gamma_ok = all(g == Fraction(3, 5) for g in c5.gamma) and c5.delta == 0
    ok = ok and gamma_ok
    details["m=5 exponents"] = {"gamma": [str(g) for g in c5.gamma], "match": gamma_ok}
    return ClaimResult(
        "ideal-generators-m2-m5",
        "generators of J(m*phi) for m = 2..5 on the three-line 2/3 arrangement",
        ok,
        details,
    )


def _claim_adjacent_violation() -> ClaimResult:
    arr = preset("theorem1")
    report = monotonicity_report(arr, 5)
    violations = report.violations
    witness = directed_violation(report.entries[3].cls, report.entries[2].cls)
    ok = (
        (3, 4) in violations
        and witness is not None
        and witness.kind == "gamma"
        and witness.first == Fraction(1, 2)
        and witness.second == Fraction(2, 3)
    )
    return ClaimResult(
        "adjacent-violation-3-4",
        "phi_4 is not at least as singular as phi_3 (no constants can fix the step)",
        ok,
        {
            "violations_m_max_5": [list(v) for v in violations],
            "witness": str(witness) if witness else None,
        },
    )


def _claim_reversal() -> ClaimResult:
    arr = preset("theorem1")
    c3, c5 = entry(arr, 3).cls, entry(arr, 5).cls
    ok = more_singular_or_equal(c3, c5) and not more_singular_or_equal(c5, c3)
    return ClaimResult(
        "reversal-m3-m5",
        "phi_3 is strictly more singular than phi_5 (the order reverses)",
        ok,
        {"relation": compare(c3, c5).relation.value},
    )


def _claim_pattern() -> ClaimResult:
    arr = preset("theorem1")
    checks = pattern_violations(arr, PATTERN_K_MAX)
    ok = all(c.is_violation for c in checks)
    bad = [c.k for c in checks if not c.is_violation]
    return ClaimResult(
        "truncation-family-3k-3k2",
        f"every (3k, 3k+2) pair violates monotonicity, k = 1..{PATTERN_K_MAX} "
        "(no truncation makes the sequence decreasing)",
        ok,
        {"failing_k": bad},
    )


def _claim_pow2() -> ClaimResult:
    arr = preset("theorem1")
    entries = _entries(arr, [2 ** k for k in range(1, POW2_K_MAX + 1)])
    verdict = _subsequence_verdict(arr, entries)
    ok = verdict.decreasing
    # Alternating fine structure: gamma strictly increases on steps leaving
    # an even exponent, and stays equal (delta absorbing the difference) on
    # steps leaving an odd exponent.
    details: dict = {"decreasing": verdict.decreasing, "steps": {}}
    for k, (lo, hi) in enumerate(zip(entries, entries[1:]), start=1):
        g_lo, g_hi = lo.cls.gamma[0], hi.cls.gamma[0]
        if k % 2 == 0:
            step_ok = g_hi > g_lo
            kind = "gamma strictly increases"
        else:
            step_ok = g_hi == g_lo and hi.cls.delta > lo.cls.delta
            kind = "gamma equal, delta absorbs"
        # Exact floor identity behind the even-exponent entries.
        if k % 2 == 0:
            step_ok = step_ok and 3 * lo.ideal.b[0] == 2 * (2 ** k - 1)
        details["steps"][f"2^{k}->2^{k + 1}"] = {"ok": step_ok, "pattern": kind}
        ok = ok and step_ok
    return ClaimResult(
        "pow2-subsequence-decreasing",
        f"the powers-of-two subsequence decreases for k = 1..{POW2_K_MAX}, "
        "with the two alternating exponent patterns",
        ok,
        details,
    )


def _claim_linear_growth() -> ClaimResult:
    arr = preset("theorem1")
    entries = _entries(arr, [3 * k + 2 for k in range(0, LINEAR_K_MAX + 1)])
    verdict = _subsequence_verdict(arr, entries)
    gamma_ok = all(
        ent.cls.gamma[0] == Fraction(2 * k + 1, 3 * k + 2)
        for k, ent in enumerate(entries)
    )
    ok = verdict.decreasing and verdict.strictly and verdict.converges_to_weight \
        and gamma_ok
    return ClaimResult(
        "linear-growth-subsequence",
        f"the indices 3k+2, k = 0..{LINEAR_K_MAX}, give a strictly decreasing "
        "subsequence converging to the weight class",
        ok,
        verdict.to_dict(),
    )


def _claim_smooth() -> ClaimResult:
    arr = preset("smooth")
    target = class_of_weight(arr)
    entries = build_sequence(arr, CLAIM_M_MAX)
    ok = all(
        compare(e.cls, target).relation is Relation.EQUIVALENT for e in entries
    )
    return ClaimResult(
        "smooth-constant-sequence",
        f"a smooth divisor gives a constant class sequence for m <= {CLAIM_M_MAX}",
        ok,
        {"violations": _walk(entries)[1]},
    )


def _claim_point() -> ClaimResult:
    arr = preset("point")
    entries = build_sequence(arr, CLAIM_M_MAX)
    deltas_ok = all(
        e.cls.delta == Fraction(e.m - 1, e.m) and not e.cls.gamma for e in entries
    )
    verdict = _subsequence_verdict(arr, entries)
    ok = deltas_ok and verdict.decreasing and verdict.strictly
    return ClaimResult(
        "point-strictly-decreasing",
        f"the isotropic point mass gives strictly decreasing classes "
        f"delta_m = (m-1)/m for m <= {CLAIM_M_MAX}",
        ok,
        {"deltas_match": deltas_ok, "verdict": verdict.to_dict()},
    )


CLAIMS: dict[str, Callable[[], ClaimResult]] = {
    "ideal-generators-m2-m5": _claim_generators,
    "adjacent-violation-3-4": _claim_adjacent_violation,
    "reversal-m3-m5": _claim_reversal,
    "truncation-family-3k-3k2": _claim_pattern,
    "pow2-subsequence-decreasing": _claim_pow2,
    "linear-growth-subsequence": _claim_linear_growth,
    "smooth-constant-sequence": _claim_smooth,
    "point-strictly-decreasing": _claim_point,
}

# Short aliases accepted by the CLI claim filter.
CLAIM_ALIASES: dict[str, str] = {
    "generators": "ideal-generators-m2-m5",
    "thm1": "adjacent-violation-3-4",
    "theorem1": "adjacent-violation-3-4",
    "prop2": "pow2-subsequence-decreasing",
    "pow2": "pow2-subsequence-decreasing",
    "truncation": "truncation-family-3k-3k2",
    "linear": "linear-growth-subsequence",
    "smooth": "smooth-constant-sequence",
    "point": "point-strictly-decreasing",
}


def resolve_claims(names: Sequence[str] | None) -> list[str]:
    if not names:
        return list(CLAIMS)
    out = []
    for name in names:
        key = CLAIM_ALIASES.get(name, name)
        if key not in CLAIMS:
            raise KeyError(
                f"unknown claim {name!r}; known: {', '.join(CLAIMS)}"
            )
        if key not in out:
            out.append(key)
    return out


def verify_paper(claims: Sequence[str] | None = None) -> VerificationReport:
    """Run the reproduction claim registry (all claims by default)."""
    selected = resolve_claims(claims)
    return VerificationReport(results=[CLAIMS[name]() for name in selected])
