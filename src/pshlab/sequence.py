"""The approximation sequence {phi_m} and its monotonicity structure.

Entry m pairs the multiplier ideal J(m*phi) with the singularity class of
the induced weight (1/2m) log sum |g_k|^2.  A violation at (m, m') means
the class of phi_{m'} is not at least as singular as that of phi_m, which
certifies that no choice of additive constants can make the sequence
decrease across that step: classes already quotient the constants out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .arrangement import WeightedArrangement, preset
from .multiplier_ideal import IdealDescriptor, generator_strings, generators, ideal_of
from .polynomials import BivariatePolynomial
from .singularity import (
    ComparisonResult,
    Relation,
    SingularityClass,
    class_of_ideal,
    class_of_weight,
    compare,
    directed_violation,
    lelong,
    more_singular_or_equal,
)


@dataclass(frozen=True)
class SequenceEntry:
    m: int
    ideal: IdealDescriptor
    cls: SingularityClass

    CSV_HEADER = ("m", "b", "p", "gamma", "delta", "nu")

    def csv_row(self) -> list[str]:
        return [str(self.m), ";".join(str(v) for v in self.ideal.b),
                str(self.ideal.p), ";".join(str(g) for g in self.cls.gamma),
                str(self.cls.delta), str(lelong(self.cls))]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "ideal": self.ideal.to_dict(),
            "class": self.cls.to_dict(),
            "lelong": str(lelong(self.cls)),
        }


def entry(arr: WeightedArrangement, m: int) -> SequenceEntry:
    if m < 1:
        raise ValueError("approximation index must be >= 1")
    ideal = ideal_of(arr, m)
    return SequenceEntry(m=m, ideal=ideal, cls=class_of_ideal(arr, ideal, m))


def build_sequence(arr: WeightedArrangement, m_max: int) -> list[SequenceEntry]:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return [entry(arr, m) for m in range(1, m_max + 1)]


def adjacent_violations(arr: WeightedArrangement, m_max: int
                        ) -> list[tuple[int, int]]:
    """Steps (m, m+1) where phi_{m+1} fails to be at least as singular."""
    if m_max < 2:
        raise ValueError("need m_max >= 2 to compare adjacent entries")
    entries = build_sequence(arr, m_max)
    out = []
    for prev, nxt in zip(entries, entries[1:]):
        if not more_singular_or_equal(nxt.cls, prev.cls):
            out.append((prev.m, nxt.m))
    return out


@dataclass(frozen=True)
class PatternCheck:
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
    for k in range(1, k_max + 1):
        lo, hi = entry(arr, 3 * k), entry(arr, 3 * k + 2)
        out.append(
            PatternCheck(
                k=k,
                pair=(3 * k, 3 * k + 2),
                forward_fails=not more_singular_or_equal(hi.cls, lo.cls),
                reverse_holds=more_singular_or_equal(lo.cls, hi.cls),
            )
        )
    return out


def _line_count_bound(arr: WeightedArrangement) -> int:
    # Worst-case numerator of |delta(m) - point_mass|; 2 is exact for up to
    # three lines, k-1 in general (one floor defect per extra summand).
    return max(2, len(arr.lines) - 1)


def deviation_within_bounds(arr: WeightedArrangement, ent: SequenceEntry) -> bool:
    """Exact convergence certificate |gamma_i - a_i| <= 1/m and the matching
    delta bound; holds for every genuine sequence entry."""
    m = Fraction(ent.m)
    for a, g in zip(arr.coeffs, ent.cls.gamma):
        if not (0 <= a - g <= 1 / m):
            return False
    bound = Fraction(_line_count_bound(arr)) / m
    return abs(ent.cls.delta - arr.point_mass) <= bound


@dataclass(frozen=True)
class SubsequenceVerdict:
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


def check_subsequence(arr: WeightedArrangement, indices: Iterable[int]
                      ) -> SubsequenceVerdict:
    idx = tuple(int(i) for i in indices)
    if not idx or any(i < 1 for i in idx) or any(
        a >= b for a, b in zip(idx, idx[1:])
    ):
        raise ValueError("indices must be a strictly increasing list of m >= 1")
    entries = [entry(arr, m) for m in idx]
    decreasing = True
    strictly = True
    first_failure = None
    for prev, nxt in zip(entries, entries[1:]):
        if not more_singular_or_equal(nxt.cls, prev.cls):
            decreasing = False
            strictly = False
            if first_failure is None:
                first_failure = (prev.m, nxt.m)
            continue
        if compare(nxt.cls, prev.cls).relation is Relation.EQUIVALENT:
            strictly = False
    converges = all(deviation_within_bounds(arr, ent) for ent in entries)
    return SubsequenceVerdict(
        indices=idx,
        decreasing=decreasing,
        strictly=strictly,
        converges_to_weight=converges,
        first_failure=first_failure,
    )


# -- full report ----------------------------------------------------------


@dataclass
class MonotonicityReport:
    arrangement: WeightedArrangement
    entries: list[SequenceEntry]
    comparisons: list[ComparisonResult]  # entry m+1 vs entry m
    violations: list[tuple[int, int]]
    subsequence: SubsequenceVerdict | None = None

    def to_dict(self) -> dict:
        return {
            "arrangement": self.arrangement.describe(),
            "entries": [e.to_dict() for e in self.entries],
            "comparisons": [c.to_dict() for c in self.comparisons],
            "violations": [list(v) for v in self.violations],
            "subsequence": self.subsequence.to_dict() if self.subsequence else None,
        }

    def to_markdown(self) -> str:
        lines = [
            "| m | b | p | gamma | delta | nu | vs previous |",
            "|---|---|---|-------|-------|----|-------------|",
        ]
        for i, ent in enumerate(self.entries):
            gammas = ", ".join(str(g) for g in ent.cls.gamma)
            if i == 0:
                verdict = "-"
            else:
                rel = self.comparisons[i - 1].relation
                verdict = {
                    Relation.EQUIVALENT: "equivalent",
                    Relation.FIRST_MORE_SINGULAR: "more singular (ok)",
                    Relation.SECOND_MORE_SINGULAR: "less singular (VIOLATION)",
                    Relation.INCOMPARABLE: "incomparable (VIOLATION)",
                }[rel]
            lines.append(
                f"| {ent.m} | {list(ent.ideal.b)} | {ent.ideal.p} "
                f"| ({gammas}) | {ent.cls.delta} | {lelong(ent.cls)} | {verdict} |"
            )
        if self.violations:
            pairs = ", ".join(f"({a},{b})" for a, b in self.violations)
            lines.append("")
            lines.append(f"Violating steps: {pairs}")
        if self.subsequence is not None:
            lines.append("")
            v = self.subsequence
            lines.append(
                f"Subsequence {list(v.indices[:4])}...: decreasing={v.decreasing}, "
                f"strictly={v.strictly}, converges={v.converges_to_weight}"
            )
        return "\n".join(lines)

    def to_csv_rows(self) -> list[list[str]]:
        verdicts = [""] + [c.relation.value for c in self.comparisons]
        return [[*SequenceEntry.CSV_HEADER, "vs_previous"]] + [
            ent.csv_row() + [verdict]
            for ent, verdict in zip(self.entries, verdicts)]


def monotonicity_report(arr: WeightedArrangement, m_max: int,
                        indices: Sequence[int] | None = None
                        ) -> MonotonicityReport:
    entries = build_sequence(arr, m_max)
    comparisons = [
        compare(nxt.cls, prev.cls) for prev, nxt in zip(entries, entries[1:])
    ]
    violations = [
        (entries[i].m, entries[i + 1].m)
        for i, c in enumerate(comparisons)
        if c.relation in (Relation.SECOND_MORE_SINGULAR, Relation.INCOMPARABLE)
    ]
    sub = check_subsequence(arr, indices) if indices else None
    return MonotonicityReport(
        arrangement=arr,
        entries=entries,
        comparisons=comparisons,
        violations=violations,
        subsequence=sub,
    )


# -- claim registry --------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "description": self.description,
            "passed": self.passed,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    results: list[ClaimResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "claims": [r.to_dict() for r in self.results],
            "all_passed": self.all_passed,
        }

    def to_markdown(self) -> str:
        lines = [
            "| claim | status | description |",
            "|-------|--------|-------------|",
        ]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"| {r.claim_id} | {status} | {r.description} |")
        lines.append("")
        lines.append(
            "Overall: " + ("PASS" if self.all_passed else "FAIL")
        )
        return "\n".join(lines)


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
    violations = adjacent_violations(arr, 5)
    c3, c4 = entry(arr, 3).cls, entry(arr, 4).cls
    witness = directed_violation(c4, c3)
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


def _claim_pattern(k_max: int = 100) -> ClaimResult:
    arr = preset("theorem1")
    checks = pattern_violations(arr, k_max)
    ok = all(c.is_violation for c in checks)
    bad = [c.k for c in checks if not c.is_violation]
    return ClaimResult(
        "truncation-family-3k-3k2",
        f"every (3k, 3k+2) pair violates monotonicity, k = 1..{k_max} "
        "(no truncation makes the sequence decreasing)",
        ok,
        {"failing_k": bad},
    )


def _claim_pow2(k_max: int = 10) -> ClaimResult:
    arr = preset("theorem1")
    indices = [2 ** k for k in range(1, k_max + 1)]
    verdict = check_subsequence(arr, indices)
    ok = verdict.decreasing
    # Alternating fine structure: gamma strictly increases on steps leaving
    # an even exponent, and stays equal (delta absorbing the difference) on
    # steps leaving an odd exponent.
    details: dict = {"decreasing": verdict.decreasing, "steps": {}}
    for k in range(1, k_max):
        lo, hi = entry(arr, 2 ** k), entry(arr, 2 ** (k + 1))
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
        f"the powers-of-two subsequence decreases for k = 1..{k_max}, "
        "with the two alternating exponent patterns",
        ok,
        details,
    )


def _claim_linear_growth(k_max: int = 50) -> ClaimResult:
    arr = preset("theorem1")
    indices = [3 * k + 2 for k in range(0, k_max + 1)]
    verdict = check_subsequence(arr, indices)
    gamma_ok = all(
        entry(arr, 3 * k + 2).cls.gamma[0] == Fraction(2 * k + 1, 3 * k + 2)
        for k in range(0, k_max + 1)
    )
    ok = verdict.decreasing and verdict.strictly and verdict.converges_to_weight \
        and gamma_ok
    return ClaimResult(
        "linear-growth-subsequence",
        f"the indices 3k+2, k = 0..{k_max}, give a strictly decreasing "
        "subsequence converging to the weight class",
        ok,
        verdict.to_dict(),
    )


def _claim_smooth(m_max: int = 100) -> ClaimResult:
    arr = preset("smooth")
    target = class_of_weight(arr)
    entries = build_sequence(arr, m_max)
    ok = all(
        compare(e.cls, target).relation is Relation.EQUIVALENT for e in entries
    )
    return ClaimResult(
        "smooth-constant-sequence",
        f"a smooth divisor gives a constant class sequence for m <= {m_max}",
        ok,
        {"violations": adjacent_violations(arr, m_max)},
    )


def _claim_point(m_max: int = 100) -> ClaimResult:
    arr = preset("point")
    entries = build_sequence(arr, m_max)
    deltas_ok = all(
        e.cls.delta == Fraction(e.m - 1, e.m) and not e.cls.gamma for e in entries
    )
    verdict = check_subsequence(arr, range(1, m_max + 1))
    ok = deltas_ok and verdict.decreasing and verdict.strictly
    return ClaimResult(
        "point-strictly-decreasing",
        f"the isotropic point mass gives strictly decreasing classes "
        f"delta_m = (m-1)/m for m <= {m_max}",
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
