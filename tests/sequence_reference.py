"""Per-entry reference of the sequence reports.

`sequence._entries` builds the entries of a report in one integer pass,
through `multiplier_ideal.floor_data` and `SingularityClass.scaled`, and
`sequence._walk` calls `compare` once per step.  This module keeps the
path they replaced: per index m, the floor data of J(m*phi) written out
afresh and then `class_of_ideal`; per step, the relation of the two
classes from their gaps, written out as the comparison rule was before.
Reports built either way must be equal field by field, witnesses included.
"""

from pshlab.multiplier_ideal import IdealDescriptor
from pshlab.sequence import (
    MonotonicityReport,
    PatternCheck,
    SequenceEntry,
    SubsequenceVerdict,
    deviation_within_bounds,
)
from pshlab.singularity import ComparisonResult, Relation, _gaps, class_of_ideal

FAILS = (Relation.SECOND_MORE_SINGULAR, Relation.INCOMPARABLE)


def ideal(arr, m: int) -> IdealDescriptor:
    """J(m*phi): b_i = floor(m*a_i), e = floor(m*T) - 1, p = max(0, e - sum b)."""
    weights, total, den = arr.scaled_weights
    b = tuple(m * a // den for a in weights)
    e = m * total // den - 1
    return IdealDescriptor(b=b, e=e, p=max(0, e - sum(b)))


def entry(arr, m: int) -> SequenceEntry:
    found = ideal(arr, m)
    return SequenceEntry(m=m, ideal=found, cls=class_of_ideal(arr, found, m))


def entries(arr, ms) -> list[SequenceEntry]:
    return [entry(arr, m) for m in ms]


def compare(s1, s2) -> ComparisonResult:
    *gaps, delta_gap = _gaps(s1, s2)
    total = sum(gaps) + delta_gap
    forward_fails = total < 0 or min(gaps, default=0) < 0
    backward_fails = total > 0 or max(gaps, default=0) > 0
    if forward_fails and backward_fails:
        relation = Relation.INCOMPARABLE
    elif forward_fails:
        relation = Relation.SECOND_MORE_SINGULAR
    elif backward_fails:
        relation = Relation.FIRST_MORE_SINGULAR
    else:
        relation = Relation.EQUIVALENT
    return ComparisonResult(relation, (s1, s2))


def walk(ents):
    steps = [compare(nxt.cls, prev.cls) for prev, nxt in zip(ents, ents[1:])]
    violations = [(prev.m, nxt.m)
                  for prev, nxt, step in zip(ents, ents[1:], steps)
                  if step.relation in FAILS]
    return steps, violations


def subsequence(arr, indices) -> SubsequenceVerdict:
    ents = entries(arr, indices)
    steps, failures = walk(ents)
    return SubsequenceVerdict(
        indices=tuple(indices),
        decreasing=not failures,
        strictly=all(s.relation is Relation.FIRST_MORE_SINGULAR
                     for s in steps),
        converges_to_weight=all(deviation_within_bounds(arr, ent)
                                for ent in ents),
        first_failure=failures[0] if failures else None,
    )


def report(arr, m_max: int, indices=None) -> MonotonicityReport:
    ents = entries(arr, range(1, m_max + 1))
    steps, violations = walk(ents)
    return MonotonicityReport(
        arrangement=arr, entries=ents, comparisons=steps,
        violations=violations,
        subsequence=subsequence(arr, indices) if indices else None)


def pattern_violations(arr, k_max: int) -> list[PatternCheck]:
    out = []
    for k in range(1, k_max + 1):
        relation = compare(entry(arr, 3 * k + 2).cls, entry(arr, 3 * k).cls
                           ).relation
        out.append(PatternCheck(
            k=k, pair=(3 * k, 3 * k + 2), forward_fails=relation in FAILS,
            reverse_holds=relation in (Relation.SECOND_MORE_SINGULAR,
                                       Relation.EQUIVALENT)))
    return out
