from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pshlab.arrangement import new_arrangement, preset
from pshlab.multiplier_ideal import ideal_of
from pshlab.sequence import (
    adjacent_violations,
    build_sequence,
    check_subsequence,
    entry,
    monotonicity_report,
    pattern_violations,
    resolve_claims,
    verify_paper,
)
from pshlab.singularity import (
    Relation,
    class_of_ideal,
    class_of_weight,
    compare,
    more_singular_or_equal,
)

THEOREM1 = preset("theorem1")


def test_build_sequence_classes():
    entries = build_sequence(THEOREM1, 5)
    gammas = [e.cls.gamma[0] for e in entries]
    assert gammas == [0, Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), Fraction(3, 5)]
    assert entries[3].cls.delta == Fraction(1, 4)
    for e in entries:
        assert e.ideal == ideal_of(THEOREM1, e.m)
        assert e.cls == class_of_ideal(THEOREM1, e.ideal, e.m)


def test_build_sequence_presets():
    smooth = build_sequence(preset("smooth"), 8)
    assert all(e.cls.gamma == (Fraction(1),) and e.cls.delta == 0 for e in smooth)
    point = build_sequence(preset("point"), 4)
    assert [e.cls.delta for e in point] == [0, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]


def test_adjacent_violations():
    assert adjacent_violations(THEOREM1, 5) == [(3, 4)]
    assert adjacent_violations(preset("smooth"), 40) == []
    assert adjacent_violations(preset("point"), 40) == []
    with pytest.raises(ValueError):
        adjacent_violations(THEOREM1, 1)


def test_adjacent_violations_are_exactly_3k_to_3k_plus_1():
    got = adjacent_violations(THEOREM1, 40)
    assert got == [(3 * k, 3 * k + 1) for k in range(1, 14)]


LINE_CHOICES = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, ("0", "1"))]


@st.composite
def arrangements(draw):
    lines = draw(st.lists(st.sampled_from(LINE_CHOICES), max_size=4,
                          unique=True))
    weights = draw(st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=7),
        min_size=len(lines), max_size=len(lines)))
    mass = draw(st.fractions(min_value=0, max_value=2, max_denominator=5))
    return new_arrangement(lines, weights, mass)


@settings(max_examples=100, derandomize=True)
@given(arrangements(),
       st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True)
       .map(sorted),
       st.integers(2, 30))
def test_walk_matches_pairwise_reference(arr, indices, m_max):
    # brute-force reference from directed checks alone, without compare()
    def failures(entries):
        return [(a.m, b.m) for a, b in zip(entries, entries[1:])
                if not more_singular_or_equal(b.cls, a.cls)]

    sub = [entry(arr, m) for m in indices]
    fails = failures(sub)
    strictly = all(more_singular_or_equal(b.cls, a.cls)
                   and not more_singular_or_equal(a.cls, b.cls)
                   for a, b in zip(sub, sub[1:]))
    verdict = check_subsequence(arr, indices)
    assert verdict.decreasing == (not fails)
    assert verdict.strictly == strictly
    assert verdict.first_failure == (fails[0] if fails else None)

    adjacent = failures([entry(arr, m) for m in range(1, m_max + 1)])
    assert adjacent_violations(arr, m_max) == adjacent
    assert monotonicity_report(arr, m_max).violations == adjacent


def test_pattern_violations():
    checks = pattern_violations(THEOREM1, 10)
    assert all(c.is_violation for c in checks)
    assert checks[0].pair == (3, 5)
    # independent floor computation for k = 2 and k = 10
    for k in (2, 10):
        lo, hi = entry(THEOREM1, 3 * k), entry(THEOREM1, 3 * k + 2)
        assert lo.cls.gamma[0] == Fraction(2 * 3 * k // 3, 3 * k)
        assert hi.cls.gamma[0] == Fraction(2 * (3 * k + 2) // 3, 3 * k + 2)
        assert hi.cls.gamma[0] < lo.cls.gamma[0]


def test_check_subsequence_pow2():
    verdict = check_subsequence(THEOREM1, [2 ** k for k in range(1, 11)])
    assert verdict.decreasing and verdict.strictly
    assert verdict.converges_to_weight


def test_check_subsequence_linear_growth():
    verdict = check_subsequence(THEOREM1, [3 * k + 2 for k in range(0, 51)])
    assert verdict.decreasing and verdict.strictly and verdict.converges_to_weight
    for k in (0, 1, 7, 50):
        assert entry(THEOREM1, 3 * k + 2).cls.gamma[0] == Fraction(2 * k + 1, 3 * k + 2)


def test_check_subsequence_failure():
    verdict = check_subsequence(THEOREM1, [1, 2, 3, 4])
    assert not verdict.decreasing
    assert verdict.first_failure == (3, 4)
    with pytest.raises(ValueError):
        check_subsequence(THEOREM1, [4, 2])
    with pytest.raises(ValueError):
        check_subsequence(THEOREM1, [])


def test_pow2_alternating_pattern():
    # even exponents 4^j carry the floor 2*(4^j - 1)/3 plus a residual
    # maximal-ideal power; odd exponents have no residual.  Leaving an even
    # exponent the line exponent strictly increases; leaving an odd one it
    # stays equal and the radial part absorbs the difference.
    for j in range(1, 6):
        m = 4 ** j
        even = entry(THEOREM1, m)
        assert 3 * even.ideal.b[0] == 2 * (m - 1)
        assert even.ideal.p == 1 and even.cls.delta == Fraction(1, m)
        odd = entry(THEOREM1, 2 * m)
        assert odd.ideal.p == 0 and odd.cls.delta == 0
        assert odd.cls.gamma[0] > even.cls.gamma[0]  # strict increase
        next_even = entry(THEOREM1, 4 * m)
        assert next_even.cls.gamma[0] == odd.cls.gamma[0]  # equal exponents
        assert next_even.cls.delta == Fraction(1, 4 * m)


def test_window_violation_density():
    # one adjacent violation in every window {3k, ..., 3k+5}
    violations = set(adjacent_violations(THEOREM1, 2000))
    for k in range(1, 601):
        window = {(m, m + 1) for m in range(3 * k, 3 * k + 5)}
        assert window & violations


def test_classes_ignore_additive_constants():
    # the class is a function of the ideal data alone, so any renormalizing
    # constants cancel; equal descriptors give equal classes
    e = entry(THEOREM1, 4)
    again = class_of_ideal(THEOREM1, ideal_of(THEOREM1, 4), 4)
    assert e.cls == again
    assert compare(e.cls, again).relation is Relation.EQUIVALENT


def test_monotonicity_report_renders():
    # the md and csv bytes are pinned in test_cli.py
    report = monotonicity_report(THEOREM1, 7, indices=[2, 4, 8])
    data = report.to_dict()
    assert data["violations"] == [[3, 4], [6, 7]]


def test_verify_paper_all_claims():
    report = verify_paper()
    assert report.all_passed
    assert len(report.results) == 8


def test_verify_paper_subset_and_aliases():
    assert resolve_claims(["prop2"]) == ["pow2-subsequence-decreasing"]
    report = verify_paper(["prop2"])
    assert report.all_passed and len(report.results) == 1
    with pytest.raises(KeyError):
        resolve_claims(["nonsense"])


def test_convergence_certificate_on_weight_limit():
    target = class_of_weight(THEOREM1)
    last = entry(THEOREM1, 152).cls  # 3k+2 for k = 50
    assert max(abs(a - g) for a, g in zip(target.gamma, last.gamma)) <= Fraction(1, 152)
    assert last.delta <= Fraction(2, 152)
