import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pshlab.arrangement import new_arrangement, preset
from pshlab.multiplier_ideal import ideal_of
from pshlab.sequence import entry
from pshlab.singularity import (
    ArrangementMismatchError,
    Relation,
    SingularityClass,
    boundedness_probe,
    class_of_ideal,
    class_of_weight,
    compare,
    directed_violation,
    generic_rays,
    lelong,
    more_singular_or_equal,
)

THEOREM1 = preset("theorem1")


def _cls(m: int) -> SingularityClass:
    return entry(THEOREM1, m).cls


def test_class_of_weight():
    c = class_of_weight(THEOREM1)
    assert c.gamma == (Fraction(2, 3),) * 3 and c.delta == 0
    assert class_of_weight(preset("point")).delta == 1
    assert class_of_weight(preset("smooth")).gamma == (Fraction(1),)


def test_class_of_ideal_paper_values():
    assert _cls(3).gamma == (Fraction(2, 3),) * 3 and _cls(3).delta == 0
    assert _cls(4).gamma == (Fraction(1, 2),) * 3 and _cls(4).delta == Fraction(1, 4)
    assert _cls(5).gamma == (Fraction(3, 5),) * 3 and _cls(5).delta == 0
    assert _cls(8).gamma == (Fraction(5, 8),) * 3 and _cls(8).delta == 0
    assert _cls(16).gamma == (Fraction(5, 8),) * 3 and _cls(16).delta == Fraction(1, 16)


def test_class_of_ideal_rational_m():
    ideal = ideal_of(THEOREM1, Fraction(7, 2))
    c = class_of_ideal(THEOREM1, ideal, Fraction(7, 2))
    assert c.gamma == (Fraction(2) / Fraction(7, 2),) * 3
    with pytest.raises(ValueError):
        class_of_ideal(THEOREM1, ideal, 0)


def test_directed_checks():
    assert not more_singular_or_equal(_cls(4), _cls(3))
    assert more_singular_or_equal(_cls(3), _cls(5))
    assert not more_singular_or_equal(_cls(5), _cls(3))
    assert more_singular_or_equal(_cls(8), _cls(4))
    c = _cls(6)
    assert more_singular_or_equal(c, c)


def test_witness_content():
    w = directed_violation(_cls(4), _cls(3))
    assert w is not None and w.kind == "gamma"
    assert (w.first, w.second) == (Fraction(1, 2), Fraction(2, 3))
    assert str(w) == "gamma[0]: 1/2 < 2/3"


def test_compare_variants():
    r = compare(_cls(4), _cls(3))
    assert r.relation is Relation.SECOND_MORE_SINGULAR
    assert r.witnesses[0].kind == "gamma"
    assert compare(_cls(3), _cls(3)).relation is Relation.EQUIVALENT
    arr2 = new_arrangement([(1, 0), (0, 1)], [1, 1])
    a = SingularityClass(key=arr2.key, gamma=(Fraction(1), Fraction(0)), delta=Fraction(0))
    b = SingularityClass(key=arr2.key, gamma=(Fraction(0), Fraction(1)), delta=Fraction(0))
    r = compare(a, b)
    assert r.relation is Relation.INCOMPARABLE
    assert len(r.witnesses) == 2


def test_arrangement_mismatch():
    other = new_arrangement([(1, 0)], [1])
    with pytest.raises(ArrangementMismatchError):
        more_singular_or_equal(_cls(3), class_of_weight(other))


def test_lelong_values():
    assert lelong(_cls(3)) == 2
    assert lelong(class_of_weight(THEOREM1)) == 2
    assert lelong(_cls(4)) == Fraction(7, 4)


def test_serialization():
    c = _cls(4)
    data = c.to_dict()
    assert data == {"gamma": ["1/2", "1/2", "1/2"], "delta": "1/4"}


half_steps = st.fractions(min_value=0, max_value=3, max_denominator=4)
random_class = st.tuples(half_steps, half_steps, half_steps, half_steps).map(
    lambda v: SingularityClass(key=THEOREM1.key, gamma=v[:3], delta=v[3])
)


@settings(max_examples=150, derandomize=True)
@given(random_class, random_class, random_class)
def test_partial_order_properties(a, b, c):
    assert more_singular_or_equal(a, a)
    if more_singular_or_equal(a, b) and more_singular_or_equal(b, c):
        assert more_singular_or_equal(a, c)
    if more_singular_or_equal(a, b) and more_singular_or_equal(b, a):
        assert compare(a, b).relation is Relation.EQUIVALENT


@settings(max_examples=100, derandomize=True)
@given(random_class, random_class)
def test_compare_consistent_with_primitives(a, b):
    r = compare(a, b).relation
    f, rv = more_singular_or_equal(a, b), more_singular_or_equal(b, a)
    expected = {
        (True, True): Relation.EQUIVALENT,
        (True, False): Relation.FIRST_MORE_SINGULAR,
        (False, True): Relation.SECOND_MORE_SINGULAR,
        (False, False): Relation.INCOMPARABLE,
    }[(f, rv)]
    assert r is expected


def _random_arrangement(rng: random.Random):
    from pshlab.arrangement import Line
    from pshlab.gaussian import GaussianRational

    k = rng.randint(0, 6)
    lines = []
    seen = set()
    while len(lines) < k:
        raw = [rng.randint(-2, 2) for _ in range(4)]
        cx = GaussianRational(Fraction(raw[0]), Fraction(raw[1]))
        cy = GaussianRational(Fraction(raw[2]), Fraction(raw[3]))
        if cx.is_zero and cy.is_zero:
            continue
        line = Line.normalized(cx, cy)
        if line in seen:
            continue
        seen.add(line)
        lines.append(line)
    weights = [Fraction(rng.randint(0, 36), 12) for _ in lines]
    mass = Fraction(rng.randint(0, 24), 12)
    return new_arrangement(lines, weights, mass)


def test_lelong_sandwich_quick():
    # nu(phi) - 2/m <= nu(phi_m) <= nu(phi); the full m-range runs in the
    # acceptance suite
    rng = random.Random(11)
    for _ in range(10):
        arr = _random_arrangement(rng)
        target = lelong(class_of_weight(arr))
        for m in list(range(1, 30)) + [97, 512]:
            nu_m = lelong(entry(arr, m).cls)
            assert target - Fraction(2, m) <= nu_m <= target


def test_limit_convergence_bounds():
    rng = random.Random(12)
    for _ in range(10):
        arr = _random_arrangement(rng)
        bound_num = 2 if len(arr.lines) <= 3 else len(arr.lines) - 1
        for m in (1, 2, 3, 7, 60, 481):
            cls = entry(arr, m).cls
            for a, g in zip(arr.coeffs, cls.gamma):
                assert 0 <= a - g <= Fraction(1, m)
            assert abs(cls.delta - arr.point_mass) <= Fraction(bound_num, m)


def _reference_rays(arr, count, seed):
    """The rays of `generic_rays` as drawn before its bound methods were
    hoisted: four `gauss` values per draw, the squared norm added in order
    (as `sum` adds floats before Python 3.12), kept while more than 0.05
    from every line."""
    rng = random.Random(seed)
    rays = []
    while len(rays) < count:
        parts = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm2 = 0.0
        for v in parts:
            norm2 += v * v
        norm = math.sqrt(norm2)
        if norm == 0.0:
            continue
        u = (complex(parts[0], parts[1]) / norm,
             complex(parts[2], parts[3]) / norm)
        dist = min((line.modulus(*u) for line in arr.lines), default=1.0)
        if dist > 0.05:
            rays.append(u)
    return rays


# lines x, y, x +- y and x +- 2y: the 0.05 filter rejects 10 to 17 draws
# for 1,000 rays at seeds 0, 1 and 42
SIX_LINES = new_arrangement([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2)],
                            [Fraction(1, 7)] * 6)


@pytest.mark.parametrize("arr", [THEOREM1, new_arrangement([], [], 1),
                                 SIX_LINES],
                         ids=["theorem1", "no-lines", "six-lines"])
def test_generic_rays_match_the_reference_bit_for_bit(arr):
    for seed in (0, 1, 42):
        for count in (1, 8, 1000):
            assert generic_rays(arr, count, seed) == _reference_rays(
                arr, count, seed)


def test_probe_matches_comparator_on_paper_pairs():
    assert not boundedness_probe(THEOREM1, _cls(4), _cls(3))
    assert boundedness_probe(THEOREM1, _cls(3), _cls(4))
    assert boundedness_probe(THEOREM1, _cls(3), _cls(5))
    assert boundedness_probe(THEOREM1, _cls(8), _cls(4))
    assert boundedness_probe(THEOREM1, _cls(3), _cls(3))


def test_probe_with_huge_line_coefficient():
    # x + 10^300 y once raised OverflowError; its verdicts are those of x + 3y
    weights = [Fraction(1, 2), Fraction(3, 4)]
    huge = new_arrangement([(1, 0), (1, 10 ** 300)], weights)
    small = new_arrangement([(1, 0), (1, 3)], weights)
    for a in range(1, 7):
        for b in range(1, 7):
            verdicts = [boundedness_probe(arr, entry(arr, a).cls,
                                          entry(arr, b).cls)
                        for arr in (huge, small)]
            assert verdicts[0] == verdicts[1], (a, b)


# -- integer comparison against a plain-Fraction reference ------------------


def _ref_violation(g1, d1, g2, d2):
    for i, (a, b) in enumerate(zip(g1, g2)):
        if a < b:
            return ("gamma", i, a, b)
    t1, t2 = sum(g1, Fraction(0)) + d1, sum(g2, Fraction(0)) + d2
    return ("total", None, t1, t2) if t1 < t2 else None


def _ref_compare(x, y):
    forward = _ref_violation(x[0], x[1], y[0], y[1])
    reverse = _ref_violation(y[0], y[1], x[0], x[1])
    if forward is None and reverse is None:
        return Relation.EQUIVALENT, ()
    if forward is None:
        return Relation.FIRST_MORE_SINGULAR, (reverse,)
    if reverse is None:
        return Relation.SECOND_MORE_SINGULAR, (forward,)
    return Relation.INCOMPARABLE, (forward, reverse)


exponent = st.fractions(min_value=-3, max_value=3, max_denominator=30)
theorem1_weight = st.fractions(min_value=0, max_value=3, max_denominator=9)


@st.composite
def class_with_reference(draw):
    """A class over theorem1's lines and its exponents as plain Fractions."""
    source = draw(st.sampled_from(["constructor", "weight", "ideal"]))
    if source == "constructor":
        gamma = tuple(draw(st.lists(exponent, min_size=3, max_size=3)))
        delta = draw(exponent)
        return SingularityClass(key=THEOREM1.key, gamma=gamma,
                                delta=delta), (gamma, delta)
    arr = new_arrangement(THEOREM1.lines,
                          draw(st.lists(theorem1_weight, min_size=3,
                                        max_size=3)),
                          draw(theorem1_weight))
    if source == "weight":
        return class_of_weight(arr), (arr.coeffs, arr.point_mass)
    m = draw(st.integers(1, 60) | st.fractions(min_value="1/7", max_value=40,
                                               max_denominator=7))
    ideal = ideal_of(arr, m)
    m = Fraction(m)
    return class_of_ideal(arr, ideal, m), (
        tuple(Fraction(v) / m for v in ideal.b), Fraction(ideal.p) / m)


@settings(max_examples=300, derandomize=True)
@given(class_with_reference(), class_with_reference())
def test_integer_compare_matches_fraction_reference(x, y):
    (s1, r1), (s2, r2) = x, y
    assert s1.gamma == tuple(r1[0]) and s1.delta == r1[1]
    relation, witnesses = _ref_compare(r1, r2)
    got = compare(s1, s2)
    assert got.relation is relation
    assert [(w.kind, w.index, w.first, w.second) for w in got.witnesses] \
        == list(witnesses)
    assert (directed_violation(s1, s2) is None) == \
        (_ref_violation(*r1, *r2) is None)
    same = (tuple(r1[0]), r1[1]) == (tuple(r2[0]), r2[1])
    assert (s1 == s2) == same
    if same:
        assert hash(s1) == hash(s2)
    assert lelong(s1) == sum(r1[0], Fraction(0)) + r1[1]


def test_equal_classes_at_different_m_are_equal():
    c3, c6 = _cls(3), _cls(6)
    assert (c3.gamma, c3.delta) == ((Fraction(2, 3),) * 3, 0)
    assert c3 == c6 and hash(c3) == hash(c6) and len({c3, c6}) == 1
    assert c3 == SingularityClass(key=THEOREM1.key,
                                  gamma=(Fraction(4, 6),) * 3, delta=0)
    assert compare(c3, c6).relation is Relation.EQUIVALENT
    assert c3 != _cls(5)
