import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pshlab.arrangement import MAX_RATIONAL_BITS, new_arrangement, preset
from pshlab.multiplier_ideal import (
    IdealDescriptor,
    contains,
    generator_strings,
    generators,
    ideal_of,
    is_trivial,
)
from pshlab.polynomials import BivariatePolynomial as P
from pshlab.polynomials import ZeroPolynomialError
from pshlab.singularity import SingularityClass, class_of_ideal

THEOREM1 = preset("theorem1")
X, Y = P.x(), P.y()
XYZ = X * Y * (X + Y)


def test_theorem1_ideals():
    assert ideal_of(THEOREM1, 2) == IdealDescriptor(b=(1, 1, 1), e=3, p=0)
    assert ideal_of(THEOREM1, 3) == IdealDescriptor(b=(2, 2, 2), e=5, p=0)
    assert ideal_of(THEOREM1, 4) == IdealDescriptor(b=(2, 2, 2), e=7, p=1)
    assert ideal_of(THEOREM1, 5) == IdealDescriptor(b=(3, 3, 3), e=9, p=0)
    assert is_trivial(ideal_of(THEOREM1, Fraction(1, 2)))


def test_preset_ideals():
    point = preset("point")
    for m in range(1, 7):
        ideal = ideal_of(point, m)
        assert ideal == IdealDescriptor(b=(), e=m - 1, p=m - 1)
    smooth = preset("smooth")
    for m in range(1, 7):
        ideal = ideal_of(smooth, m)
        assert ideal == IdealDescriptor(b=(m,), e=m - 1, p=0)


def test_trivial_cases():
    assert is_trivial(IdealDescriptor(b=(), e=-1, p=0))
    assert is_trivial(IdealDescriptor(b=(0, 0), e=0, p=0))
    assert not is_trivial(ideal_of(THEOREM1, 2))
    with pytest.raises(ValueError):
        ideal_of(THEOREM1, -1)


def test_generators_match_hand_expansion():
    # frozen expansions of x*y*(x+y) powers
    assert generators(THEOREM1, ideal_of(THEOREM1, 2)) == [P({(2, 1): 1, (1, 2): 1})]
    assert generators(THEOREM1, ideal_of(THEOREM1, 3)) == [
        P({(4, 2): 1, (3, 3): 2, (2, 4): 1})
    ]
    assert generators(THEOREM1, ideal_of(THEOREM1, 4)) == [
        P({(5, 2): 1, (4, 3): 2, (3, 4): 1}),
        P({(4, 3): 1, (3, 4): 2, (2, 5): 1}),
    ]
    assert generators(THEOREM1, ideal_of(THEOREM1, 5)) == [
        P({(6, 3): 1, (5, 4): 3, (4, 5): 3, (3, 6): 1})
    ]
    trivial = ideal_of(THEOREM1, Fraction(1, 2))
    assert generators(THEOREM1, trivial) == [P.one()]


def test_generator_strings():
    assert generator_strings(THEOREM1, ideal_of(THEOREM1, 4)) == [
        "(x*y*(x+y))^2 * x",
        "(x*y*(x+y))^2 * y",
    ]
    assert generator_strings(THEOREM1, ideal_of(THEOREM1, 2)) == ["x*y*(x+y)"]
    smooth = preset("smooth")
    assert generator_strings(smooth, ideal_of(smooth, 3)) == ["x^3"]
    point = preset("point")
    assert generator_strings(point, ideal_of(point, 3)) == ["x^2", "x * y", "y^2"]


def test_contains_examples():
    c4 = ideal_of(THEOREM1, 4)
    assert contains(THEOREM1, c4, XYZ ** 2 * X)
    assert contains(THEOREM1, c4, XYZ ** 2 * Y)
    # x^2 y^2 z vanishes only to order 1 along x + y = 0
    x2y2z = P({(3, 2): 1, (2, 3): 1})
    assert not contains(THEOREM1, ideal_of(THEOREM1, 3), x2y2z)
    assert not contains(THEOREM1, c4, P.one())
    with pytest.raises(ZeroPolynomialError):
        contains(THEOREM1, c4, P.zero())


def test_generators_lie_in_ideal():
    for c in (2, 3, 4, 5, Fraction(7, 2)):
        ideal = ideal_of(THEOREM1, c)
        gens = generators(THEOREM1, ideal)
        assert len(gens) == ideal.p + 1
        for g in gens:
            assert contains(THEOREM1, ideal, g)


small_weight = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=100, derandomize=True)
@given(small_weight, small_weight,
       st.fractions(min_value=0, max_value=20, max_denominator=8),
       st.fractions(min_value=0, max_value=20, max_denominator=8))
def test_monotonicity_in_c(a1, a2, c1, c2):
    arr = new_arrangement([(1, 0), (0, 1)], [a1, a2], "1/3")
    lo, hi = sorted((c1, c2))
    ideal_lo, ideal_hi = ideal_of(arr, lo), ideal_of(arr, hi)
    assert all(bh >= bl for bl, bh in zip(ideal_lo.b, ideal_hi.b))
    assert sum(ideal_hi.b) + ideal_hi.p >= sum(ideal_lo.b) + ideal_lo.p


@settings(max_examples=100, derandomize=True)
@given(small_weight, small_weight,
       st.fractions(min_value=0, max_value=20, max_denominator=12))
def test_two_lines_are_simple_crossings(a1, a2, c):
    # without a point mass, two lines resolve with no extra maximal-ideal power
    arr = new_arrangement([(1, 0), (0, 1)], [a1, a2], 0)
    assert ideal_of(arr, c).p == 0


def test_membership_equals_brute_force_over_monomials():
    # exhaustive cross-check of the divisibility route against the raw
    # order/multiplicity conditions defining the pushforward
    for c in (1, Fraction(3, 2), 2, 3, 4):
        ideal = ideal_of(THEOREM1, c)
        for alpha in range(0, 7):
            for beta in range(0, 7 - alpha):
                f = P.monomial(alpha, beta)
                orders = (alpha, beta, 0)  # vanishing along x, y, x+y
                direct = all(o >= b for o, b in zip(orders, ideal.b)) \
                    and alpha + beta >= ideal.e
                assert contains(THEOREM1, ideal, f) == direct


toric_weight = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=300, derandomize=True)
@given(toric_weight, toric_weight, toric_weight,
       st.fractions(min_value=0, max_value=6, max_denominator=8),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                min_size=1, max_size=4, unique=True),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=4, max_size=4))
def test_contains_matches_howald_toric_oracle(a1, a2, d, c, monomials,
                                              scalars):
    # Howald: for the toric weight a1 log|x| + a2 log|y| + d log|z|,
    # x^u y^v lies in J(c*phi) iff (u+1, v+1) lies strictly above c times
    # each facet: u+1 > c*a1, v+1 > c*a2 and u+v+2 > c*(a1+a2+d).  The
    # ideal is monomial, so a sum of monomials is a member iff each is.
    arr = new_arrangement([(1, 0), (0, 1)], [a1, a2], d)
    ideal = ideal_of(arr, c)
    oracle = [u + 1 > c * a1 and v + 1 > c * a2 and u + v + 2 > c * (a1 + a2 + d)
              for u, v in monomials]
    for (u, v), want in zip(monomials, oracle):
        assert contains(arr, ideal, P.monomial(u, v)) == want
    f = P({mono: (re or 1, im) for mono, (re, im) in zip(monomials, scalars)})
    assert contains(arr, ideal, f) == all(oracle)


NONPRIMITIVE = (1, ("1/2", "1/2"))  # x + (1+i)/2*y; integer form content 1+i
OTHER_LINES = [(1, 0), (0, 1), (1, 1), (1, ("0", "-2")), (3, ("1", "-1/3"))]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(OTHER_LINES), max_size=2, unique=True),
       st.lists(st.fractions(min_value="1/6", max_value="3/2",
                             max_denominator=6), min_size=3, max_size=3),
       st.fractions(min_value=0, max_value=1, max_denominator=4),
       st.integers(1, 4), st.integers(1, 4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       min_size=1, max_size=3))
def test_subadditivity_and_nonprimitive_lines(others, weights, mass, m1, m2,
                                              cofactor):
    # Demailly-Ein-Lazarsfeld: J((m1+m2) phi) lies in J(m1 phi) J(m2 phi),
    # whose product descriptor is (b1 + b2, p1 + p2).
    lines = [NONPRIMITIVE] + others
    arr = new_arrangement(lines, weights[:len(lines)], mass)
    big, lo, hi = ideal_of(arr, m1 + m2), ideal_of(arr, m1), ideal_of(arr, m2)
    b = tuple(u + v for u, v in zip(lo.b, hi.b))
    product = IdealDescriptor(b=b, e=sum(b) + lo.p + hi.p, p=lo.p + hi.p)
    r = P({k: v for k, v in cofactor.items() if v != (0, 0)}) + P.one()
    for g in generators(arr, big):
        assert contains(arr, product, g)
        assert contains(arr, big, g * r)
        if big.b[0]:
            # remove one factor of the non-primitive line, keep the degree
            (h,) = g.homogeneous_components()
            q = h.quotient(arr.lines[0].integer_form)
            assert q is not None
            assert not contains(arr, big, X * q.to_polynomial())


CAP = 2 ** MAX_RATIONAL_BITS - 1  # the largest numerator or denominator
any_weight = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(0, CAP), st.integers(CAP // 2, CAP)))


@settings(max_examples=80, derandomize=True)
@given(st.lists(any_weight, min_size=1, max_size=4), any_weight,
       st.integers(0, 60),
       st.fractions(min_value=0, max_value=60, max_denominator=50))
def test_ideal_of_matches_fraction_floors(weights, mass, m, c):
    # the definition: b_i = floor(c*a_i), e = floor(c*T) - 1, with c as an
    # int, a Fraction or a "p/q" string, on zero, mixed and 1000-bit weights
    arr = new_arrangement([(1, k) for k in range(len(weights))], weights,
                          mass)
    for given_c, exact in ((m, Fraction(m)), (c, c),
                           (f"{c.numerator}/{c.denominator}", c)):
        b = tuple(math.floor(exact * a) for a in weights)
        e = math.floor(exact * arr.total_mass) - 1
        ideal = ideal_of(arr, given_c)
        assert ideal == IdealDescriptor(b=b, e=e, p=max(0, e - sum(b)))
    if m:
        ideal = ideal_of(arr, m)
        cls = class_of_ideal(arr, ideal, m)
        assert cls == class_of_ideal(arr, ideal, Fraction(m))
        assert cls == SingularityClass(
            key=arr.key, gamma=[Fraction(v, m) for v in ideal.b],
            delta=Fraction(ideal.p, m))
