from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pshlab.gaussian import ONE, GaussianRational
from pshlab.polynomials import BivariatePolynomial as P
from pshlab.polynomials import HomogeneousForm
from pshlab.polynomials import ZeroPolynomialError

X, Y = P.x(), P.y()


def test_gaussian_arithmetic():
    a = GaussianRational.of(("1/2", "1/3"))
    b = GaussianRational.of(2)
    assert (a * b).re == 1 and (a * b).im == Fraction(2, 3)
    assert (a * a.inverse()).re == 1 and (a * a.inverse()).im == 0
    assert a.conjugate().im == Fraction(-1, 3)
    assert complex(b) == 2 + 0j
    assert str(GaussianRational.of("2/3")) == "2/3"


def test_multiplication_and_expansion():
    xyz = X * Y * (X + Y)
    assert xyz == P({(2, 1): 1, (1, 2): 1})
    assert xyz ** 2 == P({(4, 2): 1, (3, 3): 2, (2, 4): 1})
    assert (xyz ** 2).degree() == 6
    assert (xyz ** 2).multiplicity() == 6


def test_multiplicity_and_degree():
    f = P({(1, 0): 1, (3, 2): "2/3"})
    assert f.multiplicity() == 1
    assert f.degree() == 5
    assert P.zero().degree() == -1
    with pytest.raises(ZeroPolynomialError):
        P.zero().multiplicity()


def _form(poly: P) -> HomogeneousForm:
    (component,) = poly.homogeneous_components()
    return component


def test_divide_by_y():
    y = _form(Y)
    assert _form(X * Y + Y ** 2).quotient(y).to_polynomial() == X + Y
    assert _form(X * Y ** 3).quotient(y, 3).to_polynomial() == X
    assert _form(X * X).quotient(y) is None
    assert _form(X * Y ** 2).quotient(y, 3) is None


def test_divide_by_general_line():
    ell = _form(X + Y)
    assert _form((X + Y) ** 3).quotient(ell).to_polynomial() == (X + Y) ** 2
    assert _form((X + Y) ** 3 * Y).quotient(ell, 3).to_polynomial() == Y
    assert _form(X * Y).quotient(ell) is None
    assert _form((X + Y) ** 2 * X).quotient(ell, 3) is None
    assert _form(X ** 2).quotient(_form(X)).to_polynomial() == X
    assert _form(X * Y).quotient(_form(X + Y * 2)) is None


def test_divide_by_line_with_gaussian_content():
    # x + (1+i)/2*y has integer form 2x + (1+i)y, whose content is 1+i
    q = GaussianRational.of(("1/2", "1/2"))
    ell = P({(1, 0): 1, (0, 1): q})
    for f in (P.one(), X, Y ** 2 * 3, X * Y + Y ** 2, X * Y + Y ** 2 * q):
        for k in (1, 2, 3):
            g = f * ell ** k
            assert _form(g).quotient(_form(ell), k).to_polynomial() == f
            assert _form(g).quotient(_form(ell * 2), k).to_polynomial() \
                == f * GaussianRational.of(Fraction(1, 2 ** k))
        divisible = _form(f * ell).quotient(_form(ell), 2) is not None
        assert divisible == _vanishes_at(f, q, GaussianRational.of(-1))
    assert not _vanishes_at(X * Y + Y ** 2, q, GaussianRational.of(-1))


def test_form_products_and_powers():
    q = GaussianRational.of(("1/3", "-2"))
    ell = _form(X + Y * q)
    assert ell.power(4).to_polynomial() == (X + Y * q) ** 4
    assert list((ell * _form(X * Y)).to_polynomial().terms()) == _ref_terms(
        _ref_mul({(1, 0): ONE, (0, 1): q}, {(1, 1): ONE}))
    assert ell.times_monomial(2, 1).to_polynomial() == ell.to_polynomial() * X ** 2 * Y
    assert ell.power(0) == _form(P.one())
    assert HomogeneousForm.of(2, {0: "2/4", 2: 1}) == HomogeneousForm(2, ((1, 0), (0, 0), (2, 0)), 2)
    with pytest.raises(ValueError):
        _form(X * Y).power(2)


def test_term_list_round_trip():
    f = P({(2, 1): ("1/2", "1/3"), (0, 0): 4})
    assert P.from_term_list(f.to_term_list()) == f


def test_str_forms():
    assert str(P.one()) == "1"
    assert str(X * Y) == "x*y"
    assert str(P({(2, 0): "2/3"})) == "(2/3)*x^2"


small_gauss = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
small_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), small_gauss,
    min_size=0, max_size=6,
)
small_poly = small_terms.map(P)


# The reference: sparse dicts {(a, b): GaussianRational}, no zero stored,
# with the term-by-term arithmetic that BivariatePolynomial once had.

def _ref(terms) -> dict:
    return {key: c for key, c in terms.items() if not c.is_zero}


def _ref_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for key, c in g.items():
        out[key] = out[key] + c if key in out else c
    return _ref(out)


def _ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return _ref(out)


def _ref_terms(f: dict) -> list:
    """Graded order: total degree, then descending x power."""
    return sorted(f.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))


def _power(z: GaussianRational, n: int) -> GaussianRational:
    out = ONE
    for _ in range(n):
        out = out * z
    return out


def _value(terms, x: GaussianRational, y: GaussianRational) -> GaussianRational:
    total = GaussianRational()
    for (a, b), c in terms:
        total = total + c * _power(x, a) * _power(y, b)
    return total


def _vanishes_at(f: P, x: GaussianRational, y: GaussianRational) -> bool:
    return _value(f.terms(), x, y).is_zero


def _form_terms(form: HomogeneousForm) -> list:
    """The terms of a form as Gaussian rationals, without BivariatePolynomial."""
    return [((form.degree - j, j),
             GaussianRational(Fraction(re, form.den), Fraction(im, form.den)))
            for j, (re, im) in enumerate(form.coeffs)]


@settings(max_examples=150, derandomize=True)
@given(small_terms, small_terms, small_gauss, st.integers(0, 3))
def test_arithmetic_matches_sparse_reference(f, g, s, n):
    rf, rg = _ref(f), _ref(g)
    ref_pow = {(0, 0): ONE}
    for _ in range(n):
        ref_pow = _ref_mul(ref_pow, rf)
    cases = [
        (P(f) + P(g), _ref_add(rf, rg)),
        (P(f) - P(g), _ref_add(rf, {key: -c for key, c in rg.items()})),
        (-P(f), _ref({key: -c for key, c in rf.items()})),
        (P(f) * P(g), _ref_mul(rf, rg)),
        (P(f) * s, _ref_mul(rf, {(0, 0): s})),
        (s * P(f), _ref_mul({(0, 0): s}, rf)),
        (3 * P(f), _ref_mul(rf, {(0, 0): GaussianRational.of(3)})),
        (P(f) ** n, ref_pow),
    ]
    for poly, ref in cases:
        assert list(poly.terms()) == _ref_terms(ref)
        assert poly.degree() == max((a + b for a, b in ref), default=-1)
        if ref:
            assert poly.multiplicity() == min(a + b for a, b in ref)
        else:
            assert poly.is_zero
        # built by arithmetic or from the terms, equal polynomials agree
        assert poly == P(ref) and hash(poly) == hash(P(ref))
    assert (P(f) == P(g)) == (rf == rg)
    assert P(f) + P(g) - P(g) == P(f)


gauss_int = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
linear_int = st.tuples(gauss_int, gauss_int).map(
    lambda pair: HomogeneousForm(1, pair))


@settings(max_examples=150, derandomize=True)
@given(st.integers(0, 4).flatmap(
           lambda d: st.lists(small_gauss, min_size=d + 1, max_size=d + 1)),
       linear_int, linear_int, gauss_int, gauss_int)
def test_substitute_matches_evaluation(coeffs, fx, fy, alpha, beta):
    form = HomogeneousForm.of(len(coeffs) - 1, dict(enumerate(coeffs)))
    alpha, beta = GaussianRational.of(alpha), GaussianRational.of(beta)
    at = [_value(_form_terms(lin), alpha, beta) for lin in (fx, fy)]
    got = form.substitute(fx, fy)
    assert got.degree == form.degree
    assert _value(_form_terms(got), alpha, beta) == _value(_form_terms(form), *at)
    with pytest.raises(ValueError):
        form.substitute(fx, HomogeneousForm.of(1, {0: "1/2"}))


@settings(max_examples=150, derandomize=True)
@given(small_poly, small_gauss, small_gauss, st.integers(1, 3))
def test_division_inverts_multiplication(f, cx, cy, k):
    if cx.is_zero and cy.is_zero:
        cx = GaussianRational.of(1)
    ell = P({(1, 0): cx, (0, 1): cy})
    line = _form(ell)
    g = f * ell ** k
    quotients = [h.quotient(line, k) for h in g.homogeneous_components()]
    assert sum((q.to_polynomial() for q in quotients), P.zero()) == f
    # one more factor divides iff the quotient vanishes on the line
    for h, q in zip(g.homogeneous_components(), quotients):
        more = h.quotient(line, k + 1)
        assert (more is not None) == _vanishes_at(q.to_polynomial(), cy, -cx)
        if more is not None:
            assert more.to_polynomial() * ell ** (k + 1) == h.to_polynomial()


@settings(max_examples=150, derandomize=True)
@given(small_poly, small_poly)
def test_evaluate_is_ring_morphism(f, g):
    z = (0.3 + 0.7j, -0.2 + 0.4j)
    lhs = (f * g).evaluate(*z)
    rhs = f.evaluate(*z) * g.evaluate(*z)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs) + abs(rhs))
