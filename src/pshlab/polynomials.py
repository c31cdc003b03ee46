"""Exact bivariate polynomials over Q(i).

The only nontrivial algebra the package needs is exact arithmetic, exact
division by a linear form through the origin, and the multiplicity at the
origin (lowest total degree).  `BivariatePolynomial` is the user-facing
sparse type: a dictionary mapping exponent pairs to Gaussian-rational
coefficients, zero coefficients never stored.  `HomogeneousForm` is the
kernel behind generators and membership: one homogeneous form as a dense
vector of Gaussian-integer numerators over one integer denominator, so
that products of line powers and divisions by lines run on plain Python
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .gaussian import GaussianRational, ONE

Term = tuple[int, int]
Gaussian = tuple[int, int]  # a Gaussian integer re + im*i


class ZeroPolynomialError(ValueError):
    """Raised where a nonzero polynomial is required."""


class BivariatePolynomial:
    """A polynomial in x, y with Gaussian-rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, GaussianRational] | None = None):
        clean: dict[Term, GaussianRational] = {}
        if terms:
            for (a, b), coeff in terms.items():
                coeff = GaussianRational.of(coeff)
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in term {(a, b)}")
                if not coeff.is_zero:
                    clean[(int(a), int(b))] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePolynomial":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "BivariatePolynomial":
        return cls({(a, b): GaussianRational.of(coeff)})

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls.monomial(1, 0)

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls.monomial(0, 1)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Term, GaussianRational]]:
        """Terms in graded order (total degree, then descending x power)."""
        for key in sorted(self._terms, key=lambda t: (t[0] + t[1], -t[0])):
            yield key, self._terms[key]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(a + b for a, b in self._terms)

    def multiplicity(self) -> int:
        """Vanishing order at the origin (lowest total degree)."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no multiplicity")
        return min(a + b for a, b in self._terms)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
        return BivariatePolynomial(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -c for k, c in self._terms.items()})

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            scalar = GaussianRational.of(other)
            return BivariatePolynomial({k: c * scalar for k, c in self._terms.items()})
        out: dict[Term, GaussianRational] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                prod = c1 * c2
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = BivariatePolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def homogeneous_components(self) -> list["HomogeneousForm"]:
        """The nonzero homogeneous components, by ascending degree."""
        by_degree: dict[int, dict[int, GaussianRational]] = {}
        for (a, b), coeff in self._terms.items():
            by_degree.setdefault(a + b, {})[b] = coeff
        return [HomogeneousForm.of(d, row) for d, row in sorted(by_degree.items())]

    # -- numeric evaluation -------------------------------------------

    def evaluate(self, x, y):
        """Evaluate at complex scalars or numpy arrays."""
        total = 0
        for (a, b), coeff in self._terms.items():
            total = total + complex(coeff) * (x ** a) * (y ** b)
        return total

    # -- serialization / printing --------------------------------------

    def to_term_list(self) -> list[list]:
        return [[a, b, str(c.re), str(c.im)] for (a, b), c in self.terms()]

    @classmethod
    def from_term_list(cls, data: Iterable) -> "BivariatePolynomial":
        terms: dict[Term, GaussianRational] = {}
        for item in data:
            a, b, re, im = item
            terms[(int(a), int(b))] = GaussianRational(Fraction(re), Fraction(im))
        return cls(terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for (a, b), coeff in self.terms():
            mono = "*".join(
                ([f"x^{a}" if a > 1 else "x"] if a else [])
                + ([f"y^{b}" if b > 1 else "y"] if b else [])
            )
            if not mono:
                parts.append(str(coeff))
            elif coeff == ONE:
                parts.append(mono)
            else:
                parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self})"


# -- homogeneous forms over Gaussian integers --------------------------------


def _gauss_div(a: Gaussian, b: Gaussian) -> Gaussian | None:
    """a / b in Z[i], or None if b does not divide a."""
    (ar, ai), (br, bi) = a, b
    if bi == 0:
        if ar % br or ai % br:
            return None
        return ar // br, ai // br
    n = br * br + bi * bi
    re, im = ar * br + ai * bi, ai * br - ar * bi
    if re % n or im % n:
        return None
    return re // n, im // n


def _gauss_gcd(a: Gaussian, b: Gaussian) -> Gaussian:
    """A greatest common divisor in Z[i] (Euclid with rounded quotients)."""
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


def _divide_primitive(coeffs: list[Gaussian], alpha: Gaussian,
                      beta: Gaussian) -> list[Gaussian] | None:
    """Exact quotient of a form by alpha*x + beta*y with alpha != 0
    and gcd(alpha, beta) = 1, or None if it does not divide.

    Synthetic division from the x^d end.  By Gauss's lemma over Z[i] a
    quotient by a primitive form has Gaussian-integer coefficients, so an
    inexact step already proves non-divisibility.
    """
    br, bi = beta
    out: list[Gaussian] = []
    prev_r = prev_i = 0
    for re, im in coeffs[:-1]:
        q = _gauss_div((re - br * prev_r + bi * prev_i,
                        im - br * prev_i - bi * prev_r), alpha)
        if q is None:
            return None
        out.append(q)
        prev_r, prev_i = q
    if coeffs[-1] != (br * prev_r - bi * prev_i, br * prev_i + bi * prev_r):
        return None
    return out


@dataclass(frozen=True)
class HomogeneousForm:
    """sum_j coeffs[j] * x^(degree-j) * y^j / den, a homogeneous form over
    Q(i) with Gaussian-integer numerators (re, im) and an integer den > 0.

    Build forms with `of` and the operations below, which
    keep gcd(numerators, den) = 1; in that form equal forms compare equal.
    """

    degree: int
    coeffs: tuple[Gaussian, ...]
    den: int = 1

    @classmethod
    def _reduced(cls, degree: int, coeffs: Iterable[Gaussian], den: int
                 ) -> "HomogeneousForm":
        coeffs = tuple(coeffs)
        g = math.gcd(den, *(v for c in coeffs for v in c))
        if g > 1:
            den //= g
            coeffs = tuple((re // g, im // g) for re, im in coeffs)
        return cls(degree, coeffs, den)

    @classmethod
    def of(cls, degree: int, terms: Mapping[int, object]) -> "HomogeneousForm":
        """The form sum_j terms[j] x^(degree-j) y^j, from Gaussian rationals
        (or anything `GaussianRational.of` accepts); absent j are zero."""
        values = {j: GaussianRational.of(c) for j, c in terms.items()}
        # the least common denominator leaves gcd(numerators, den) = 1
        den = math.lcm(1, *(q.denominator for c in values.values()
                            for q in (c.re, c.im)))
        coeffs = [(0, 0)] * (degree + 1)
        for j, c in values.items():
            coeffs[j] = (c.re.numerator * (den // c.re.denominator),
                         c.im.numerator * (den // c.im.denominator))
        return cls(degree, tuple(coeffs), den)

    def power(self, n: int) -> "HomogeneousForm":
        """self^n for a linear form, expanded by the binomial theorem."""
        if self.degree != 1:
            raise ValueError("power expands linear forms only")
        (ar, ai), (br, bi) = self.coeffs
        coeffs = []
        binom = 1
        pr, pi = 1, 0  # beta^j
        for j in range(n + 1):
            coeffs.append((binom * pr, binom * pi))
            binom = binom * (n - j) // (j + 1)
            pr, pi = pr * br - pi * bi, pr * bi + pi * br
        if (ar, ai) != (1, 0):  # times alpha^(n-j), from the y^n end down
            sr, si = 1, 0
            for j in range(n, -1, -1):
                cr, ci = coeffs[j]
                coeffs[j] = (cr * sr - ci * si, cr * si + ci * sr)
                sr, si = sr * ar - si * ai, sr * ai + si * ar
        return HomogeneousForm._reduced(n, coeffs, self.den ** n)

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        p, q = self.coeffs, other.coeffs
        out_r = [0] * (len(p) + len(q) - 1)
        out_i = [0] * len(out_r)
        for i, (a, b) in enumerate(p):
            if not (a or b):
                continue
            for j, (c, d) in enumerate(q, i):
                out_r[j] += a * c - b * d
                out_i[j] += a * d + b * c
        return HomogeneousForm._reduced(
            self.degree + other.degree, zip(out_r, out_i),
            self.den * other.den)

    def times_monomial(self, u: int, v: int) -> "HomogeneousForm":
        """x^u * y^v times the form."""
        zero = ((0, 0),)
        return HomogeneousForm(self.degree + u + v,
                               zero * v + self.coeffs + zero * u, self.den)

    def quotient(self, line: "HomogeneousForm", times: int = 1
                 ) -> "HomogeneousForm | None":
        """Exact quotient by line^times for a linear form `line`, or None
        if line^times does not divide this nonzero form."""
        if line.degree != 1 or line.coeffs == ((0, 0), (0, 0)):
            raise ValueError("divisor must be a nonzero linear form")
        if times > self.degree:
            return None
        # Divide by the primitive part alpha*x + beta*y = line*den/g: a
        # line like x + (1+i)/2*y is (2x + (1+i)y)/2, whose content is 1+i.
        alpha, beta = line.coeffs
        g = _gauss_gcd(alpha, beta)
        alpha, beta = _gauss_div(alpha, g), _gauss_div(beta, g)
        coeffs = list(self.coeffs)
        if alpha == (0, 0):  # y^times: the x^d .. x^(d-times+1) terms vanish
            if any(map(any, coeffs[:times])):
                return None
            coeffs = coeffs[times:]
        else:
            for _ in range(times):
                coeffs = _divide_primitive(coeffs, alpha, beta)
                if coeffs is None:
                    return None
        # self / line^t = (self / primitive^t) * (den_line * conj(g) / |g|^2)^t
        gr, gi = g
        sr, si = line.den ** times, 0
        for _ in range(times if g != (1, 0) else 0):
            sr, si = sr * gr + si * gi, si * gr - sr * gi
        if (sr, si) != (1, 0):
            coeffs = [(re * sr - im * si, re * si + im * sr)
                      for re, im in coeffs]
        return HomogeneousForm._reduced(
            self.degree - times, coeffs,
            self.den * (gr * gr + gi * gi) ** times)

    def to_polynomial(self) -> BivariatePolynomial:
        d, den = self.degree, self.den
        return BivariatePolynomial({
            (d - j, j): GaussianRational(Fraction(re, den), Fraction(im, den))
            for j, (re, im) in enumerate(self.coeffs) if re or im
        })
