"""Exact bivariate polynomials over Q(i).

The only nontrivial algebra the package needs is exact arithmetic, exact
division by a linear form through the origin, exact substitution of linear
forms, and the multiplicity at the origin (lowest total degree).
`HomogeneousForm` is the kernel: one homogeneous form as a dense vector of
Gaussian-integer numerators over one integer denominator, so that all of
it runs on plain Python integers.  `BivariatePolynomial`, the user-facing
type, holds its nonzero homogeneous components as such forms; Gaussian
rationals are built only when its terms are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .gaussian import GaussianRational, ONE

Term = tuple[int, int]
Gaussian = tuple[int, int]  # a Gaussian integer re + im*i


class ZeroPolynomialError(ValueError):
    """Raised where a nonzero polynomial is required."""


class BivariatePolynomial:
    """A polynomial in x, y with Gaussian-rational coefficients, held as its
    nonzero, reduced homogeneous components by ascending degree."""

    __slots__ = ("_forms",)

    def __init__(self, terms: Mapping[Term, object] | None = None):
        rows: dict[int, dict[int, object]] = {}
        for (a, b), coeff in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term {(a, b)}")
            rows.setdefault(int(a) + int(b), {})[int(b)] = coeff
        self._forms = BivariatePolynomial._of(
            HomogeneousForm.of(d, row) for d, row in rows.items())._forms

    @classmethod
    def _of(cls, forms: Iterable["HomogeneousForm"]) -> "BivariatePolynomial":
        """The sum of `forms`, added per degree; zero sums are left out."""
        sums: dict[int, HomogeneousForm] = {}
        for f in forms:
            sums[f.degree] = sums[f.degree] + f if f.degree in sums else f
        out = cls.__new__(cls)
        out._forms = {d: sums[d] for d in sorted(sums)
                      if any(map(any, sums[d].coeffs))}
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePolynomial":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "BivariatePolynomial":
        return cls({(a, b): coeff})

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls.monomial(1, 0)

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls.monomial(0, 1)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._forms

    def terms(self) -> Iterator[tuple[Term, GaussianRational]]:
        """Terms in graded order (total degree, then descending x power);
        the Gaussian rationals are built as they are read."""
        for d, form in self._forms.items():
            for j, (re, im) in enumerate(form.coeffs):
                if re or im:
                    yield (d - j, j), GaussianRational(
                        Fraction(re, form.den), Fraction(im, form.den))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._forms, default=-1)

    def multiplicity(self) -> int:
        """Vanishing order at the origin (lowest total degree)."""
        if not self._forms:
            raise ZeroPolynomialError("zero polynomial has no multiplicity")
        return min(self._forms)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return BivariatePolynomial._of([*self._forms.values(),
                                        *other._forms.values()])

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __neg__(self) -> "BivariatePolynomial":
        return self * -1

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial({(0, 0): other})
        return BivariatePolynomial._of(f * g for f in self._forms.values()
                                       for g in other._forms.values())

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
        return self._forms == other._forms

    def __hash__(self) -> int:
        return hash(tuple(self._forms.values()))

    def homogeneous_components(self) -> list["HomogeneousForm"]:
        """The nonzero homogeneous components, by ascending degree."""
        return list(self._forms.values())

    # -- numeric evaluation -------------------------------------------

    def evaluate(self, x, y):
        """Evaluate at complex scalars or numpy arrays."""
        return sum(complex(coeff) * (x ** a) * (y ** b)
                   for (a, b), coeff in self.terms())

    # -- printing -----------------------------------------------------

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


def _product(p: Sequence[Gaussian], q: Sequence[Gaussian]) -> list[Gaussian]:
    """The coefficients of the product of two forms, by convolution."""
    out_r = [0] * (len(p) + len(q) - 1)
    out_i = [0] * len(out_r)
    for i, (a, b) in enumerate(p):
        if not (a or b):
            continue
        for j, (c, d) in enumerate(q, i):
            out_r[j] += a * c - b * d
            out_i[j] += a * d + b * c
    return list(zip(out_r, out_i))


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

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if other.degree != self.degree:
            raise ValueError("forms of different degrees do not add to a form")
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return HomogeneousForm._reduced(self.degree, [
            (ar * s + br * t, ai * s + bi * t)
            for (ar, ai), (br, bi) in zip(self.coeffs, other.coeffs)], den)

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return HomogeneousForm._reduced(
            self.degree + other.degree, _product(self.coeffs, other.coeffs),
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

    def substitute(self, fx: "HomogeneousForm", fy: "HomogeneousForm"
                   ) -> "HomogeneousForm":
        """self(fx, fy) for linear forms fx, fy over Z[i] (den 1) in new
        variables, exact, by Horner's rule: h = c_0, then
        h = h * fx + c_j * fy^j for j = 1..degree."""
        if (fx.degree, fx.den, fy.degree, fy.den) != (1, 1, 1, 1):
            raise ValueError("substitute takes linear forms over Z[i]")
        h, power = list(self.coeffs[:1]), [(1, 0)]
        for cr, ci in self.coeffs[1:]:
            h, power = _product(h, fx.coeffs), _product(power, fy.coeffs)
            h = [(hr + cr * pr - ci * pi, hi + cr * pi + ci * pr)
                 for (hr, hi), (pr, pi) in zip(h, power)]
        return HomogeneousForm._reduced(self.degree, h, self.den)

    def to_polynomial(self) -> BivariatePolynomial:
        return BivariatePolynomial._of([self])
