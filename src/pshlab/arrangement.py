"""Weighted line arrangements through the origin of C^2.

An arrangement is finitely many distinct lines ell_i(x, y) = cx*x + cy*y
with nonnegative rational weights a_i, plus an optional isotropic point
mass d0.  It defines the weight function

    phi(z) = sum_i a_i log|ell_i(z)| + d0 log|z|,

which is the object every other module works with.  Lines are stored
projectively normalized (first nonzero coefficient equal to 1) so that
equality of lines is equality of coefficients.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

from .gaussian import GaussianRational, ONE, to_fraction, unit_complex
from .polynomials import Gaussian, HomogeneousForm
from .records import Frozen


class ArrangementError(ValueError):
    """Base class for arrangement construction and IO failures."""


class ZeroFormError(ArrangementError):
    """A line was given with both coefficients zero."""


class DuplicateLineError(ArrangementError):
    """Two lines coincide after projective normalization."""


class NegativeCoefficientError(ArrangementError):
    """A weight or the point mass is negative."""


class ZeroWeightError(ArrangementError):
    """The total mass vanishes where a positive weight is required."""


class Line(Frozen):
    """A line cx*x + cy*y = 0 through the origin, projectively normalized."""

    _fields = ("cx", "cy")

    def __init__(self, cx: GaussianRational, cy: GaussianRational):
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)

    @classmethod
    def normalized(cls, cx, cy) -> "Line":
        cx = GaussianRational.of(cx)
        cy = GaussianRational.of(cy)
        if cx.is_zero and cy.is_zero:
            raise ZeroFormError("line form has both coefficients zero")
        scale = cx.inverse() if not cx.is_zero else cy.inverse()
        return cls(cx * scale, cy * scale)

    @functools.cached_property
    def integer_form(self) -> HomogeneousForm:
        """The form cx*x + cy*y with Gaussian-integer numerators."""
        return HomogeneousForm.of(1, {0: self.cx, 1: self.cy})

    @functools.cached_property
    def unit(self) -> tuple[complex, complex]:
        """The coefficients divided by their Hermitian norm, as floats; no
        coefficient overflows however large it is."""
        return tuple(unit_complex(self.integer_form.coeffs))

    @functools.cached_property
    def log_norm(self) -> float:
        """log of the Hermitian norm |ell| of the coefficients, from their
        exact squared norm q >= 1 (one coefficient is 1) with its binary
        exponent k taken out exactly: log q = k log 2 + log(q / 2^k)."""
        q = self.cx.abs2() + self.cy.abs2()
        k = q.numerator.bit_length() - q.denominator.bit_length()
        return 0.5 * (k * math.log(2.0) + math.log1p(
            Fraction(q.numerator, q.denominator << k) - 1))

    def modulus(self, x, y):
        """|ell(x, y)| / |ell| at complex scalars or arrays: the only float
        view of the form, so no coefficient overflows."""
        return abs(self.unit[0] * x + self.unit[1] * y)

    def label(self) -> str:
        if self.cx == ONE and self.cy.is_zero:
            return "x"
        if self.cx.is_zero:
            return "y"
        if self.cy == ONE:
            return "x+y"
        return f"x+({self.cy})y"

    def serialize(self) -> list[list[str]]:
        return [self.cx.serialize(), self.cy.serialize()]


class WeightedArrangement(Frozen):
    """Distinct lines with rational weights plus an optional point mass."""

    _fields = ("lines", "coeffs", "point_mass", "total_mass")

    def __init__(self, lines: tuple[Line, ...], coeffs: tuple[Fraction, ...],
                 point_mass: Fraction, total_mass: Fraction):
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "point_mass", point_mass)
        object.__setattr__(self, "total_mass", total_mass)

    def __hash__(self) -> int:  # every arrangement-keyed cache asks for it
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:  # the field-tuple hash, computed once
        return hash(self._values(self))

    @property
    def key(self) -> tuple[Line, ...]:
        """Identity used to decide whether two singularity classes are comparable."""
        return self.lines

    @functools.cached_property
    def scaled_weights(self) -> tuple[tuple[int, ...], int, int]:
        """(A, T, L): the weights A_i / L and the total mass T / L over one
        denominator L > 0, so that floor data is integer division."""
        den = math.lcm(*(q.denominator for q in (*self.coeffs, self.total_mass)))
        return (tuple(int(a * den) for a in self.coeffs),
                int(self.total_mass * den), den)

    def describe(self) -> dict:
        return {
            "lines": [line.serialize() for line in self.lines],
            "coeffs": [str(a) for a in self.coeffs],
            "point_mass": str(self.point_mass),
        }


def new_arrangement(lines, coeffs, point_mass=0) -> WeightedArrangement:
    """Validate and normalize an arrangement.

    `lines` may contain Line objects or (cx, cy) pairs of exact scalars;
    `coeffs` and `point_mass` anything `Fraction` accepts.
    """
    normalized: list[Line] = []
    for spec in lines:
        if isinstance(spec, Line):
            line = Line.normalized(spec.cx, spec.cy)
        else:
            cx, cy = spec
            line = Line.normalized(cx, cy)
        normalized.append(line)
    if len(set(normalized)) != len(normalized):
        raise DuplicateLineError("arrangement contains projectively equal lines")
    weights = tuple(to_fraction(a) for a in coeffs)
    if len(weights) != len(normalized):
        raise ArrangementError(
            f"{len(normalized)} lines but {len(weights)} coefficients"
        )
    if any(a < 0 for a in weights):
        raise NegativeCoefficientError("line weights must be nonnegative")
    mass = to_fraction(point_mass)
    if mass < 0:
        raise NegativeCoefficientError("point mass must be nonnegative")
    return WeightedArrangement(
        lines=tuple(normalized),
        coeffs=weights,
        point_mass=mass,
        total_mass=sum(weights, Fraction(0)) + mass,
    )


# Smallest Gauss-Jacobi disc of a chart: line points closer than about
# 2^-31 in chordal distance are barely told apart in double precision.
HOPF_MIN_S1 = 2.0 ** -64


class HopfChart(Frozen):
    """The polar chart q = sqrt(1-s) p + sqrt(s) e^{i theta} n of CP^1
    around a line point p (unit normal n), where |ell(q)| = |ell| sqrt(s).
    `spacing` is the squared chordal distance to the nearest other line
    point (1 without one); the disc s <= s1, s1 the largest power of 2 in
    [HOPF_MIN_S1, spacing / 4], holds no other line point.  `pairs[i]` is
    (ell_i(p), ell_i(n)) for the unit-normalized form of line i, so that
    ell_i(q) = sqrt(1-s) pairs[i][0] + sqrt(s) e^{i theta} pairs[i][1] has
    modulus at most 1; pairs[i][0] is exactly 0 on the chart's own line.
    `chart_x`, `chart_y`: the coordinates of alpha v + beta n, for v, n
    the unnormalized p, n, as exact linear forms in (alpha, beta)."""

    __slots__ = _fields = ("point", "normal", "spacing", "s1", "pairs",
                           "chart_x", "chart_y")

    def __init__(self, point: tuple[complex, complex],
                 normal: tuple[complex, complex], spacing: Fraction,
                 s1: float, pairs: tuple[tuple[complex, complex], ...],
                 chart_x: HomogeneousForm, chart_y: HomogeneousForm):
        for name, value in zip(self._fields, (point, normal, spacing, s1,
                                              pairs, chart_x, chart_y)):
            object.__setattr__(self, name, value)

    def moduli(self, alpha, beta) -> list:
        """|ell_i(alpha p + beta n)| / |ell_i| of every line i, at scalars or
        arrays alike."""
        return [abs(a * alpha + b * beta) for a, b in self.pairs]


def _chart(lines: tuple[Line, ...], a: Gaussian, b: Gaussian) -> HopfChart:
    """The chart around the point of the line a x + b y (Gaussian-integer
    coefficients), with v = (b, -a) and n = (conj a, conj b).  On
    alpha v + beta n, a line ell is alpha ell(v) + beta ell(n), its form
    substituted exactly (up to a positive integer factor, which no pair
    or ratio below sees); its own line has ell(v) = 0.  The spacing comes
    from the exact squared chordal distances
    |ell(v)|^2 / (|ell(v)|^2 + |ell(n)|^2): close lines do not cancel."""
    (ar, ai), (br, bi) = a, b
    v, n = ((br, bi), (-ar, -ai)), ((ar, -ai), (br, -bi))
    chart_x = HomogeneousForm(1, (v[0], n[0]))
    chart_y = HomogeneousForm(1, (v[1], n[1]))
    values = [line.integer_form.substitute(chart_x, chart_y).coeffs
              for line in lines]
    near = min((Fraction(pr * pr + pi * pi,
                         pr * pr + pi * pi + qr * qr + qi * qi)
                for (pr, pi), (qr, qi) in values if pr or pi),
               default=Fraction(1))
    _, exp = math.frexp(max(float(near) / 4.0, HOPF_MIN_S1))
    return HopfChart(
        point=tuple(unit_complex(v)), normal=tuple(unit_complex(n)),
        spacing=near, s1=2.0 ** (exp - 1),
        pairs=tuple(tuple(unit_complex(pair)) for pair in values),
        chart_x=chart_x, chart_y=chart_y)


@functools.lru_cache(maxsize=16)
def hopf_charts(arr: WeightedArrangement) -> tuple[HopfChart, ...]:
    """One polar chart per line, or one around (1, 0) (the point of the
    line y) without lines: the only place where a line is put into chart
    coordinates.  The Bergman Gram, the integrability oracle and the
    boundedness probe read them; built once per arrangement."""
    forms = [line.integer_form.coeffs for line in arr.lines]
    return tuple(_chart(arr.lines, a, b) for a, b in forms or [((0, 0), (1, 0))])


def phi_value(arr: WeightedArrangement, point: tuple[complex, complex]) -> float:
    """Evaluate phi at a point; exactly -inf on weighted lines and at 0."""
    x, y = complex(point[0]), complex(point[1])
    total = 0.0
    for line, a in zip(arr.lines, arr.coeffs):
        if a == 0:
            continue
        v = line.modulus(x, y)
        if v == 0.0:
            return float("-inf")
        total += float(a) * (math.log(v) + line.log_norm)
    if arr.point_mass > 0:
        r = math.hypot(abs(x), abs(y))
        if r == 0.0:
            return float("-inf")
        total += float(arr.point_mass) * math.log(r)
    return total


def lct(arr: WeightedArrangement) -> Fraction:
    """Log canonical threshold: smallest c at which J(c*phi) is nontrivial.

    For this family it is min(1/a_i over positive weights, 2/total_mass).
    """
    if arr.total_mass == 0:
        raise ZeroWeightError("threshold is infinite for the zero weight")
    candidates = [Fraction(2) / arr.total_mass]
    candidates.extend(Fraction(1) / a for a in arr.coeffs if a > 0)
    return min(candidates)


# -- built-in presets ---------------------------------------------------

def _build_presets() -> dict[str, WeightedArrangement]:
    third2 = Fraction(2, 3)
    return {
        "theorem1": new_arrangement(
            [(1, 0), (0, 1), (1, 1)], [third2, third2, third2], 0
        ),
        "smooth": new_arrangement([(1, 0)], [1], 0),
        "point": new_arrangement([], [], 1),
    }


PRESETS = _build_presets()


def preset(name: str) -> WeightedArrangement:
    try:
        return PRESETS[name]
    except KeyError:
        raise ArrangementError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


# -- file format --------------------------------------------------------

# Largest numerator or denominator, in bits, that an arrangement file may
# hold.  Far beyond any useful line or weight, and small enough that every
# derived rational still prints within Python's int-to-str digit limit.
MAX_RATIONAL_BITS = 1000


def _file_scalar(value):
    """An exact number from a file: an integer or a string such as "p/q",
    never a boolean, with no numerator or denominator above
    MAX_RATIONAL_BITS; an exponent form like "1e100000" is refused from
    its exponent, before the huge integer is built."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ArrangementError(
            f"{value!r} is not an integer or a number string like \"2/3\"")
    if isinstance(value, str):
        _, _, exponent = value.strip().lower().partition("e")
        if exponent and abs(int(exponent)) > MAX_RATIONAL_BITS:
            raise ArrangementError(
                f"{value!r} exceeds {MAX_RATIONAL_BITS} bits")
    q = to_fraction(value)
    if max(abs(q.numerator).bit_length(),
           q.denominator.bit_length()) > MAX_RATIONAL_BITS:
        raise ArrangementError(
            f"a numerator or denominator of {value!r} exceeds "
            f"{MAX_RATIONAL_BITS} bits")
    return value


def _file_array(value, what: str, length: int | None = None) -> list:
    """`value` if it is a JSON array (of `length` entries, if given)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise ArrangementError(f"{what} must be a JSON array{size}")
    return value


def _file_coefficient(value):
    """A line coefficient: a number or an [re, im] pair of numbers."""
    if isinstance(value, list):
        return tuple(map(_file_scalar, _file_array(value, "an [re, im] pair", 2)))
    return _file_scalar(value)


def arrangement_from_dict(data: dict) -> WeightedArrangement:
    try:
        lines = [tuple(map(_file_coefficient, _file_array(line, "a line", 2)))
                 for line in _file_array(data["lines"], '"lines"')]
        coeffs = list(map(_file_scalar, _file_array(data["coeffs"], '"coeffs"')))
        point_mass = _file_scalar(data.get("point_mass", 0))
        return new_arrangement(lines, coeffs, point_mass)
    except ArrangementError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
        raise ArrangementError(f"malformed arrangement record: {exc}") from exc


def load_arrangement(path: str | Path) -> WeightedArrangement:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ArrangementError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArrangementError(
            f"invalid JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return arrangement_from_dict(data)


def save_arrangement(arr: WeightedArrangement, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(arr.describe(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
