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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .gaussian import GaussianRational, ONE, to_fraction
from .polynomials import BivariatePolynomial


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


@dataclass(frozen=True)
class Line:
    """A line cx*x + cy*y = 0 through the origin, projectively normalized."""

    cx: GaussianRational
    cy: GaussianRational

    @classmethod
    def normalized(cls, cx, cy) -> "Line":
        cx = GaussianRational.of(cx)
        cy = GaussianRational.of(cy)
        if cx.is_zero and cy.is_zero:
            raise ZeroFormError("line form has both coefficients zero")
        scale = cx.inverse() if not cx.is_zero else cy.inverse()
        return cls(cx * scale, cy * scale)

    def form(self) -> BivariatePolynomial:
        return BivariatePolynomial({(1, 0): self.cx, (0, 1): self.cy})

    def evaluate(self, x, y):
        """Numeric value of the form at complex scalars or arrays."""
        return complex(self.cx) * x + complex(self.cy) * y

    def coeff_norm(self) -> float:
        """Hermitian norm of the coefficient vector."""
        return math.sqrt(float(self.cx.abs2() + self.cy.abs2()))

    def direction(self) -> tuple[complex, complex]:
        """A unit vector spanning the line."""
        v = (complex(self.cy), -complex(self.cx))
        n = math.hypot(abs(v[0]), abs(v[1]))
        return (v[0] / n, v[1] / n)

    def unit_normal(self) -> tuple[complex, complex]:
        """Unit vector Hermitian-orthogonal to the line direction."""
        w = (complex(self.cx).conjugate(), complex(self.cy).conjugate())
        n = math.hypot(abs(w[0]), abs(w[1]))
        return (w[0] / n, w[1] / n)

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


@dataclass(frozen=True)
class WeightedArrangement:
    """Distinct lines with rational weights plus an optional point mass."""

    lines: tuple[Line, ...]
    coeffs: tuple[Fraction, ...]
    point_mass: Fraction
    total_mass: Fraction

    @property
    def key(self) -> tuple[Line, ...]:
        """Identity used to decide whether two singularity classes are comparable."""
        return self.lines

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


def phi_value(arr: WeightedArrangement, point: tuple[complex, complex]) -> float:
    """Evaluate phi at a point; exactly -inf on weighted lines and at 0."""
    x, y = complex(point[0]), complex(point[1])
    total = 0.0
    for line, a in zip(arr.lines, arr.coeffs):
        if a == 0:
            continue
        v = abs(line.evaluate(x, y))
        if v == 0.0:
            return float("-inf")
        total += float(a) * math.log(v)
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


def _check_size(value) -> None:
    """Reject a file scalar whose numerator or denominator exceeds
    MAX_RATIONAL_BITS; an exponent form like "1e100000" is refused from
    its exponent, before the huge integer is built."""
    if isinstance(value, (list, tuple)):
        for part in value:
            _check_size(part)
        return
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


def arrangement_from_dict(data: dict) -> WeightedArrangement:
    try:
        lines = [(pair[0], pair[1]) for pair in data["lines"]]
        point_mass = data.get("point_mass", 0)
        _check_size([lines, data["coeffs"], point_mass])
        return new_arrangement(lines, data["coeffs"], point_mass)
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
