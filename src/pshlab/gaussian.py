"""Exact complex numbers with rational real and imaginary parts.

All line coefficients and polynomial coefficients in this package live in
Q(i).  Keeping them exact makes line normalization, divisibility tests and
multiplicity counts free of floating error.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .records import Frozen


def scaled_complex(values) -> list[complex]:
    """Gaussian integers (re, im) as complex floats divided by the largest
    part: huge numerators do not overflow, and an exact 0 stays 0.0."""
    top = max(max(abs(re), abs(im)) for re, im in values) or 1
    return [complex(re / top, im / top) for re, im in values]


def unit_complex(values) -> list[complex]:
    """A nonzero Gaussian-integer vector as a complex unit vector."""
    scaled = scaled_complex(values)
    norm = math.hypot(*map(abs, scaled))
    return [z / norm for z in scaled]


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions and `"p/q"` strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def integer_ratio(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of `c`; an int makes no Fraction."""
    return (c, 1) if isinstance(c, int) else to_fraction(c).as_integer_ratio()


class GaussianRational(Frozen):
    """An element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        """Coerce a scalar or an (re, im) pair to a Gaussian rational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction, str)):
            return cls(to_fraction(value))
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(to_fraction(value[0]), to_fraction(value[1]))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        try:
            other = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "GaussianRational":
        return self * GaussianRational.of(other).inverse()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def serialize(self) -> list[str]:
        return [str(self.re), str(self.im)]


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
