"""Multiplier ideals J(c*phi) of arrangement weights, in closed normal form.

For a central line arrangement one blowup of the origin resolves the pair,
so the pushforward of the resolved ideal sheaf reduces to floor arithmetic:
a germ f lies in J(c*phi) iff it vanishes to order b_i = floor(c*a_i) along
each line and to order e = floor(c*total_mass) - 1 at the origin.  Dividing
out the forced line factors leaves an extra power p = max(0, e - sum b_i)
of the maximal ideal, which is the normal form stored here.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrangement import WeightedArrangement
from .gaussian import integer_ratio
from .polynomials import BivariatePolynomial, HomogeneousForm, ZeroPolynomialError

# Largest degree sum(b) + p of the generators `generators` expands.  The
# p + 1 generators of degree d hold up to (p + 1) * (d + 1) terms whose
# sizes grow with d, so a weight like 10^300 in an arrangement file must be
# refused, not expanded.  1000 covers theorem1 up to m = 500.
MAX_GENERATOR_DEGREE = 1000


class ExpansionTooLargeError(ValueError):
    """Generators of degree above MAX_GENERATOR_DEGREE were requested."""


class IdealDescriptor(NamedTuple):
    """Normal form of a multiplier ideal: prod ell_i^{b_i} * m^p.

    `e` is the required vanishing order at the origin, kept for reporting;
    the invariant p = max(0, e - sum(b)) always holds.
    """

    b: tuple[int, ...]
    e: int
    p: int

    def to_dict(self) -> dict:
        return {"b": list(self.b), "e": self.e, "p": self.p}


def ideal_of(arr: WeightedArrangement, c) -> IdealDescriptor:
    """Compute J(c*phi) for a nonnegative rational c."""
    n, d = integer_ratio(c)
    if n < 0:
        raise ValueError("multiplier ideal parameter must be nonnegative")
    weights, total, den = arr.scaled_weights
    return IdealDescriptor(*floor_data(weights, total, den * d, n))


def floor_data(weights: tuple[int, ...], total: int, den: int, n: int
               ) -> tuple[tuple[int, ...], int, int]:
    """(b, e, p) of J((n/d)*phi) for weights A_i/L, mass T/L, den = d*L."""
    b = tuple([n * a // den for a in weights])
    e = n * total // den - 1
    return b, e, max(0, e - sum(b))


def is_trivial(ideal: IdealDescriptor) -> bool:
    return all(v == 0 for v in ideal.b) and ideal.p == 0


def expand(arr: WeightedArrangement, powers: tuple[int, ...],
           monomials: list[tuple[int, int]]) -> list[BivariatePolynomial]:
    """The polynomials prod ell_i^{powers_i} * x^u * y^v, one per (u, v).

    The line product is expanded once, over Gaussian integers, by the
    binomial theorem and coefficient convolution.
    """
    base = HomogeneousForm.of(0, {0: 1})
    for line, power in zip(arr.lines, powers):
        if power:
            base = base * line.integer_form.power(power)
    return [base.times_monomial(u, v).to_polynomial() for u, v in monomials]


def generators(arr: WeightedArrangement, ideal: IdealDescriptor
               ) -> list[BivariatePolynomial]:
    """Generators prod ell_i^{b_i} * x^j * y^{p-j}, j = p..0 (p+1 of them)."""
    if sum(ideal.b) + ideal.p > MAX_GENERATOR_DEGREE:
        raise ExpansionTooLargeError(
            f"the generators have degree above MAX_GENERATOR_DEGREE = "
            f"{MAX_GENERATOR_DEGREE}")
    return expand(arr, ideal.b,
                  [(j, ideal.p - j) for j in range(ideal.p, -1, -1)])


def generator_strings(arr: WeightedArrangement, ideal: IdealDescriptor) -> list[str]:
    """Factored human-readable generators, e.g. ``(x*y*(x+y))^2 * x``; one
    per monomial, so p above MAX_GENERATOR_DEGREE is refused."""
    if ideal.p > MAX_GENERATOR_DEGREE:
        raise ExpansionTooLargeError(
            f"the ideal has p + 1 = {ideal.p + 1} generators, p above "
            f"MAX_GENERATOR_DEGREE = {MAX_GENERATOR_DEGREE}")
    labels = [line.label() for line in arr.lines]
    wrapped = [f"({lab})" if "+" in lab else lab for lab in labels]
    powers = [p for p in ideal.b]
    factors: list[str] = []
    positive = [i for i, p in enumerate(powers) if p > 0]
    if positive and len(set(powers[i] for i in positive)) == 1 and len(positive) > 1:
        shared = powers[positive[0]]
        joint = "*".join(wrapped[i] for i in positive)
        factors.append(f"({joint})^{shared}" if shared > 1 else joint)
    else:
        for i in positive:
            factors.append(f"{wrapped[i]}^{powers[i]}" if powers[i] > 1 else wrapped[i])

    out = []
    for j in range(ideal.p, -1, -1):
        mono_parts = []
        if j:
            mono_parts.append(f"x^{j}" if j > 1 else "x")
        if ideal.p - j:
            mono_parts.append(f"y^{ideal.p - j}" if ideal.p - j > 1 else "y")
        parts = factors + mono_parts
        out.append(" * ".join(parts) if parts else "1")
    return out


def contains(arr: WeightedArrangement, ideal: IdealDescriptor,
             f: BivariatePolynomial) -> bool:
    """Exact germ membership.  The ideal is homogeneous, so f lies in it iff
    every homogeneous component does: a component of degree d must have
    d >= sum(b) + p and be divisible by each ell_i^{b_i}."""
    if f.is_zero:
        raise ZeroPolynomialError("membership of the zero polynomial is undefined")
    low = sum(ideal.b) + ideal.p
    lines = [(line.integer_form, power)
             for line, power in zip(arr.lines, ideal.b) if power]
    for h in f.homogeneous_components():
        if h.degree < low:
            return False
        for line, power in lines:
            h = h.quotient(line, power)
            if h is None:
                return False
    return True
