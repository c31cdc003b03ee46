#!/usr/bin/env python3
"""Walk through the exact layer: weights, thresholds, ideals, membership.

The running example is the three concurrent lines x, y, x+y with weight 2/3
each, the simplest arrangement that one blowup resolves but that is not a
simple normal crossing.
"""

from fractions import Fraction

from pshlab import (
    BivariatePolynomial,
    contains,
    generator_strings,
    generators,
    ideal_of,
    integrability_estimate,
    lct,
    phi_value,
    preset,
)

X, Y = BivariatePolynomial.x(), BivariatePolynomial.y()

arr = preset("theorem1")
print("Arrangement:", ", ".join(line.label() for line in arr.lines),
      "with weights", [str(a) for a in arr.coeffs])
print("Total mass:", arr.total_mass)
print("phi(1, 1) =", phi_value(arr, (1, 1)), " (= (2/3) log 2)")
print("Log canonical threshold:", lct(arr))
print()

print("Multiplier ideals J(c*phi) in normal form (line orders b, origin")
print("order e, residual maximal-ideal power p) and their generators:")
for c in (Fraction(1, 2), 1, 2, 3, 4, 5, Fraction(9, 2)):
    ideal = ideal_of(arr, c)
    gens = ", ".join(generator_strings(arr, ideal))
    print(f"  c = {str(c):>4}: b={list(ideal.b)} e={ideal.e} p={ideal.p}   ({gens})")
print()

print("Membership is an exact divisibility test.  At c = 4:")
ideal4 = ideal_of(arr, 4)
for f, name in [
    (generators(arr, ideal4)[0], "(x*y*(x+y))^2 * x"),
    ((X * Y * (X + Y)) ** 2, "(x*y*(x+y))^2"),
    (BivariatePolynomial.one(), "1"),
]:
    print(f"  {name:>20} in J(4*phi)?  {contains(arr, ideal4, f)}")
print()

print("The numerical cross-check decides |f|^2 e^{-2c phi} by the Hopf")
print("reduction, without floor formulas: an exact radial margin d + 2 - cT")
print("per homogeneous component, and a measured margin kappa per line point")
print("(integrable iff all are positive, beyond the stated resolution):")
x2y2z = BivariatePolynomial({(3, 2): 1, (2, 3): 1})  # x^2 y^2 (x+y)
for f, name, c in [
    (x2y2z, "x^2*y^2*(x+y)", 3),
    ((X * Y * (X + Y)) ** 2, "(x*y*(x+y))^2", 3),
]:
    verdict = integrability_estimate(arr, f, c)
    symbolic = contains(arr, ideal_of(arr, c), f)
    kappas = ", ".join(f"{k:+.6f}" for k in verdict.line_margins)
    print(f"  {name:>16} at c={c}: oracle integrable={verdict.integrable}, "
          f"membership={symbolic}")
    print(f"  {'':>16}   radial margin {verdict.radial_margin}, "
          f"kappa = ({kappas}), resolution {verdict.resolution:.0e}")
print()

print("The two warm-up weights behave as expected:")
point = preset("point")
print("  point mass: J(m*phi) is the (m-1)-st power of the maximal ideal:")
for m in (2, 3, 4):
    print(f"    m={m}: {generator_strings(point, ideal_of(point, m))}")
smooth = preset("smooth")
print("  smooth line: J(m*phi) is generated by the m-th power of the form:")
for m in (2, 3):
    print(f"    m={m}: {generator_strings(smooth, ideal_of(smooth, m))}")
