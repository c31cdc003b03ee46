#!/usr/bin/env python3
"""Rebuild the approximation weights numerically and compare with the
symbolic classes.

The Hilbert space of holomorphic functions on the unit ball that are
square integrable against e^{-2m phi} is truncated at a total-degree
cutoff; homogeneity splits every inner product into an exact radial
integral times an integral over the unit sphere.  That integral is taken
by the deterministic Hopf rule on CP^1 and, for a few entries side by
side, by plain Monte Carlo on S^3.  Slopes of the resulting kernel weight
against log r recover Lelong numbers, and a scan along x = y exhibits the
non-monotone step (3, 4) numerically.
"""

import math

import numpy as np

from pshlab import (
    QuadratureSpec,
    curve_scan,
    diagonal_curve,
    gram_matrix,
    lelong,
    lelong_estimate,
    new_arrangement,
    preset,
)
from pshlab.bergman import SPHERE_AREA, radial_factor, sphere_points
from pshlab.sequence import entry

SAMPLES = 200_000  # Monte Carlo sample of the side-by-side entries


def monte_carlo_diagonal(arr, result, count):
    """Monte Carlo estimates of the first `count` diagonal Gram entries
    over SAMPLES sphere points, with their standard errors."""
    points = sphere_points(SAMPLES, result.spec.seed)
    x, y = points[:, 0], points[:, 1]
    weight = np.ones(SAMPLES)
    for line, b, a in zip(arr.lines, result.line_powers, arr.coeffs):
        value = complex(line.cx) * x + complex(line.cy) * y
        weight *= np.abs(value) ** (2 * float(b - result.m * a))
    s_hom = 2 * result.m * arr.total_mass
    out = []
    for (u, v), d in list(zip(result.monomials, result.degrees))[:count]:
        values = weight * np.abs(x) ** (2 * u) * np.abs(y) ** (2 * v)
        scale = SPHERE_AREA * radial_factor(2 * int(d), s_hom)
        out.append((values.mean() * scale,
                    values.std() / math.sqrt(SAMPLES) * scale))
    return out


print("Closed-form sanity checks with the trivial weight (Hopf | Monte Carlo):")
flat = new_arrangement([], [], 0)
hopf = gram_matrix(flat, 1, QuadratureSpec(2, SAMPLES, seed=42))
mc = monte_carlo_diagonal(flat, hopf, 3)
labels = [str(b) for b in hopf.basis()]
for label, exact, text in [("1", math.pi ** 2 / 2, "pi^2/2"),
                           ("x", math.pi ** 2 / 6, "pi^2/6")]:
    i = labels.index(label)
    print(f"  <{label},{label}>  = {hopf.gram[i, i].real:.6f} | "
          f"{mc[i][0]:.6f} +- {mc[i][1]:.6f}  ({text} = {exact:.6f})")
print(f"  {hopf.nodes} Hopf nodes against {SAMPLES} sphere samples")
print()

arr = preset("theorem1")
quad = QuadratureSpec(max_degree=12, sphere_samples=SAMPLES, seed=42)
print("Ray slopes vs symbolic Lelong numbers:")
for m in range(1, 6):
    est = lelong_estimate(arr, m, quad)
    sym = lelong(entry(arr, m).cls)
    print(f"  m={m}: slope {est.value:.4f}   symbolic {sym} = {float(sym):.4f}")
print()

print("Gram diagonal of m = 1 (Hopf | Monte Carlo), where e = -2/3 <= -1/2 "
      "gives Monte Carlo an infinite variance:")
g1 = gram_matrix(arr, 1, quad)
mc = iter(monte_carlo_diagonal(arr, g1, sum(b.gram.shape[0]
                                            for b in g1.blocks[:3])))
for block in g1.blocks[:3]:
    print(f"  degree {block.degree}: <f,f> = " + ", ".join(
        f"{h:.5f} | {next(mc)[0]:.5f}"
        for h in np.diag(g1.gram).real[block.span]))
print()

print("Gram structure for m = 3 (degrees 6..12):")
g3 = gram_matrix(arr, 3, quad)
print(f"  basis size {g3.basis_size}, effective rank {g3.effective_rank}")
computed = 0
for block in g3.blocks:
    size = block.transform.shape[0]
    computed += size ** 2
    print(f"  degree {block.degree}: {size} elements, "
          f"rank {block.transform.shape[1]}")
print(f"  {computed} of {g3.basis_size ** 2} entries computed; the "
      "cross-degree ones are exactly 0 by the circle action")
print()

t = np.geomspace(1e-3, 1e-1, 25)
print("Scan of Delta(t) = phi_hat_m2 - phi_hat_m1 along x = y = t:")
for m1, m2, expected in [(3, 4, -0.25), (4, 8, +0.125)]:
    scan = curve_scan(arr, m1, m2, diagonal_curve, t, quad)
    verdict = "UNBOUNDED as t -> 0" if scan.slope < -0.02 else "BOUNDED"
    print(f"  ({m1}, {m2}): slope {scan.slope:+.4f} (class prediction "
          f"{expected:+.3f}) -> {verdict}")
    for row in scan.rows()[::8]:
        print(f"      t={row[0]:.4e}  phi_{m1}={row[1]:+.4f}  "
              f"phi_{m2}={row[2]:+.4f}  delta={row[3]:+.4f}")
