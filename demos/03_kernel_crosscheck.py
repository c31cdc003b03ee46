#!/usr/bin/env python3
"""Rebuild the approximation weights numerically and compare with the
symbolic classes.

The Hilbert space of holomorphic functions on the unit ball that are
square integrable against e^{-2m phi} is truncated at a total-degree
cutoff; homogeneity splits every inner product into an exact radial
integral times a Monte Carlo integral over the unit sphere.  Slopes of the
resulting kernel weight against log r recover Lelong numbers, and a scan
along x = y exhibits the non-monotone step (3, 4) numerically.
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
from pshlab.sequence import entry

SAMPLES = 200_000  # the acceptance suite uses 10^6; this keeps the demo fast

print("Closed-form sanity checks with the trivial weight:")
flat = new_arrangement([], [], 0)
gram = gram_matrix(flat, 1, QuadratureSpec(2, SAMPLES, seed=42))
labels = [str(b) for b in gram.basis()]
i1, ix = labels.index("1"), labels.index("x")
print(f"  <1,1>  = {gram.gram[i1, i1].real:.6f}  (pi^2/2 = {math.pi ** 2 / 2:.6f})")
print(f"  <x,x>  = {gram.gram[ix, ix].real:.6f} +- {gram.stderr[ix, ix]:.6f}"
      f"  (pi^2/6 = {math.pi ** 2 / 6:.6f})")
print()

arr = preset("theorem1")
quad = QuadratureSpec(max_degree=12, sphere_samples=SAMPLES, seed=42)
print("Ray slopes vs symbolic Lelong numbers:")
for m in range(1, 6):
    est = lelong_estimate(arr, m, quad)
    sym = lelong(entry(arr, m).cls)
    print(f"  m={m}: slope {est.value:.4f}   symbolic {sym} = {float(sym):.4f}")
print()

print("Gram structure for m = 3 (degrees 6..12):")
g3 = gram_matrix(arr, 3, quad)
print(f"  basis size {g3.basis_size}, effective rank {g3.effective_rank}")
estimated = 0
for block in g3.blocks:
    size = block.transform.shape[0]
    estimated += size ** 2
    print(f"  degree {block.degree}: {size} elements, "
          f"rank {block.transform.shape[1]}")
print(f"  {estimated} of {g3.basis_size ** 2} entries estimated; the "
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
