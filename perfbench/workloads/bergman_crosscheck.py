"""bergman-crosscheck: the numeric Bergman layer on theorem1, in process.

One job draws one quadrature seed and runs, at SAMPLES sphere samples:
Gram estimates for m = 1..5 at degree 12 and m = 8 at degree 20, ray
slopes for m = 1..5 (reusing those Grams), the scans (3, 4) and (4, 8)
along x = y, and one Gram of the trivial weight for the closed form.

Each job also asks for the ray slopes at m = 30 and 50 with the fixed
quadrature seed 42.  They come back NaN, because r^(2d) underflows at
r = 1e-3 once the basis degree d reaches 60; both are counted as failed
operations, not as wrong outputs.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pshlab

from workloads import Base, Tally

SAMPLES = 100_000
MAX_DEGREE = 12
HIGH_M, HIGH_DEGREE = 8, 20
RAY_M = range(1, 6)
UNDERFLOW_M = (30, 50)
FIXED_SEED = 42
TRIVIAL_DEGREE = 4
SCANS = ((3, 4, -0.25), (4, 8, 0.125))
SLOPE_TOL = 0.05
Z_MAX = 5.0


def exact_lelong(arr, m: int) -> Fraction:
    """nu(phi_m) = max(sum floor(m a_i), floor(m total) - 1) / m."""
    lines = sum(m * a // 1 for a in arr.coeffs)
    return Fraction(max(lines, m * arr.total_mass // 1 - 1), m)


class Workload(Base):
    def setup(self) -> None:
        warnings.simplefilter("ignore", RuntimeWarning)
        self.rng = random.Random(f"bergman-crosscheck:{self.seed}")
        self.arr = pshlab.preset("theorem1")
        self.trivial = pshlab.new_arrangement([], [], 0)
        self.t = np.geomspace(1e-3, 1e-1, 25)
        self.fixed = pshlab.QuadratureSpec(MAX_DEGREE, SAMPLES, FIXED_SEED)
        # warm-up: one whole job at the smallest sample count.  Without it
        # the first m = 1 Gram (first use of its 90-row shapes) takes about
        # three times as long as later ones.
        self.run(pshlab.QuadratureSpec(
            MAX_DEGREE, pshlab.bergman.MIN_SPHERE_SAMPLES, FIXED_SEED), None)

    def prepare(self, index: int):
        return pshlab.QuadratureSpec(MAX_DEGREE, SAMPLES,
                                     self.rng.getrandbits(32))

    def run(self, quad, tracer) -> dict:
        arr = self.arr
        grams = {m: pshlab.gram_matrix(arr, m, quad) for m in RAY_M}
        grams[HIGH_M] = pshlab.gram_matrix(
            arr, HIGH_M, quad.with_max_degree(HIGH_DEGREE))
        rays = {m: pshlab.lelong_estimate(arr, m, quad, gram=grams[m]).value
                for m in RAY_M}
        for m in UNDERFLOW_M:
            rays[m] = pshlab.lelong_estimate(arr, m, self.fixed).value
        scans = [(m1, m2, expected, pshlab.curve_scan(
                    arr, m1, m2, pshlab.diagonal_curve, self.t, quad,
                    gram1=grams[m1], gram2=grams[m2]).slope)
                 for m1, m2, expected in SCANS]
        trivial = pshlab.gram_matrix(self.trivial, 1,
                                     quad.with_max_degree(TRIVIAL_DEGREE))
        return {"grams": grams, "rays": rays, "scans": scans,
                "trivial": trivial}

    def check(self, quad, out: dict) -> Tally:
        tally = Tally()
        for m, g in out["grams"].items():
            cross = g.degrees[:, None] != g.degrees[None, :]
            z = np.abs(g.gram[cross]) / np.maximum(g.stderr[cross], 1e-300)
            tally.expect(bool(z.size == 0 or z.max() < Z_MAX),
                         f"seed {quad.seed}: m={m} cross-degree Gram entry "
                         f"at {z.max():.2f} stderr")
        for m, slope in out["rays"].items():
            want = float(exact_lelong(self.arr, m))
            tally.expect(abs(slope - want) <= SLOPE_TOL,
                         f"seed {quad.seed}: ray slope {slope} at m={m}, "
                         f"exact {want}", known_fault=m in UNDERFLOW_M)
        for m1, m2, expected, slope in out["scans"]:
            tally.expect(abs(slope - expected) <= SLOPE_TOL,
                         f"seed {quad.seed}: scan ({m1},{m2}) slope {slope}")
        g = out["trivial"]
        ok = True
        for i, (u, v) in enumerate(g.monomials):
            want = math.pi ** 2 * math.factorial(u) * math.factorial(v) \
                / math.factorial(u + v + 2)
            ok = ok and abs(g.gram[i, i].real - want) \
                <= Z_MAX * g.stderr[i, i] + 1e-12 * want
        tally.expect(ok, f"seed {quad.seed}: trivial-weight Gram diagonal "
                         "differs from pi^2 u! v! / (u+v+2)!")
        return tally

    def trace_extras(self, quad, tracer) -> None:
        """The sphere sampler alone at the job's sample count."""
        t0 = time.perf_counter()
        pshlab.bergman.sphere_points(SAMPLES, quad.seed)
        tracer.samples["bergman.sphere_points_s"].append(
            time.perf_counter() - t0)
