"""Acceptance suite: one test per criterion, one printed verdict line each.

Exact criteria run at zero tolerance; stochastic ones use the pinned seed
and the stated tolerances, so the whole suite is reproducible bit for bit.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from pshlab.arrangement import Line, new_arrangement, preset
from pshlab.bergman import (
    QuadratureSpec,
    curve_scan,
    diagonal_curve,
    gram_matrix,
    lelong_estimate,
)
from pshlab.gaussian import GaussianRational
from pshlab.integrability import integrability_estimate
from pshlab.multiplier_ideal import contains, generators, ideal_of
from pshlab.polynomials import BivariatePolynomial as P
from pshlab.sequence import (
    adjacent_violations,
    build_sequence,
    check_subsequence,
    entry,
    pattern_violations,
)
from pshlab.singularity import (
    SingularityClass,
    boundedness_probe,
    class_of_weight,
    compare,
    directed_violation,
    lelong,
    more_singular_or_equal,
    Relation,
)

from gram_reference import max_cross_degree_z

THEOREM1 = preset("theorem1")
X, Y = P.x(), P.y()
XYZ = X * Y * (X + Y)


def _verdict(num: int, ok: bool, label: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {status} - {label}{timing}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_generator_regression():
    start = time.perf_counter()
    expected = {
        2: [XYZ],
        3: [XYZ ** 2],
        4: [XYZ ** 2 * X, XYZ ** 2 * Y],
        5: [XYZ ** 3],
    }
    ok = all(
        generators(THEOREM1, ideal_of(THEOREM1, m)) == want
        for m, want in expected.items()
    )
    c5 = entry(THEOREM1, 5).cls
    ok = ok and c5.gamma == (Fraction(3, 5),) * 3 and c5.delta == 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(1, ok, "generators of J(m*phi) for m = 2..5, exact", elapsed)


def test_criterion_02_nonmonotone_step():
    c3, c4 = entry(THEOREM1, 3).cls, entry(THEOREM1, 4).cls
    witness = directed_violation(c4, c3)
    ok = (
        not more_singular_or_equal(c4, c3)
        and witness is not None
        and witness.kind == "gamma"
        and witness.first == Fraction(1, 2)
        and witness.second == Fraction(2, 3)
    )
    _verdict(2, ok, "phi_4 not >= phi_3 in singularity, witness 1/2 < 2/3")


def test_criterion_03_reversal():
    c3, c5 = entry(THEOREM1, 3).cls, entry(THEOREM1, 5).cls
    ok = more_singular_or_equal(c3, c5) and not more_singular_or_equal(c5, c3)
    _verdict(3, ok, "phi_3 strictly more singular than phi_5")


def test_criterion_04_infinite_violation_family():
    start = time.perf_counter()
    checks = pattern_violations(THEOREM1, 100)
    ok = all(c.forward_fails and c.reverse_holds for c in checks)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(4, ok, "(3k, 3k+2) fails forward and holds in reverse, k = 1..100",
             elapsed)


def test_criterion_05_pow2_subsequence():
    indices = [2 ** k for k in range(1, 11)]
    verdict = check_subsequence(THEOREM1, indices)
    ok = verdict.decreasing
    for k in range(1, 10):
        lo, hi = entry(THEOREM1, 2 ** k), entry(THEOREM1, 2 ** (k + 1))
        if k % 2 == 0:
            # leaving an even exponent: line exponent strictly increases,
            # with the exact floor 3*b = 2*(2^k - 1)
            ok = ok and hi.cls.gamma[0] > lo.cls.gamma[0]
            ok = ok and 3 * lo.ideal.b[0] == 2 * (2 ** k - 1)
        else:
            # leaving an odd exponent: equal line exponents, the radial
            # part absorbs the difference
            ok = ok and hi.cls.gamma[0] == lo.cls.gamma[0]
            ok = ok and hi.cls.delta > lo.cls.delta
    _verdict(5, ok, "powers-of-two subsequence decreasing with alternating pattern")


def test_criterion_06_linear_growth_subsequence():
    indices = [3 * k + 2 for k in range(0, 51)]
    verdict = check_subsequence(THEOREM1, indices)
    gamma_ok = all(
        entry(THEOREM1, 3 * k + 2).cls.gamma == (Fraction(2 * k + 1, 3 * k + 2),) * 3
        and entry(THEOREM1, 3 * k + 2).cls.delta == 0
        for k in range(0, 51)
    )
    ok = (verdict.decreasing and verdict.strictly
          and verdict.converges_to_weight and gamma_ok)
    _verdict(6, ok, "3k+2 subsequence strictly decreasing, converges to the weight")


def test_criterion_07_warmup_examples():
    smooth = preset("smooth")
    target = class_of_weight(smooth)
    smooth_ok = all(
        compare(e.cls, target).relation is Relation.EQUIVALENT
        for e in build_sequence(smooth, 100)
    )
    point = preset("point")
    entries = build_sequence(point, 100)
    point_ok = all(
        e.cls.delta == Fraction(e.m - 1, e.m) and not e.cls.gamma
        for e in entries
    )
    verdict = check_subsequence(point, range(1, 101))
    point_ok = point_ok and verdict.decreasing and verdict.strictly
    _verdict(7, smooth_ok and point_ok,
             "smooth preset constant, point preset strictly decreasing, m <= 100")


def _random_arrangement(rng: random.Random):
    k = rng.randint(0, 6)
    lines = []
    seen = set()
    while len(lines) < k:
        raw = [rng.randint(-2, 2) for _ in range(4)]
        cx = GaussianRational(Fraction(raw[0]), Fraction(raw[1]))
        cy = GaussianRational(Fraction(raw[2]), Fraction(raw[3]))
        if cx.is_zero and cy.is_zero:
            continue
        line = Line.normalized(cx, cy)
        if line in seen:
            continue
        seen.add(line)
        lines.append(line)
    weights = [Fraction(rng.randint(0, 36), 12) for _ in lines]
    mass = Fraction(rng.randint(0, 24), 12)
    return new_arrangement(lines, weights, mass)


def test_criterion_08_lelong_sandwich():
    start = time.perf_counter()
    rng = random.Random(808)
    ok = True
    for _ in range(50):
        arr = _random_arrangement(rng)
        target = lelong(class_of_weight(arr))
        for m in range(1, 1001):
            nu_m = lelong(entry(arr, m).cls)
            if not (target - Fraction(2, m) <= nu_m <= target):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(8, ok, "nu(phi) - 2/m <= nu(phi_m) <= nu(phi), m <= 1000, "
             "50 random arrangements", elapsed)


def _probe_guaranteed(s1: SingularityClass, s2: SingularityClass) -> bool:
    """An unbounded psi1 - psi2 is within the probe's sensitivity: some
    approach family (generic ray, or a line pushed at offset j <= 3) has
    slope <= -1/2 against log r."""
    dg = [float(a - b) for a, b in zip(s1.gamma, s2.gamma)]
    dnu = sum(dg) + float(s1.delta - s2.delta)
    slopes = [dnu] + [dnu + j * g for g in dg for j in (1, 2, 3)]
    return min(slopes) <= -0.5


def test_criterion_09_comparator_vs_sampling_oracle():
    start = time.perf_counter()
    rng = random.Random(909)

    def draw() -> SingularityClass:
        vals = [Fraction(rng.randint(0, 6), 2) for _ in range(4)]
        return SingularityClass(key=THEOREM1.key, gamma=tuple(vals[:3]),
                                delta=vals[3])

    pairs = []
    while len(pairs) < 200:
        s1, s2 = draw(), draw()
        usable = all(
            more_singular_or_equal(a, b) or _probe_guaranteed(a, b)
            for a, b in ((s1, s2), (s2, s1))
        )
        if usable:
            pairs.append((s1, s2))

    ok = True
    for s1, s2 in pairs:
        for a, b in ((s1, s2), (s2, s1)):
            if boundedness_probe(THEOREM1, a, b) != more_singular_or_equal(a, b):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(9, ok, "comparator agrees with the sampling probe on 200 random "
             "class pairs (both directions)", elapsed)


def test_criterion_10_membership_vs_integrability():
    start = time.perf_counter()
    monomials = [P.monomial(a, b) for a in range(0, 7) for b in range(0, 7 - a)]
    params = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)]
    ok = True
    mismatches = []
    for arr_name in ("theorem1", "smooth", "point"):
        arr = preset(arr_name)
        for c in params:
            ideal = ideal_of(arr, c)
            for f in monomials:
                member = contains(arr, ideal, f)
                numeric = integrability_estimate(arr, f, c).integrable
                if member != numeric:
                    ok = False
                    mismatches.append((arr_name, str(f), str(c), member, numeric))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    if mismatches:
        print("mismatches:", mismatches[:10])
    _verdict(10, ok, "membership agrees with the Hopf-reduction integrability "
             "oracle on 420 cases", elapsed)


def test_criterion_11_numeric_bergman_crosscheck():
    start = time.perf_counter()
    quad = QuadratureSpec(max_degree=12, sphere_samples=1_000_000, seed=42)
    grams = {m: gram_matrix(THEOREM1, m, quad) for m in range(1, 6)}

    # (a) exact rotational symmetry: gram_matrix stores cross-degree entries
    # as exact zeros, and their sample means on the same sphere points, from
    # the reference estimator, vanish within 5 standard errors
    g3 = grams[3]
    off = g3.degrees[:, None] != g3.degrees[None, :]
    z_max = max_cross_degree_z(THEOREM1, g3)
    part_a = bool(np.all(g3.gram[off] == 0) and z_max < 5.0)

    # (b) ray slopes reproduce the symbolic Lelong numbers
    part_b = True
    slope_report = {}
    for m in range(1, 6):
        est = lelong_estimate(THEOREM1, m, quad, gram=grams[m])
        symbolic = float(lelong(entry(THEOREM1, m).cls))
        slope_report[m] = (est.value, symbolic)
        part_b = part_b and abs(est.value - symbolic) <= 0.05

    # (c) the witness direction x = y: Delta = phi_4 - phi_3 has slope -1/4
    t = np.geomspace(1e-3, 1e-1, 25)
    scan_34 = curve_scan(THEOREM1, 3, 4, diagonal_curve, t, quad,
                         gram1=grams[3], gram2=grams[4])
    part_c = abs(scan_34.slope - (-0.25)) <= 0.05

    # (d) the bounded comparison (4, 8): slope +1/8.  Nothing is admissible
    # for m = 8 below degree 16, so its cutoff sits at the stability margin.
    gram8 = gram_matrix(THEOREM1, 8, quad.with_max_degree(20))
    scan_48 = curve_scan(THEOREM1, 4, 8, diagonal_curve, t, quad,
                         gram1=grams[4], gram2=gram8)
    part_d = abs(scan_48.slope - 0.125) <= 0.05

    elapsed = time.perf_counter() - start
    ok = part_a and part_b and part_c and part_d and elapsed <= 300.0
    print(f"  (a) max cross-degree z = {z_max:.2f}")
    print(f"  (b) slopes: " + ", ".join(
        f"m={m}: {got:.4f} vs {sym:.2f}" for m, (got, sym) in slope_report.items()))
    print(f"  (c) scan(3,4) slope = {scan_34.slope:+.4f}")
    print(f"  (d) scan(4,8) slope = {scan_48.slope:+.4f}")
    _verdict(11, ok, "numeric kernel cross-check (orthogonality, slopes, scans)",
             elapsed)


def test_criterion_12_determinism():
    run = [sys.executable, "-m", "pshlab"]
    verify_args = run + ["verify-paper", "--no-timestamp"]
    first = subprocess.run(verify_args, capture_output=True)
    second = subprocess.run(verify_args, capture_output=True)
    verify_ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout  # nonempty
    )
    bergman_args = run + [
        "bergman", "--preset", "theorem1", "--m1", "3", "--m2", "4",
        "--curve", "x=y", "--samples", "10000", "--seed", "42",
        "--max-degree", "8", "--no-timestamp",
    ]
    b1 = subprocess.run(bergman_args, capture_output=True)
    b2 = subprocess.run(bergman_args, capture_output=True)
    bergman_ok = b1.returncode == 0 and b1.stdout == b2.stdout and b1.stdout
    payload = json.loads(b1.stdout)
    bergman_ok = bergman_ok and payload["verdict"] == "UNBOUNDED"
    _verdict(12, bool(verify_ok and bergman_ok),
             "repeated runs with equal seeds are byte-identical")
