import math
from fractions import Fraction

import numpy as np
import pytest

from pshlab import bergman, multiplier_ideal
from pshlab.arrangement import (
    arrangement_from_dict,
    hopf_charts,
    new_arrangement,
    preset,
)
from pshlab.bergman import (
    DegreeCutoffError,
    NonIntegrableExponentError,
    QuadratureSpec,
    admissible_basis,
    bergman_phi,
    curve_scan,
    diagonal_curve,
    gram_matrix,
    kernel_values,
    lelong_estimate,
    radial_factor,
    sphere_points,
)
from pshlab.gaussian import GaussianRational
from pshlab.polynomials import BivariatePolynomial as P
from pshlab.polynomials import HomogeneousForm
from pshlab.sequence import entry
from pshlab.singularity import generic_rays, lelong

from gram_reference import (
    direct_kernel,
    full_gram,
    full_sphere_moments,
    max_cross_degree_z,
    per_block_grams,
)

THEOREM1 = preset("theorem1")
ZERO_WEIGHT = new_arrangement([], [], 0)
QUAD = QuadratureSpec(max_degree=8, sphere_samples=50_000, seed=42)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(max_degree=8, sphere_samples=100, seed=1)
    with pytest.raises(ValueError):
        QuadratureSpec(max_degree=-1, sphere_samples=10_000, seed=1)


def test_radial_factor_values():
    assert radial_factor(12, 12) == pytest.approx(0.25)
    assert radial_factor(2, 0) == pytest.approx(1 / 6)
    assert radial_factor(14, 16) == pytest.approx(0.5)
    # the exponent d - s + 4 is exact: float(d) - float(s) cancels to 0 here
    assert radial_factor(2 ** 60, 2 ** 60 - Fraction(1, 3)) == pytest.approx(
        3 / 13)
    with pytest.raises(NonIntegrableExponentError):
        radial_factor(0, 6)


# lines x, y and x + y with weights and point mass over denominators of
# about 1000 bits, the file limit
BIG_WEIGHTS = arrangement_from_dict({
    "lines": [[1, 0], [0, 1], [1, 1]],
    "coeffs": [f"{k * 5 ** 429 + r}/{5 ** 430}"
               for k, r in ((3, 1), (2, -1), (4, -1))],
    "point_mass": f"{7 ** 354}/{7 ** 355 - 2}",
})


@pytest.mark.parametrize("arr", [THEOREM1, BIG_WEIGHTS],
                         ids=["theorem1", "1000-bit-weights"])
def test_radial_factor_matches_the_fraction_formula(arr):
    # gram_matrix passes the exact s = 2m total_mass: int / int rounds the
    # exponent once, as Fraction does, so every factor is the float of the
    # exact formula, bit for bit
    for m in (1, 2, 3, 7, 1000):
        s = 2 * m * arr.total_mass
        for d in range(math.floor(s) - 6, math.floor(s) + 40):
            power = d - s + 4
            if power <= 0:
                with pytest.raises(NonIntegrableExponentError,
                                   match=f"exponent {power - 1} "):
                    radial_factor(d, s)
                continue
            assert radial_factor(d, s) == 1.0 / float(power)


def test_radial_factor_takes_floats_and_numpy_integers():
    # s is anything Fraction takes, as before the integer body
    assert radial_factor(12, 12.5) == 1.0 / 3.5
    assert radial_factor(12, np.int64(6)) == 0.1
    with pytest.raises(NonIntegrableExponentError, match="exponent -3 "):
        radial_factor(0, np.int64(6))


def test_admissible_basis_examples():
    basis = admissible_basis(THEOREM1, 3, 6)
    assert basis == [(P.x() * P.y() * (P.x() + P.y())) ** 2]
    assert len(admissible_basis(THEOREM1, 3, 7)) == 3
    assert admissible_basis(THEOREM1, 1, 1) == [P.x(), P.y()]
    assert admissible_basis(THEOREM1, 3, 5) == []


def test_sphere_points_deterministic_and_unit():
    a = sphere_points(1000, seed=5)
    b = sphere_points(1000, seed=5)
    assert np.array_equal(a, b)
    norms = np.abs(a[:, 0]) ** 2 + np.abs(a[:, 1]) ** 2
    assert np.allclose(norms, 1.0)


def test_gram_closed_forms():
    # volume of the unit ball in R^4 and the first moment of |x|^2
    result = gram_matrix(ZERO_WEIGHT, 1, QuadratureSpec(2, 200_000, 42))
    labels = [str(b) for b in result.basis()]
    i0, ix = labels.index("1"), labels.index("x")
    vol = result.gram[i0, i0].real
    assert vol == pytest.approx(math.pi ** 2 / 2, abs=1e-9)
    mx = result.gram[ix, ix].real
    assert mx == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
    # the Monte Carlo reference meets the sphere mean of |x|^2, 1/2, within
    # 3 standard errors
    mean, stderr = full_sphere_moments(ZERO_WEIGHT, result)
    assert abs(mean[ix, ix].real - 0.5) <= 3 * stderr[ix, ix]


def test_gram_positive_entry_for_theorem1():
    result = gram_matrix(THEOREM1, 3, QuadratureSpec(6, 50_000, 42))
    assert result.basis_size == 1
    assert result.gram[0, 0].real > 0
    # floors cancel the weight exactly on the single generator: the sphere
    # integrand is the constant 1, so the entry is |S^3| * int_0^1 r^3 dr,
    # up to the rule's partition-of-unity error (2.4e-9 here)
    assert result.gram[0, 0].real == pytest.approx(math.pi ** 2 / 2,
                                                   rel=1e-7)


def test_gram_determinism_bitwise():
    g1 = gram_matrix(THEOREM1, 2, QUAD)
    g2 = gram_matrix(THEOREM1, 2, QUAD)
    assert np.array_equal(g1.gram, g2.gram)
    assert np.array_equal(g1.stderr, g2.stderr)
    assert len(g1.blocks) == len(g2.blocks)
    assert all(np.array_equal(b1.transform, b2.transform)
               for b1, b2 in zip(g1.blocks, g2.blocks))


def test_gram_independent_of_chunk_size(monkeypatch):
    # the Gram takes no node chunks: _CHUNK, the kernel's pass size, leaves
    # it unchanged bit for bit on the 9,216 nodes of theorem1
    quad = QuadratureSpec(max_degree=8, sphere_samples=10_500, seed=42)
    whole = gram_matrix(THEOREM1, 2, quad)
    monkeypatch.setattr(bergman, "_CHUNK", 1000)
    chunked = gram_matrix(THEOREM1, 2, quad)
    assert chunked.nodes == whole.nodes > 9000
    assert np.array_equal(chunked.gram, whole.gram)

def test_gram_positive_semidefinite():
    result = gram_matrix(THEOREM1, 1, QuadratureSpec(10, 50_000, 7))
    eigs = np.linalg.eigvalsh(result.gram)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_cross_degree_entries_vanish():
    # gram_matrix stores the cross-degree entries as exact zeros; the Monte
    # Carlo reference checks on sphere points that their sample means are
    # indeed 0 within 5 standard errors
    result = gram_matrix(THEOREM1, 2, QuadratureSpec(9, 100_000, 42))
    d = result.degrees
    off = d[:, None] != d[None, :]
    assert np.all(result.gram[off] == 0) and np.all(result.stderr[off] == 0)
    assert max_cross_degree_z(THEOREM1, result) < 5.0


@pytest.mark.parametrize("arr, m, quad", [
    (ZERO_WEIGHT, 1, QuadratureSpec(1, 50_000, 11)),
    (THEOREM1, 2, QuadratureSpec(10, 1_000_000, 42)),
    (THEOREM1, 3, QuadratureSpec(10, 1_000_000, 42)),
])
def test_gram_blocks_match_full_estimate(arr, m, quad):
    # the Hopf blocks lie within 5 standard errors of the Monte Carlo
    # reference estimate, recomputed row by row from sphere_points.  Every
    # e_j = b_j - m a_j is > -1/2 here, so the Monte Carlo variance is
    # finite and its stderr is an error bar.  Where the integrand is
    # constant (the lowest block at m = 3) that stderr is 0: there the
    # rule's own 1e-6 convergence bound is the margin.
    result = gram_matrix(arr, m, quad)
    assert min((float(b - m * a) for b, a in
                zip(result.line_powers, arr.coeffs)), default=0.0) > -0.5
    full, stderr = full_gram(arr, result)
    same = result.degrees[:, None] == result.degrees[None, :]
    diag = np.sqrt(np.diag(result.gram).real)
    bound = 5 * stderr + 1e-6 * np.outer(diag, diag)
    assert np.all(np.abs(result.gram - full)[same] <= bound[same])


def test_kernel_values_match_direct_sum():
    # the log-space kernel, assembled block by block from |z|, u = z/|z|
    # and the line factors, equals the direct sum over the whole transform
    result = gram_matrix(THEOREM1, 2, QuadratureSpec(9, 50_000, 42))
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 4)) * 0.3
    xs = pts[:, 0] + 1j * pts[:, 1]
    ys = pts[:, 2] + 1j * pts[:, 3]
    want = direct_kernel(THEOREM1, result, xs, ys)
    assert np.allclose(kernel_values(result, xs, ys), want, rtol=1e-10,
                       atol=0.0)


@pytest.mark.parametrize("m", [30, 50, 200, 400])
def test_lelong_estimate_large_m(m):
    # basis degrees reach 2m and more here: the kernel must not underflow
    # at r = 1e-3, nor the basis weights overflow near the lines
    est = lelong_estimate(THEOREM1, m, QuadratureSpec(12, 100_000, 42))
    symbolic = float(lelong(entry(THEOREM1, m).cls))
    assert math.isfinite(est.value)
    assert est.value == pytest.approx(symbolic, abs=0.05)


def test_basis_at_m_1000():
    # lelong_estimate reaches m = 1000 on theorem1, where the basis has
    # degree about 2000: above the generators' cap, which basis() must not
    # share.  J(1000 phi) = (xy(x+y))^666 * (x, y), so the first basis
    # element is x^667 y^666 (x+y)^666 with binomial coefficients.
    quad = QuadratureSpec(12, 100_000, 42)
    result = gram_matrix(THEOREM1, 1000, quad)
    basis = result.basis()
    assert len(basis) == result.basis_size > 1
    assert [f.multiplicity() for f in basis] == [f.degree() for f in basis]
    assert basis[0].degree() == 1999
    assert dict(basis[0].terms()) == {
        (1333 - k, 666 + k): GaussianRational.of(math.comb(666, k))
        for k in range(667)}
    with pytest.raises(multiplier_ideal.ExpansionTooLargeError):
        multiplier_ideal.generators(
            THEOREM1, multiplier_ideal.ideal_of(THEOREM1, 1000))


def test_truncation_monotonicity():
    # on the same quadrature points (the Hopf nodes do not depend on the
    # cutoff) the smaller Gram is exactly the leading principal submatrix
    # of the larger one, so enlarging the degree cutoff can only
    # grow the kernel (projection onto a larger subspace)
    small = gram_matrix(THEOREM1, 2, QuadratureSpec(6, 50_000, 42))
    large = gram_matrix(THEOREM1, 2, QuadratureSpec(10, 50_000, 42))
    k = small.basis_size
    assert large.monomials[:k] == small.monomials
    assert np.abs(large.gram[:k, :k] - small.gram).max() < 1e-12

    rng = np.random.default_rng(3)
    pts = rng.normal(size=(25, 4)) * 0.2
    xs = pts[:, 0] + 1j * pts[:, 1]
    ys = pts[:, 2] + 1j * pts[:, 3]
    k_small = kernel_values(small, xs, ys)
    k_large = kernel_values(large, xs, ys)
    assert np.all(k_large >= k_small * (1 - 1e-9))


def test_empty_cutoff_raised_by_gram_matrix(monkeypatch):
    # J(8 phi) on theorem1 starts at degree 15, so cutoff 12 admits
    # nothing: gram_matrix raises it to 15 + CUTOFF_MARGIN, and the reports
    # that build their own Gram read that same Gram
    quad = QuadratureSpec(12, 10_000, 1)
    result = gram_matrix(THEOREM1, 8, quad)
    assert result.spec == quad.with_max_degree(19)
    assert len(result.basis()) == result.basis_size
    built = []

    def recorded(*args):
        built.append(real(*args))
        return built[-1]

    real = bergman.gram_matrix
    monkeypatch.setattr(bergman, "gram_matrix", recorded)
    point = (0.01, 0.02j)
    est = lelong_estimate(THEOREM1, 8, quad, rays=2)
    phi = bergman_phi(THEOREM1, 8, quad, point)
    assert [g.spec for g in built] == [result.spec] * 2
    assert built[0] is est.gram
    for gram in built:
        assert np.array_equal(gram.gram, result.gram)
    assert phi == bergman_phi(THEOREM1, 8, quad, point, gram=result)


def test_slope_report_reads_the_gram_it_was_given():
    # a Gram passed at cutoff 20 is the one the slopes are fitted on, so
    # the report names cutoff 20, not the requested 12
    quad = QuadratureSpec(12, 10_000, 42)
    gram = gram_matrix(THEOREM1, 1, quad.with_max_degree(20))
    report = lelong_estimate(THEOREM1, 1, quad, rays=2, gram=gram).to_dict()
    assert report["max_degree_used"] == 20
    assert report["quadrature_nodes"] == gram.nodes
    t = np.geomspace(1e-3, 1e-1, 5)
    scan = curve_scan(THEOREM1, 1, 2, diagonal_curve, t, quad, gram1=gram)
    assert scan.to_dict()["max_degree_used"] == [20, 12]
    assert scan.grams[0] is gram


def test_bergman_phi_reads_the_slopes_gram_below_the_cutoff():
    # cutoff 12 admits nothing at m = 8: bergman_phi reads the Gram at the
    # effective cutoff, the same phi_hat that lelong_estimate fits on
    quad = QuadratureSpec(12, 10_000, 1)
    (u,) = generic_rays(THEOREM1, 1, quad.seed)
    r = np.geomspace(1e-3, 1e-1, 25)  # the slope window
    phi = [bergman_phi(THEOREM1, 8, quad, (ri * u[0], ri * u[1])) for ri in r]
    est = lelong_estimate(THEOREM1, 8, quad, rays=1)
    assert np.polyfit(np.log(r), phi, 1)[0] == pytest.approx(
        est.per_ray[0], rel=1e-9)
    assert est.gram.spec.max_degree > quad.max_degree


@pytest.mark.parametrize("rays", [0, -3])
def test_lelong_estimate_needs_a_ray(rays):
    # no ray used to give a NaN mean with a numpy RuntimeWarning
    with pytest.raises(ValueError, match="rays >= 1"):
        lelong_estimate(THEOREM1, 2, QUAD, rays=rays)


@pytest.mark.parametrize("rays", [2.5, float("nan"), float("inf"), "8"],
                         ids=["2.5", "nan", "inf", "str"])
def test_lelong_estimate_needs_an_integer_ray_count(rays, monkeypatch):
    # refused before any Gram is built or ray drawn: inf drew rays
    # forever, nan failed on an index and 2.5 drew 3 rays
    def refuse(*args, **kwargs):
        raise AssertionError("the count reached the estimate")

    monkeypatch.setattr(bergman, "gram_matrix", refuse)
    monkeypatch.setattr(bergman, "generic_rays", refuse)
    with pytest.raises(TypeError):
        lelong_estimate(THEOREM1, 2, QUAD, rays=rays)


def test_lelong_estimate_takes_numpy_integer_rays():
    gram = gram_matrix(THEOREM1, 2, QUAD)
    assert (lelong_estimate(THEOREM1, 2, QUAD, rays=np.int64(8),
                            gram=gram).to_dict()
            == lelong_estimate(THEOREM1, 2, QUAD, rays=8, gram=gram).to_dict())


def test_degree_zero_block_at_the_origin():
    # the trivial weight's kernel has a degree-0 block, whose term takes no
    # 0 * log r (NaN at r = 0): at the origin it reads K(0) = 2 / pi^2,
    # 1 / vol(B^4), as next to it.  theorem1's lowest degree is positive,
    # so its phi_hat is -inf at the origin
    quad = QuadratureSpec(4, 10_000, 42)
    trivial, theorem1 = (gram_matrix(arr, 1, quad)
                         for arr in (ZERO_WEIGHT, THEOREM1))
    x = np.array([0.0, 1e-3, 0.3 + 0.1j, 0.0, 0.0])
    y = np.array([0.0, 0.0, 0.5j, 1e-200, 0.0])
    with np.errstate(invalid="raise"):
        at_zero = bergman_phi(ZERO_WEIGHT, 1, quad, (0j, 0j), gram=trivial)
        assert math.isfinite(at_zero)
        assert at_zero == bergman_phi(ZERO_WEIGHT, 1, quad, (1e-300, 0j),
                                      gram=trivial)
        assert at_zero == pytest.approx(0.5 * math.log(2 / math.pi ** 2),
                                        rel=1e-12)
        assert bergman_phi(THEOREM1, 1, quad, (0j, 0j),
                           gram=theorem1) == -math.inf
        for gram in (trivial, theorem1):
            assert np.isfinite(kernel_values(gram, x, y)).all()


# lines x and x + 3y with weights 1/2 and 99/100 (exponent -0.99 on the
# second line at m = 1), and lines x and x + 10^300 y
NEAR_MINUS_ONE = new_arrangement([(1, 0), (1, 3)],
                                 [Fraction(1, 2), Fraction(99, 100)])
HUGE_LINE = new_arrangement([(1, 0), (1, 10 ** 300)],
                            [Fraction(1, 2), Fraction(3, 4)])


@pytest.mark.parametrize("arr", [THEOREM1, NEAR_MINUS_ONE, HUGE_LINE],
                         ids=["theorem1", "near-minus-one", "huge-line"])
def test_kernel_chunks_match_one_pass(arr, monkeypatch):
    # the slopes and a scan, with the kernel taken one ray or 10 points at
    # a time, equal those of one pass over all points (8 rays x 25 radii),
    # and the rows of phi_hat behind the slopes equal phi_hat on the points
    # r u, to 4 ulp
    quad = QuadratureSpec(12, 10_000, 42)
    grams = {m: gram_matrix(arr, m, quad) for m in (1, 2)}
    t = np.geomspace(1e-3, 1e-1, 25)
    r = np.geomspace(*bergman.SLOPE_WINDOW)

    def report():
        est = lelong_estimate(arr, 1, quad, gram=grams[1])
        scan = curve_scan(arr, 1, 2, diagonal_curve, t, quad,
                          gram1=grams[1], gram2=grams[2])
        return est.per_ray, scan.phi1, scan.phi2

    one_pass = report()
    # the rows of phi_hat behind the slopes (8 rays x 25 radii), and phi_hat
    # on the points r u: homogeneity reads each ray's block kernels once,
    # the point path once per radius.  The slopes are one fixed linear map
    # of the rows, so the paths are compared on the rows: a slope near 0
    # cancels values near |phi_hat| and magnifies their ulp
    u = np.array(generic_rays(arr, 8, quad.seed))
    rows = bergman._log_kernel_chunk(grams[1], u[:, 0], u[:, 1],
                                     np.log(r)[None, :]) / 2.0
    points = np.array([bergman._log_kernel_on_points(grams[1], r * v[0],
                                                     r * v[1]) / 2.0
                       for v in u])
    assert one_pass[0] == bergman._slopes(np.log(r), rows).tolist()
    widths = []
    real_chunk = bergman._log_kernel_chunk

    def recorded(result, ux, *args):
        widths.append(len(ux))
        return real_chunk(result, ux, *args)

    monkeypatch.setattr(bergman, "_CHUNK", 10)
    monkeypatch.setattr(bergman, "_log_kernel_chunk", recorded)
    chunked = report()
    assert max(widths) == 10 and min(widths) < 10
    np.testing.assert_array_max_ulp(rows, points, maxulp=4)
    for whole, parts in zip(one_pass, chunked):
        np.testing.assert_array_max_ulp(np.array(whole), np.array(parts),
                                        maxulp=4)


def _exact_slope(log_t, row):
    """Least-squares slope of the floats `row` against `log_t`, taken
    exactly in Fractions and rounded once."""
    t, p = [Fraction(v) for v in log_t], [Fraction(v) for v in row]
    t_mean, p_mean = sum(t) / len(t), sum(p) / len(p)
    return float(sum((a - t_mean) * (b - p_mean) for a, b in zip(t, p))
                 / sum((a - t_mean) ** 2 for a in t))


@pytest.mark.parametrize("m", [1, 2])
def test_slopes_match_the_exact_fit_of_large_phi(m):
    # on x, x + 10^300 y phi_hat is about 516: uncentred rows lose the
    # slope's last digits to rows @ dt (8.8e-14 off the exact fit at m = 1)
    quad = QuadratureSpec(12, 10_000, 42)
    gram = gram_matrix(HUGE_LINE, m, quad)
    log_r = np.log(np.geomspace(*bergman.SLOPE_WINDOW))
    u = np.array(generic_rays(HUGE_LINE, 8, quad.seed))
    rows = bergman._log_kernel_chunk(gram, u[:, 0], u[:, 1],
                                     log_r[None, :]) / (2.0 * m)
    assert np.abs(rows).min() > 500
    est = lelong_estimate(HUGE_LINE, m, quad, gram=gram)
    exact = [_exact_slope(log_r, row) for row in rows]
    assert np.abs(np.array(est.per_ray) - exact).max() <= 1e-15


def test_ray_slopes_read_each_direction_once(monkeypatch):
    # the block kernels of a ray are read once for all its radii, not
    # once per point r u: N rays send N columns through the blocks, at
    # most _CHUNK // 25 per pass
    gram = gram_matrix(THEOREM1, 1, QUAD)
    columns = []
    real_chunk = bergman._log_kernel_chunk

    def recorded(result, ux, *args):
        columns.append(len(ux))
        return real_chunk(result, ux, *args)

    monkeypatch.setattr(bergman, "_log_kernel_chunk", recorded)
    step = bergman._CHUNK // 25
    for rays in (1, 8, 400, step + 1):
        columns.clear()
        est = lelong_estimate(THEOREM1, 1, QUAD, rays=rays, gram=gram)
        assert sum(columns) == rays
        assert max(columns) * 25 <= bergman._CHUNK
    # across the chunk boundary the slopes are those of one kernel call
    # per pass, bit for bit: each pass reads the shared row of log radii
    assert columns == [step, 1]
    log_r = np.log(np.geomspace(*bergman.SLOPE_WINDOW))
    u = np.array(generic_rays(THEOREM1, step + 1, QUAD.seed))
    rows = np.concatenate([
        real_chunk(gram, part[:, 0], part[:, 1], log_r[None, :])
        for part in (u[:step], u[step:])]) / 2.0
    assert est.per_ray == bergman._slopes(log_r, rows).tolist()
    # the loop that rays and points share takes no pass over no points
    columns.clear()
    assert kernel_values(gram, np.array([]), np.array([])).shape == (0,)
    assert columns == []


def _direct_log_kernel(result, ux, uy, log_r):
    """log K(r u) as `_log_kernel_chunk` defines it, with the rows of each
    block taken as the direct powers x^(t-i) y^i."""
    base = sum(result.line_powers)
    log_lines = np.full(len(ux), -result.log_scale)
    for line, power in zip(result._arr.lines, result.line_powers):
        if power:
            log_lines += 2.0 * power * (np.log(line.modulus(ux, uy))
                                        + line.log_norm)
    terms = []
    for block in result.blocks:
        i = np.arange(block.degree - base + 1)[:, None]
        sigma = block.transform.T @ (ux ** (block.degree - base - i)
                                     * uy ** i)
        terms.append(np.log(np.sum(np.abs(sigma) ** 2, axis=0))[:, None]
                     + 2.0 * block.degree * log_r)
    top = np.max(terms, axis=0)
    return log_lines[:, None] + top + np.log(np.sum(np.exp(terms - top),
                                                    axis=0))


def test_kernel_rows_match_direct_powers():
    # the kernel grows the monomial rows of each pass in place from degree
    # 0, past the degrees below the lowest block (t_lo = 1 here) up to
    # cofactor degree 47: at rays (one shared row of radii) and at points
    # (one radius each) it matches the block kernels of direct powers
    gram = gram_matrix(THEOREM1, 1, QuadratureSpec(47, 10_000, 42))
    base = sum(gram.line_powers)
    assert gram.blocks[0].degree - base > 0
    assert gram.blocks[-1].degree - base == 47
    u = np.array(generic_rays(THEOREM1, 50, 7))
    rng = np.random.default_rng(3)
    log_r = np.log(np.geomspace(*bergman.SLOPE_WINDOW))
    for log_radii in (log_r[None, :],
                      rng.uniform(log_r[0], log_r[-1], (len(u), 1))):
        np.testing.assert_array_max_ulp(
            bergman._log_kernel_chunk(gram, u[:, 0], u[:, 1], log_radii),
            _direct_log_kernel(gram, u[:, 0], u[:, 1], log_radii),
            maxulp=4)


def test_bergman_phi_bounded_without_singularity():
    quad = QuadratureSpec(4, 50_000, 42)
    gram = gram_matrix(ZERO_WEIGHT, 1, quad)
    values = [
        bergman_phi(ZERO_WEIGHT, 1, quad, (0.4 * math.cos(t), 0.4 * math.sin(t)),
                    gram=gram)
        for t in np.linspace(0, 3, 7)
    ]
    assert all(math.isfinite(v) for v in values)
    assert max(values) - min(values) < 2.0


def test_bergman_phi_slope_matches_symbolic():
    quad = QuadratureSpec(12, 50_000, 42)
    est = lelong_estimate(THEOREM1, 3, quad)
    assert est.value == pytest.approx(2.0, abs=0.05)
    point = preset("point")
    est2 = lelong_estimate(point, 2, QuadratureSpec(8, 50_000, 42))
    assert est2.value == pytest.approx(0.5, abs=0.05)
    est3 = lelong_estimate(point, 3, QuadratureSpec(8, 50_000, 42))
    assert est3.value == pytest.approx(2 / 3, abs=0.05)


def test_bergman_phi_on_witness_ray():
    # slope of phi_hat_3 along z = r*(1,1)/sqrt(2) recovers the Lelong
    # number 2 of its class
    quad = QuadratureSpec(12, 50_000, 42)
    gram = gram_matrix(THEOREM1, 3, quad)
    r = np.geomspace(1e-3, 1e-1, 20)
    u = 1 / math.sqrt(2)
    values = [
        bergman_phi(THEOREM1, 3, quad, (ri * u, ri * u), gram=gram) for ri in r
    ]
    slope = np.polyfit(np.log(r), values, 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_curve_scan_flat_for_smooth():
    quad = QuadratureSpec(8, 50_000, 42)
    t = np.geomspace(1e-3, 1e-1, 20)
    scan = curve_scan(preset("smooth"), 2, 5, diagonal_curve, t, quad)
    assert abs(scan.slope) < 0.05
    rows = scan.rows()
    assert len(rows) == 20 and len(rows[0]) == 4


def test_curve_scan_witness_direction():
    quad = QuadratureSpec(12, 50_000, 42)
    t = np.geomspace(1e-3, 1e-1, 20)
    scan = curve_scan(THEOREM1, 3, 4, diagonal_curve, t, quad)
    assert scan.slope == pytest.approx(-0.25, abs=0.05)


def test_gram_audit_dict_round_trip():
    result = gram_matrix(THEOREM1, 3, QuadratureSpec(7, 50_000, 42))
    data = result.to_dict()
    assert data["m"] == 3 and len(data["monomials"]) == result.basis_size
    assert data["effective_rank"] <= result.basis_size


def test_dense_views_refuse_a_scale_beyond_floats():
    # x + 2^1998 y, weight 99/100: exp(log_scale) underflows to 0, so the
    # dense gram does not exist
    arr = new_arrangement([(1, 0), (Fraction(1, 2 ** 999), 2 ** 999)],
                          [Fraction(1, 2), Fraction(99, 100)])
    result = gram_matrix(arr, 1, QuadratureSpec(12, 10_000, 42))
    assert result.log_scale < -2700
    with pytest.raises(bergman.DenseScaleError, match="log_scale"):
        result.gram


# -- the deterministic Hopf rule ------------------------------------------

def _max_relative(a, b):
    """Largest |a - b| over sqrt(a_jj a_kk), entry by entry."""
    diag = np.sqrt(np.diag(a).real)
    return float((np.abs(a - b) / np.outer(diag, diag)).max())


def _beta(p, q):
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hopf_toric_beta_closed_forms(m):
    # lines x, y: the sphere mean of |x|^(2(e_x+t-i)) |y|^(2(e_y+i)) is the
    # Beta integral B(e_x+t-i+1, e_y+i+1), and every off-diagonal entry
    # vanishes by the circle action in each variable
    arr = new_arrangement([(1, 0), (0, 1)], ["3/4", "2/5"])
    result = gram_matrix(arr, m, QuadratureSpec(10, 10_000, 1))
    e_x, e_y = (float(b - m * a)
                for b, a in zip(result.line_powers, arr.coeffs))
    s_hom = 2 * m * arr.total_mass
    base = sum(result.line_powers)
    for block in result.blocks:
        t = block.degree - base
        want = [bergman.SPHERE_AREA
                * radial_factor(2 * block.degree, s_hom)
                * _beta(e_x + t - i + 1, e_y + i + 1) for i in range(t + 1)]
        got = np.diag(block.gram).real
        assert np.allclose(got, want, rtol=1e-8, atol=0.0)
        off = block.gram - np.diag(np.diag(block.gram))
        assert np.abs(off).max() <= 1e-14 * max(want)
    assert np.all(result.stderr == 0.0)


def test_hopf_trivial_weight_exact():
    result = gram_matrix(ZERO_WEIGHT, 1, QuadratureSpec(6, 10_000, 1))
    want = np.diag([math.pi ** 2 * math.factorial(u) * math.factorial(v)
                    / math.factorial(u + v + 2) for u, v in result.monomials])
    assert np.abs(result.gram - want).max() <= 1e-13 * want.max()
    # no lines: one chart, Gauss-Jacobi on [0, 1/4] and the two panels
    # [1/4, 1/2], [1/2, 1]
    assert result.nodes == bergman.HOPF_ANGLES * (bergman.HOPF_JACOBI
                                                  + 2 * bergman.HOPF_LEGENDRE)


def _doubled_nodes(monkeypatch):
    for name in ("HOPF_JACOBI", "HOPF_LEGENDRE", "HOPF_ANGLES"):
        monkeypatch.setattr(bergman, name, 2 * getattr(bergman, name))


CLOSE_LINES = new_arrangement(
    [(1, 0), ((1, 0), (1, "1/3")), (1, "1/1000")], ["2/3", "3/4", "3/5"])
# one line; x and x + 2^1998 y, whose unit frames round to those of x and
# y; and x, y, x + (1+i)/2 y with a point mass
ONE_LINE = new_arrangement([(1, 0)], ["3/4"])
HUGE_NORM = new_arrangement([(1, 0), (Fraction(1, 2 ** 999), 2 ** 999)],
                            [Fraction(1, 2), Fraction(99, 100)])
GAUSSIAN_LINES = new_arrangement(
    [(1, 0), (0, 1), (1, ("1/2", "1/2"))], ["1/2", "2/3", "5/6"], "1/4")


@pytest.mark.parametrize("arr, m, degree", [
    (THEOREM1, 1, 12), (THEOREM1, 4, 12), (THEOREM1, 8, 20),
    (CLOSE_LINES, 1, 10), (CLOSE_LINES, 3, 10),
    (ZERO_WEIGHT, 1, 47), (THEOREM1, 1, 47), (CLOSE_LINES, 1, 47),
], ids=["theorem1-m1", "theorem1-m4", "theorem1-m8", "close-m1",
        "close-m3", "trivial-top", "theorem1-m1-top", "close-m1-top"])
def test_hopf_converged(arr, m, degree, monkeypatch):
    # doubling every node count moves the blocks by less than 1e-6; the
    # close pair x, x + y/1000 sits at chordal distance 1e-3, next to the
    # Gaussian-rational line x + (1 + i/3) y.  The "top" cases reach
    # cofactor degree 47, the largest the rule accepts.
    quad = QuadratureSpec(degree, 10_000, 1)
    result = gram_matrix(arr, m, quad)
    _doubled_nodes(monkeypatch)
    finer = gram_matrix(arr, m, quad)
    # every count doubled: twice the angles times twice the radial nodes,
    # so the cached rule must have been rebuilt for the new counts
    assert finer.nodes == 4 * result.nodes
    assert _max_relative(result.gram, finer.gram) < 1e-6


@pytest.mark.parametrize("arr, m, degree", [
    *((THEOREM1, m, 12) for m in (1, 2, 3, 4, 5)), (THEOREM1, 8, 20),
    (ZERO_WEIGHT, 1, 47), (THEOREM1, 1, 47), (CLOSE_LINES, 1, 47),
    *((new_arrangement(lines, [Fraction(1, 2), 1 - Fraction(1, 10 ** k)]),
       1, 12) for lines in ([(1, 0), (0, 1)], [(1, 0), (1, 3)])
      for k in (2, 6, 9)),
    (HUGE_LINE, 1, 12), (ZERO_WEIGHT, 1, 12),
    (ONE_LINE, 1, 47), (HUGE_NORM, 1, 47), (GAUSSIAN_LINES, 1, 47),
], ids=[*(f"theorem1-m{m}" for m in (1, 2, 3, 4, 5, 8)), "trivial-top",
        "theorem1-m1-top", "close-m1-top",
        *(f"{pair}-k{k}" for pair in ("toric", "x-x3y") for k in (2, 6, 9)),
        "huge-line", "trivial", "x-top", "huge-norm-top", "gaussian-top"])
def test_gram_blocks_match_per_block_sums(arr, m, degree):
    # gram_matrix sums only the top block, chart by chart from the angular
    # spectrum, and takes each lower block from the one above by
    # |x|^2 + |y|^2 = 1: every block matches the blocks summed one by one
    # over the nodes to 1e-13 of sqrt(G_ii G_jj), also after 47 steps down
    result = gram_matrix(arr, m, QuadratureSpec(degree, 10_000, 1))
    reference = per_block_grams(arr, result)
    assert len(reference) == len(result.blocks) > 1
    for block, gram in zip(result.blocks, reference):
        assert _max_relative(gram, block.gram) <= 1e-13


@pytest.mark.parametrize("arr, t", [
    (THEOREM1, 12), (THEOREM1, 47), (CLOSE_LINES, 47), (HUGE_LINE, 47),
    (ZERO_WEIGHT, 5),
], ids=["theorem1", "theorem1-top", "close-top", "huge-line-top", "trivial"])
def test_chart_rows_expand_the_monomials(arr, t):
    # sum_k M_j[i, k] a^(t-k) b^k is x^(t-i) y^i at the nodes
    # x = a p + b n of chart j, a = sqrt(1-s), b = sqrt(s) e^{i phi}
    angles = bergman.HOPF_ANGLES
    phase = np.exp(2j * np.pi * np.arange(angles) / angles)
    rule = bergman._hopf_nodes(arr, (0.0,) * len(arr.lines),
                               bergman.HOPF_JACOBI, bergman.HOPF_LEGENDRE,
                               angles)
    k = np.arange(t + 1)[:, None]
    for chart, rows, (s, _, _) in zip(hopf_charts(arr),
                                      bergman._chart_rows(arr, t), rule):
        a = np.repeat(np.sqrt(1.0 - s), angles)
        b = np.outer(np.sqrt(s), phase).ravel()
        x, y = (a * p + b * n for p, n in zip(chart.point, chart.normal))
        got = rows @ (a ** (t - k) * b ** k)
        want = x ** (t - k) * y ** k
        # |x|, |y| <= 1: each side is off by about t ulp of 1
        assert np.abs(got - want).max() <= 2 * (t + 1) * np.finfo(float).eps


def _expanded_rows(px, nx, py, ny, t):
    # x^(t-i) y^i by exact form products, over 2^(64 t), rounded once
    fx, fy = HomogeneousForm(1, (px, nx)), HomogeneousForm(1, (py, ny))
    den = bergman._FIXED ** t
    return np.array([[complex(re / den, im / den)
                      for re, im in (fx.power(t - i) * fy.power(i)).coeffs]
                     for i in range(t + 1)])


@pytest.mark.parametrize("arr", [THEOREM1, CLOSE_LINES, GAUSSIAN_LINES],
                         ids=["theorem1", "close", "gaussian"])
def test_chart_rows_are_the_exact_expansion(arr):
    # the division recurrence, and the half of the rows taken by symmetry,
    # give bit for bit the product expansion of the fixed-point frame, at
    # cofactor degree 47; the frame x = nx b (px = 0) of the line x included
    t, fixed = 47, bergman._FIXED
    for chart, rows in zip(hopf_charts(arr), bergman._chart_rows(arr, t)):
        px, py, nx, ny = ((round(z.real * fixed), round(z.imag * fixed))
                          for z in (*chart.point, *chart.normal))
        assert np.array_equal(rows, _expanded_rows(px, nx, py, ny, t))


def test_frame_rows_divide_exactly_on_any_frame():
    # a Gaussian-integer frame with no symmetry: every row by the recurrence
    frame = (3, -2), (5, 1), (-7, 4), (2, 9)
    for t in (0, 1, 6, 21):
        assert np.array_equal(bergman._frame_rows(*frame, t, t),
                              _expanded_rows(*frame, t))


def test_node_set_shared_across_m():
    # the rule is built once per exponent class e_i = floor(m a_i) - m a_i:
    # on theorem1 (weights 2/3) m = 1 and m = 4 share e = -2/3, while
    # m = 3 (e = 0) and m = 8 (e = -1/3) do not.
    # Grams at m = 1, 3, 8, 4 equal, bit for bit, those from a fresh build
    quad = QuadratureSpec(20, 10_000, 1)
    bergman._hopf_nodes.cache_clear()
    shared = {m: gram_matrix(THEOREM1, m, quad) for m in (1, 3, 8)}
    assert bergman._hopf_nodes.cache_info().misses == 3
    shared[4] = gram_matrix(THEOREM1, 4, quad)
    assert bergman._hopf_nodes.cache_info().hits == 1
    assert bergman._hopf_nodes.cache_info().misses == 3
    for m, result in shared.items():
        bergman._hopf_nodes.cache_clear()
        fresh = gram_matrix(THEOREM1, m, quad)
        assert fresh.nodes == result.nodes
        assert np.array_equal(fresh.gram, result.gram)


def test_huge_degree_cutoff_refused_before_allocating(monkeypatch):
    def no_list(degrees):
        raise AssertionError("monomial list built")

    monkeypatch.setattr(bergman, "_cofactor_monomials", no_list)
    with pytest.raises(DegreeCutoffError, match="cofactor degree"):
        gram_matrix(THEOREM1, 3, QuadratureSpec(10 ** 12, 10_000, 1))


def test_degree_cutoff_beyond_the_rule_raises():
    # cofactor degree 48 has angular modes +-48, which 48 trapezoid angles
    # alias onto mode 0: refused, not integrated wrongly
    quad = QuadratureSpec(48, 10_000, 1)
    with pytest.raises(DegreeCutoffError, match="cofactor degree 48"):
        gram_matrix(THEOREM1, 1, quad)
    with pytest.raises(DegreeCutoffError):
        gram_matrix(ZERO_WEIGHT, 1, quad)
    # at m = 3 the line powers take degree 6 of the cutoff: cofactor 42
    assert gram_matrix(THEOREM1, 3, quad).basis_size == sum(range(44))


def test_huge_line_coefficient_slopes():
    # x + 10^300 y once overflowed the Shepard distances of the Hopf rule
    huge = new_arrangement([(1, 0), (1, 10 ** 300)],
                           [Fraction(1, 2), Fraction(3, 4)])
    quad = QuadratureSpec(max_degree=12, sphere_samples=10_000, seed=42)
    assert lelong(entry(huge, 2).cls) == 1
    assert abs(lelong_estimate(huge, 2, quad).value - 1.0) <= 0.05
    t = np.geomspace(1e-3, 1e-1, 25)
    assert abs(curve_scan(huge, 2, 3, diagonal_curve, t, quad).slope) <= 0.05
