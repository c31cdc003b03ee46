"""Numeric reconstruction of the approximation weights from first principles.

phi_m is (1/2m) log of the Bergman kernel of the space of holomorphic
functions on the unit ball that are square integrable against e^{-2m phi}.
For arrangement weights every admissible basis element is homogeneous, so
each inner product splits into an exact radial integral times an integral
over the unit sphere S^3.  The weight is invariant under z -> e^{i theta} z,
so elements of different total degree are orthogonal, and the same-degree
sphere integrands are constant on the Hopf fibres: their means are
integrals over CP^1, taken with a deterministic rule graded toward the
line points.  The Gram matrix is computed and factorized one degree block
at a time to an orthonormal basis, giving a computable lower truncation phi_hat of phi_m whose slopes near 0 recover the
symbolic singularity data.  The kernel is evaluated in log space by
homogeneity, so high degrees neither underflow nor overflow.

Admissibility of a basis element is decided symbolically (ideal
membership); the quadrature never gets to vote on integrability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .arrangement import Line, WeightedArrangement
from .multiplier_ideal import expand, ideal_of, min_admissible_degree
from .polynomials import BivariatePolynomial
from .singularity import generic_rays

MIN_SPHERE_SAMPLES = 10_000
SPHERE_AREA = 2.0 * math.pi ** 2  # |S^3|
RANK_TOLERANCE = 1e-8
_CHUNK = 1 << 13
# Hopf rule per line chart: Gauss-Jacobi nodes near the line point,
# Gauss-Legendre nodes per dyadic panel beyond it, trapezoid angles.  Fixed,
# so that the node set does not depend on the degree cutoff.  The angular
# modes of a cofactor-degree-t block run from -t to t, so the trapezoid rule
# takes every one of them exactly only while t < HOPF_ANGLES: that is the
# largest cofactor degree `gram_matrix` accepts.
HOPF_JACOBI, HOPF_LEGENDRE, HOPF_ANGLES = 16, 16, 48
# Smallest Gauss-Jacobi disc: 64 dyadic panels at most.  Line points closer
# than about 2^-31 in chordal distance are barely told apart by the double
# precision values of the line forms at the nodes anyway.
HOPF_MIN_S1 = 2.0 ** -64


class NonIntegrableExponentError(ArithmeticError):
    """The radial exponent left the integrable range; the basis filter is
    broken if this ever triggers on admissible input."""


class EmptyBasisError(ValueError):
    """No admissible basis element exists below the degree cutoff."""


class DegreeCutoffError(ValueError):
    """The degree cutoff asks for cofactor degrees beyond the range that
    the fixed Hopf rule integrates exactly in its angle."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation parameters for the Gram computation.

    The Gram itself is deterministic.  `seed` picks the rays of
    `lelong_estimate`; `sphere_samples` and `seed` fix the Monte Carlo
    sample of `sphere_points` that cross-checks of the rule draw.
    """

    max_degree: int
    sphere_samples: int
    seed: int
    radius: float = 1.0

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.sphere_samples < MIN_SPHERE_SAMPLES:
            raise ValueError(
                f"sphere_samples must be >= {MIN_SPHERE_SAMPLES}"
            )
        if not (0 < self.radius < math.inf):
            raise ValueError("radius must be positive and finite")

    def with_max_degree(self, n: int) -> "QuadratureSpec":
        return replace(self, max_degree=n)


def _basis_layout(arr: WeightedArrangement, m: int, max_degree: int
                  ) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    """Line powers b, base degree, and monomial cofactors of the basis.

    The degree <= N part of J(m phi) is spanned by prod ell^b times the
    monomials x^u y^v with u+v >= p and sum(b)+u+v <= N.
    """
    ideal = ideal_of(arr, m)
    base = sum(ideal.b)
    monos = [
        (u, t - u)
        for t in range(ideal.p, max(max_degree - base, ideal.p - 1) + 1)
        if base + t <= max_degree
        for u in range(t, -1, -1)
    ]
    return ideal.b, base, monos


def admissible_basis(arr: WeightedArrangement, m: int, max_degree: int
                     ) -> list[BivariatePolynomial]:
    """Degree-sorted basis of the admissible (square-integrable) monomial
    span up to the total-degree cutoff, as expanded polynomials."""
    b, _base, monos = _basis_layout(arr, m, max_degree)
    return expand(arr, b, monos)


def radial_factor(d_total: int, s, radius: float = 1.0) -> float:
    """Exact integral of r^(d_total - s + 3) over (0, radius].

    `s` is the homogeneity degree 2m*total_mass of the weight; the
    integrand exponent must stay above -1.
    """
    power = float(d_total) - float(s) + 4.0
    if power <= 0:
        raise NonIntegrableExponentError(
            f"radial exponent {power - 1} is not integrable; "
            "an inadmissible element slipped through the basis filter"
        )
    return radius ** power / power


def sphere_points(count: int, seed: int) -> np.ndarray:
    """`count` uniform points on S^3 in C^2, deterministic in the seed
    (a counter-based generator, so the stream is a pure function of
    (seed, index)): the Monte Carlo sample that checks the Hopf rule."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = gen.standard_normal((count, 4))
    norm = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    norm[norm == 0.0] = 1.0
    raw *= (1.0 / norm)[:, None]
    return raw.view(np.complex128)  # rows (re x, im x, re y, im y)


def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1] for the weight s^alpha (alpha > -1).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    polynomials orthogonal for (1 + x)^alpha on [-1, 1], mapped by
    s = (1 + x) / 2; the weights are the squared first eigenvector
    components times the weight's mass 1 / (alpha + 1).
    """
    k = np.arange(1, n, dtype=np.float64)
    two_k = 2.0 * k + alpha
    diag = np.empty(n)
    diag[0] = alpha / (alpha + 2.0)
    diag[1:] = alpha ** 2 / (two_k * (two_k + 2.0))
    off = 2.0 * k * (k + alpha) / (two_k * np.sqrt((two_k + 1.0)
                                                   * (two_k - 1.0)))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, vectors = np.linalg.eigh(jacobi)
    return (1.0 + x) / 2.0, vectors[0] ** 2 / (alpha + 1.0)


def _chordal2(a: Line, b: Line) -> Fraction:
    """Squared chordal distance |<p_a, n_b>|^2 = 1 - |<p_a, p_b>|^2 of the
    points of two lines on CP^1, exact in Q(i), so that close lines do not
    cancel to 0 in floating point."""
    cross = a.cx * b.cy - a.cy * b.cx
    return cross.abs2() / ((a.cx.abs2() + a.cy.abs2())
                           * (b.cx.abs2() + b.cy.abs2()))


def _hopf_charts(arr: WeightedArrangement):
    """One polar chart per line: (line point p, unit normal n, s1).

    s1 is the largest power of 2 at most a quarter of the squared chordal
    distance to the nearest other line point, so the Gauss-Jacobi disc
    [0, s1] holds no other singularity and closer lines get more dyadic
    panels; it is at least HOPF_MIN_S1.  Without lines, one chart around
    (1, 0).
    """
    if not arr.lines:
        return [((1.0 + 0j, 0j), (0j, 1.0 + 0j), 0.25)]
    charts = []
    for line in arr.lines:
        near = min((_chordal2(line, other) for other in arr.lines
                    if other != line), default=Fraction(1))
        _, exp = math.frexp(max(float(near) / 4.0, HOPF_MIN_S1))
        charts.append((line.direction(), line.unit_normal(), 2.0 ** (exp - 1)))
    return charts


def _radial_rule(alpha: float, s1: float,
                 legendre: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and plain weights for ds on [0, 1]: Gauss-Jacobi for s^alpha
    on [0, s1] (its weights divided by s^alpha), then the Gauss-Legendre
    rule `legendre` of [0, 1] on the panels [s1, 2 s1], ..., [1/2, 1]."""
    sj, wj = _gauss_jacobi(HOPF_JACOBI, alpha)
    nodes, weights = [s1 * sj], [s1 * wj / sj ** alpha]
    sl, wl = legendre
    edge = s1
    while edge < 1.0:
        nodes.append(edge * (1.0 + sl))
        weights.append(edge * wl)
        edge *= 2.0
    return np.concatenate(nodes), np.concatenate(weights)


def _hopf_nodes(arr: WeightedArrangement, exponents: Sequence[float]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (x, y) on S^3 and weights w with sum(w * F) ~ the S^3 mean of
    any Hopf-fibre invariant F carrying the factor prod |ell_j|^(2 e_j).

    Chart j is q = sqrt(1-s) p_j + sqrt(s) e^{i phi} n_j with measure
    ds dphi / 2pi (the normalized area of CP^1), in which
    |ell_j(q)| = |ell_j| sqrt(s).  The charts are joined by the Shepard
    partition of unity chi_j = s_j^-3 / sum_i s_i^-3 with
    s_i = |ell_i(q)|^2 / |ell_i|^2, so they cover CP^1 without a
    background rule.  A node that lands exactly on another line carries
    chi_j = 0 and is dropped.
    """
    if not exponents:
        exponents = (0.0,)
    phase = np.exp(2j * np.pi * np.arange(HOPF_ANGLES) / HOPF_ANGLES)
    legendre = _gauss_jacobi(HOPF_LEGENDRE, 0.0)
    norms2 = [line.coeff_norm() ** 2 for line in arr.lines]
    xs, ys, ws = [], [], []
    for j, ((p, n, s1), e) in enumerate(zip(_hopf_charts(arr), exponents)):
        s, w = _radial_rule(float(e), s1, legendre)
        inner = np.sqrt(1.0 - s)[:, None]
        outer = np.sqrt(s)[:, None] * phase
        x = (inner * p[0] + outer * n[0]).ravel()
        y = (inner * p[1] + outer * n[1]).ravel()
        w = np.repeat(w / HOPF_ANGLES, HOPF_ANGLES)
        if len(arr.lines) > 1:
            dist = np.array([np.abs(line.evaluate(x, y)) ** 2 / norm2
                             for line, norm2 in zip(arr.lines, norms2)])
            with np.errstate(divide="ignore"):
                w = w / np.sum((dist[j] / dist) ** 3, axis=0)
            keep = w > 0.0
            x, y, w = x[keep], y[keep], w[keep]
        xs.append(x)
        ys.append(y)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(ws)


@dataclass(frozen=True)
class GramBlock:
    """The basis elements of one total degree: their positions in the basis
    order, their Gram block and the orthonormalizing transform."""

    degree: int
    span: slice
    gram: np.ndarray  # block size x block size, Hermitian
    transform: np.ndarray  # block size x block rank


@dataclass
class GramResult:
    """Gram data of the admissible basis for one (arr, m).

    Entries between different total degrees vanish exactly (the weight is
    invariant under z -> e^{i theta} z), so only the same-degree blocks are
    computed and stored.  The dense k x k `gram`, with exact zeros across
    degrees, is assembled from them on first access.  `nodes` is the
    number of Hopf rule nodes used.
    """

    m: int
    spec: QuadratureSpec
    line_powers: tuple[int, ...]
    monomials: list[tuple[int, int]]
    degrees: np.ndarray
    blocks: list[GramBlock]
    effective_rank: int
    degenerate: bool
    nodes: int
    _arr: WeightedArrangement

    @property
    def basis_size(self) -> int:
        return len(self.monomials)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        out = np.zeros((self.basis_size, self.basis_size),
                       dtype=np.complex128)
        for block in self.blocks:
            out[block.span, block.span] = block.gram
        return out

    @property
    def stderr(self) -> np.ndarray:
        """Standard errors of the Gram entries: all 0, since the rule is
        deterministic (its convergence is checked by the test suite)."""
        return np.zeros((self.basis_size, self.basis_size))

    @property
    def transform(self) -> np.ndarray:
        """Orthonormalizing transform of the whole basis (k x rank),
        block diagonal in the degree blocks."""
        out = np.zeros((self.basis_size, self.effective_rank),
                       dtype=np.complex128)
        col = 0
        for block in self.blocks:
            width = block.transform.shape[1]
            out[block.span, col:col + width] = block.transform
            col += width
        return out

    def basis(self) -> list[BivariatePolynomial]:
        return admissible_basis(self._arr, self.m, self.spec.max_degree)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "max_degree": self.spec.max_degree,
            "quadrature_nodes": self.nodes,
            "sphere_samples": self.spec.sphere_samples,
            "seed": self.spec.seed,
            "radius": self.spec.radius,
            "line_powers": list(self.line_powers),
            "monomials": [list(mn) for mn in self.monomials],
            "degrees": self.degrees.tolist(),
            "gram_re": self.gram.real.tolist(),
            "gram_im": self.gram.imag.tolist(),
            "stderr": self.stderr.tolist(),
            "effective_rank": self.effective_rank,
            "degenerate": self.degenerate,
        }


def _line_exponents(arr: WeightedArrangement, line_powers: Sequence[int],
                    m: int) -> list[float]:
    """e_j = b_j - m a_j, the exponent of |ell_j| in |prod ell^b| sqrt(w);
    each lies in (-1, 0]."""
    return [float(power - m * a) for power, a in zip(line_powers, arr.coeffs)]


def _weighted_modulus(arr: WeightedArrangement, line_powers: Sequence[int],
                      m: int, x: np.ndarray, y: np.ndarray,
                      scale: np.ndarray) -> np.ndarray:
    """|prod ell_i^{b_i}| * sqrt(w) = prod |ell_i|^{b_i - m a_i}, times
    `scale` (the square roots of the quadrature weights).

    Each exponent lies in (-1, 0], so no factor overflows or underflows
    however large m is.  The phase of prod ell_i^{b_i} is common to every
    basis element and cancels in each Gram product f_j * conj(f_k), so it
    is never formed.
    """
    out = scale.copy()
    for line, e in zip(arr.lines, _line_exponents(arr, line_powers, m)):
        out *= np.abs(line.evaluate(x, y)) ** e
    return out


def _cofactor_blocks(common: np.ndarray, x: np.ndarray, y: np.ndarray,
                     t_lo: int, t_hi: int, work: tuple[np.ndarray, ...] = ()):
    """Yield the rows of cofactor degree t = t_lo..t_hi, one (t+1) x n
    block each: rows[i] = common * x^(t-i) * y^i.

    Block t+1 is x * block t followed by y * (its last row): two products
    per block, written alternately into the two flat complex buffers of
    `work` (each of at least (t_hi+1) * n entries; allocated here if not
    given).  A yielded block is overwritten two blocks later.
    """
    n = len(x)
    if not work:
        work = tuple(np.empty((t_hi + 1) * n, dtype=np.complex128)
                     for _ in range(2))
    cur, nxt = work
    rows = cur[:n].reshape(1, n)
    rows[0] = common
    for t in range(t_hi + 1):
        if t >= t_lo:
            yield rows
        if t < t_hi:
            grown = nxt[:(t + 2) * n].reshape(t + 2, n)
            np.multiply(rows, x, out=grown[:t + 1])
            np.multiply(rows[-1], y, out=grown[t + 1])
            rows, cur, nxt = grown, nxt, cur


def gram_matrix(arr: WeightedArrangement, m: int, quad: QuadratureSpec
                ) -> GramResult:
    """Gram matrix of the admissible basis, one degree block at a time,
    with the orthonormalizing transform.

    Each block is sum(rows * conj(rows)^T) over the Hopf rule nodes, rows
    being the weighted basis values scaled by the square roots of the node
    weights.
    """
    line_powers, base, monos = _basis_layout(arr, m, quad.max_degree)
    if not monos:
        raise EmptyBasisError(
            f"no admissible element of degree <= {quad.max_degree} for m={m} "
            f"(minimal admissible degree is {min_admissible_degree(arr, m)})"
        )
    degrees = np.array([base + u + v for u, v in monos], dtype=np.int64)
    t_lo, t_hi = sum(monos[0]), sum(monos[-1])
    if t_hi >= HOPF_ANGLES:
        raise DegreeCutoffError(
            f"degree cutoff {quad.max_degree} reaches cofactor degree {t_hi} "
            f"for m={m}; the quadrature rule is exact in its angle only "
            f"below {HOPF_ANGLES} (max degree "
            f"{base + HOPF_ANGLES - 1} here)"
        )
    cofactor_degrees = range(t_lo, t_hi + 1)
    x, y, w = _hopf_nodes(arr, _line_exponents(arr, line_powers, m))
    root_w = np.sqrt(w)

    sums = [np.zeros((t + 1, t + 1), dtype=np.complex128)
            for t in cofactor_degrees]
    # Work buffers for the largest block, allocated once per call: every
    # chunk reuses them, so the accumulation loop allocates nothing sizeable.
    size = (t_hi + 1) * min(_CHUNK, len(x))
    work = (np.empty(size, dtype=np.complex128),
            np.empty(size, dtype=np.complex128))
    conj = np.empty(size, dtype=np.complex128)
    for start in range(0, len(x), _CHUNK):
        xc, yc = x[start:start + _CHUNK], y[start:start + _CHUNK]
        common = _weighted_modulus(arr, line_powers, m, xc, yc,
                                   root_w[start:start + _CHUNK])
        for rows, s_sum in zip(
                _cofactor_blocks(common, xc, yc, t_lo, t_hi, work), sums):
            rows_c = np.conjugate(rows, out=conj[:rows.size].reshape(
                rows.shape))
            s_sum += rows @ rows_c.T

    s_hom = 2 * m * arr.total_mass
    spans, grams = [], []
    start = 0
    for t, s_sum in zip(cofactor_degrees, sums):
        spans.append((base + t, slice(start, start + t + 1)))
        start += t + 1
        block = s_sum * (SPHERE_AREA * radial_factor(2 * (base + t), s_hom,
                                                     quad.radius))
        grams.append((block + block.conj().T) / 2.0)

    eigen = [np.linalg.eigh(gram) for gram in grams]
    lam_max = max(float(eigvals[-1]) for eigvals, _ in eigen)
    blocks = []
    for (degree, span), gram, (eigvals, eigvecs) in zip(spans, grams, eigen):
        keep = eigvals > RANK_TOLERANCE * lam_max
        if lam_max <= 0.0:
            keep[:] = False
        blocks.append(GramBlock(
            degree, span, gram,
            eigvecs[:, keep].conj() / np.sqrt(eigvals[keep])))
    rank = sum(block.transform.shape[1] for block in blocks)
    return GramResult(
        m=m,
        spec=quad,
        line_powers=tuple(line_powers),
        monomials=list(monos),
        degrees=degrees,
        blocks=blocks,
        effective_rank=rank,
        degenerate=rank < len(monos),
        nodes=len(x),
        _arr=arr,
    )


def _log_kernel(result: GramResult, x, y) -> np.ndarray:
    """log of the sum of |sigma_l|^2 over the orthonormal basis, flattened.

    By homogeneity, with z = |z| u: log K(z) = 2 sum_i b_i log|ell_i(u)|
    + logsumexp_d(2d log|z| + log K_d(u)), where K_d is the block-d kernel
    of the cofactor monomials at u.  No power of |z| is ever formed, so
    high degrees neither underflow nor overflow.
    """
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    r = np.hypot(np.abs(x), np.abs(y))
    unit = np.where(r > 0.0, r, 1.0)
    ux, uy = x / unit, y / unit
    base = sum(result.line_powers)
    blocks = result.blocks
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
        log_lines = np.zeros(len(x))
        for line, power in zip(result._arr.lines, result.line_powers):
            if power:
                ell = line.evaluate(ux, uy)
                log_lines += 2.0 * power * np.log(np.abs(ell))
        terms = []
        for block, rows in zip(blocks, _cofactor_blocks(
                np.ones(len(ux)), ux, uy, blocks[0].degree - base,
                blocks[-1].degree - base)):
            if block.transform.shape[1] == 0:
                continue
            sigma = block.transform.T @ rows
            term = np.log(np.sum(sigma.real ** 2 + sigma.imag ** 2, axis=0))
            if block.degree:  # 0 * log|z| would be NaN at z = 0
                term += 2.0 * block.degree * log_r
            terms.append(term)
        if not terms:
            return np.full(len(x), -np.inf)
        terms = np.array(terms)
        top = terms.max(axis=0)
        top = np.where(np.isfinite(top), top, 0.0)  # all -inf at z = 0
        return log_lines + top + np.log(np.sum(np.exp(terms - top), axis=0))


def kernel_values(result: GramResult, x, y) -> np.ndarray:
    """Sum of |sigma_l|^2 over the orthonormal basis, at arrays of points."""
    return np.exp(_log_kernel(result, x, y)).reshape(np.shape(x))


def bergman_phi(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                point: tuple[complex, complex], *,
                gram: GramResult | None = None) -> float:
    """Truncated approximation weight (1/2m) log sum |sigma_l(z)|^2."""
    result = gram if gram is not None else gram_matrix(arr, m, quad)
    return float(_log_kernel(result, [point[0]], [point[1]])[0]) / (2.0 * m)


def _phi_on_points(result: GramResult, x: np.ndarray, y: np.ndarray
                   ) -> np.ndarray:
    return (_log_kernel(result, x, y) / (2.0 * result.m)).reshape(np.shape(x))


def _effective_spec(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                    margin: int = 4) -> QuadratureSpec:
    """Keep the requested degree cutoff unless it admits nothing, in which
    case raise it to (minimal admissible degree + margin).  Slopes near 0
    are governed by the lowest admissible degree, so the raise is safe."""
    lowest = min_admissible_degree(arr, m)
    if quad.max_degree >= lowest:
        return quad
    return quad.with_max_degree(lowest + margin)


@dataclass
class RaySlopes:
    m: int
    value: float
    per_ray: list[float]
    max_degree_used: int
    nodes: int

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "lelong_estimate": self.value,
            "per_ray": self.per_ray,
            "max_degree_used": self.max_degree_used,
            "quadrature_nodes": self.nodes,
        }


def _fit_slope(log_r: np.ndarray, values: np.ndarray) -> float:
    return float(np.polyfit(log_r, values, 1)[0])


def lelong_estimate(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                    *, rays: int = 8, r_lo: float = 1e-3, r_hi: float = 1e-1,
                    n_points: int = 25, gram: GramResult | None = None
                    ) -> RaySlopes:
    """Average slope of phi_hat_m against log r along generic rays."""
    spec = _effective_spec(arr, m, quad)
    result = gram if gram is not None else gram_matrix(arr, m, spec)
    r = np.geomspace(r_lo, r_hi, n_points)
    log_r = np.log(r)
    slopes = []
    for u in generic_rays(arr, rays, spec.seed):
        vals = _phi_on_points(result, r * u[0], r * u[1])
        slopes.append(_fit_slope(log_r, vals))
    return RaySlopes(
        m=m,
        value=float(np.mean(slopes)),
        per_ray=slopes,
        max_degree_used=spec.max_degree,
        nodes=result.nodes,
    )


@dataclass
class CurveScan:
    m1: int
    m2: int
    t: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    slope: float
    max_degree_used: tuple[int, int]
    nodes: tuple[int, int]

    @property
    def delta(self) -> np.ndarray:
        return self.phi2 - self.phi1

    def rows(self) -> list[list[float]]:
        return [
            [float(t), float(p1), float(p2), float(p2 - p1)]
            for t, p1, p2 in zip(self.t, self.phi1, self.phi2)
        ]

    def to_dict(self) -> dict:
        return {
            "m1": self.m1,
            "m2": self.m2,
            "slope": self.slope,
            "max_degree_used": list(self.max_degree_used),
            "quadrature_nodes": list(self.nodes),
            "rows": [
                {"t": r[0], "phi_m1": r[1], "phi_m2": r[2], "delta": r[3]}
                for r in self.rows()
            ],
        }


def curve_scan(arr: WeightedArrangement, m1: int, m2: int,
               curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
               t_grid: np.ndarray, quad: QuadratureSpec, *,
               gram1: GramResult | None = None,
               gram2: GramResult | None = None) -> CurveScan:
    """Tabulate Delta(t) = phi_hat_{m2} - phi_hat_{m1} along a curve through
    the origin and fit its slope against log t.  A negative slope means
    Delta blows up at the origin."""
    t = np.asarray(t_grid, dtype=np.float64)
    x, y = curve(t)
    spec1 = _effective_spec(arr, m1, quad)
    spec2 = _effective_spec(arr, m2, quad)
    g1 = gram1 if gram1 is not None else gram_matrix(arr, m1, spec1)
    g2 = gram2 if gram2 is not None else gram_matrix(arr, m2, spec2)
    spec1, spec2 = g1.spec, g2.spec
    phi1 = _phi_on_points(g1, np.asarray(x, dtype=np.complex128),
                          np.asarray(y, dtype=np.complex128))
    phi2 = _phi_on_points(g2, np.asarray(x, dtype=np.complex128),
                          np.asarray(y, dtype=np.complex128))
    # on a curve inside a line both phi are -inf: the slope is NaN, quietly
    with np.errstate(invalid="ignore"):
        slope = _fit_slope(np.log(t), phi2 - phi1)
    return CurveScan(
        m1=m1, m2=m2, t=t, phi1=phi1, phi2=phi2, slope=slope,
        max_degree_used=(spec1.max_degree, spec2.max_degree),
        nodes=(g1.nodes, g2.nodes),
    )


def diagonal_curve(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The curve x = y = t, the classic witness direction."""
    return t, t


def ray_curve(direction: tuple[complex, complex]
              ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    dx, dy = complex(direction[0]), complex(direction[1])

    def curve(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return t * dx, t * dy

    return curve
