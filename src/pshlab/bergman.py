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
at a time to an orthonormal basis, giving a computable lower truncation
phi_hat of phi_m whose slopes near 0 recover the symbolic singularity
data.  Lines enter as unit forms; their norms make one exact log scale per
Gram.  The kernel is evaluated in log space by homogeneity, so high
degrees neither underflow nor overflow.

Admissibility of a basis element is decided symbolically (ideal
membership); the quadrature never gets to vote on integrability.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .arrangement import HopfChart, WeightedArrangement, hopf_charts
from .multiplier_ideal import expand, ideal_of
from .polynomials import BivariatePolynomial
from .singularity import generic_rays

MIN_SPHERE_SAMPLES = 10_000
# (r_lo, r_hi, points) of the log-spaced radii `lelong_estimate` fits on,
# and the degrees a raised cutoff keeps above the lowest admissible one
SLOPE_WINDOW = (1e-3, 1e-1, 25)
CUTOFF_MARGIN = 4
SPHERE_AREA = 2.0 * math.pi ** 2  # |S^3|
RANK_TOLERANCE = 1e-8
# exp(t) is a finite normal float for t in this range
_EXP_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
# columns of one block product: Gram nodes, or kernel points, per chunk
_CHUNK = 1 << 13
# Hopf rule per line chart: Gauss-Jacobi nodes near the line point,
# Gauss-Legendre nodes per dyadic panel beyond it, trapezoid angles.  Fixed,
# so that the node set does not depend on the degree cutoff.  The angular
# modes of a cofactor-degree-t block run from -t to t, so the trapezoid rule
# takes every one of them exactly only while t < HOPF_ANGLES: that is the
# largest cofactor degree `gram_matrix` accepts.
HOPF_JACOBI, HOPF_LEGENDRE, HOPF_ANGLES = 16, 16, 48


class NonIntegrableExponentError(ArithmeticError):
    """The radial exponent left the integrable range; the basis filter is
    broken if this ever triggers on admissible input."""


class DenseScaleError(ArithmeticError):
    """exp(log_scale) or exp(-log_scale/2) is no finite normal float."""


class DegreeCutoffError(ValueError):
    """The degree cutoff asks for cofactor degrees beyond the range that
    the fixed Hopf rule integrates exactly in its angle, or the basis
    reaches a degree (2^53) that floats no longer hold exactly."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of a Gram and of the estimates built on it.

    `max_degree` is the basis' total-degree cutoff; the Gram is otherwise
    deterministic.  `seed` picks the rays of `lelong_estimate`;
    `sphere_samples` and `seed` size the Monte Carlo sample of
    `sphere_points` that cross-checks of the rule draw.  The ball is the
    unit ball: by homogeneity phi_{m,R}(z) = phi_{m,1}(z/R) + (T - 2/m)
    log R (T the total mass), so no other radius is needed.
    """

    max_degree: int
    sphere_samples: int
    seed: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.sphere_samples < MIN_SPHERE_SAMPLES:
            raise ValueError(
                f"sphere_samples must be >= {MIN_SPHERE_SAMPLES}"
            )

    def with_max_degree(self, n: int) -> "QuadratureSpec":
        return replace(self, max_degree=n)


def _basis_layout(arr: WeightedArrangement, m: int, max_degree: int
                  ) -> tuple[tuple[int, ...], int, range]:
    """Line powers b, base degree sum(b), and the cofactor degrees of the
    basis.

    The degree <= N part of J(m phi) is spanned by prod ell^b times the
    monomials x^u y^v with u+v >= p and sum(b)+u+v <= N.
    """
    ideal = ideal_of(arr, m)
    base = sum(ideal.b)
    return ideal.b, base, range(ideal.p, max(max_degree - base + 1, ideal.p))


def _cofactor_monomials(degrees: range) -> list[tuple[int, int]]:
    return [(u, t - u) for t in degrees for u in range(t, -1, -1)]


def admissible_basis(arr: WeightedArrangement, m: int, max_degree: int
                     ) -> list[BivariatePolynomial]:
    """Degree-sorted basis of the admissible (square-integrable) monomial
    span up to the total-degree cutoff, as expanded polynomials."""
    b, _base, degrees = _basis_layout(arr, m, max_degree)
    return expand(arr, b, _cofactor_monomials(degrees))


def radial_factor(d_total: int, s) -> float:
    """Exact integral of r^(d_total - s + 3) over (0, 1].

    `s` is the homogeneity degree 2m*total_mass of the weight; the
    integrand exponent, taken exactly, must stay above -1.
    """
    power = d_total - Fraction(s) + 4
    if power <= 0:
        raise NonIntegrableExponentError(
            f"radial exponent {power - 1} is not integrable; "
            "an inadmissible element slipped through the basis filter"
        )
    return 1.0 / float(power)


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


def _chart_nodes(j: int, chart: HopfChart, s: np.ndarray, w: np.ndarray,
                 phase: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nodes (x, y), weights and line log moduli log(|ell_i(q)| / |ell_i|)
    (one row per line) of chart j at the radial nodes s with plain weights
    w, times the trapezoid angles `phase`.

    The charts are joined by the Shepard partition of unity
    chi_j = s_j^-3 / sum_i s_i^-3 with s_i = |ell_i(q)|^2 / |ell_i|^2,
    read off the chart's line moduli on its (s, angle) grid, so they cover
    CP^1 without a background rule.  A node that lands exactly on another
    line carries chi_j = 0 and is dropped.
    """
    p, n = chart.point, chart.normal
    inner = np.sqrt(1.0 - s)[:, None]
    outer = np.sqrt(s)[:, None] * phase
    x = (inner * p[0] + outer * n[0]).ravel()
    y = (inner * p[1] + outer * n[1]).ravel()
    w = np.repeat(w / len(phase), len(phase))
    moduli = np.array(chart.moduli(inner, outer)).reshape(-1, x.size)
    if len(moduli) > 1:
        dist = moduli ** 2
        with np.errstate(divide="ignore"):
            w = w / np.sum((dist[j] / dist) ** 3, axis=0)
    keep = w > 0.0
    return x[keep], y[keep], w[keep], np.log(moduli[:, keep])


@functools.lru_cache(maxsize=16)
def _hopf_nodes(arr: WeightedArrangement, exponents: tuple[float, ...],
                jacobi: int, legendre: int, angles: int
                ) -> tuple[np.ndarray, ...]:
    """Nodes (x, y) on S^3 and the factor common = sqrt(w) prod_j
    |ell_j|^e_j of the Hopf rule for the line exponents e, with weights w
    such that sum(w * F) ~ the S^3 mean of any Hopf-fibre invariant F
    carrying the factor prod |ell_j|^(2 e_j).  The arrays are read-only.

    Chart j (`arrangement.hopf_charts`) carries the measure ds dphi / 2pi
    (the normalized area of CP^1).  Its radial rule is Gauss-Jacobi for
    s^e_j on the disc [0, s1] (weights divided by s^e_j), then
    Gauss-Legendre on each dyadic panel [s1, 2 s1], ..., [1/2, 1].

    Cached per exponent class: e_i = floor(m a_i) - m a_i depends on m only
    through m mod L (L the common denominator of the a_i), so a sweep over
    m builds at most one rule per residue.  Keyed by the node counts too,
    so that a changed rule is rebuilt.  Only what `gram_matrix` reads is
    kept: w and the line log moduli are dropped.
    """
    phase = np.exp(2j * np.pi * np.arange(angles) / angles)
    sl, wl = _gauss_jacobi(legendre, 0.0)
    parts = []
    for j, (chart, e) in enumerate(zip(hopf_charts(arr), exponents or (0.0,))):
        sj, wj = _gauss_jacobi(jacobi, e)
        nodes, weights = [chart.s1 * sj], [chart.s1 * wj / sj ** e]
        edge = chart.s1
        while edge < 1.0:
            nodes.append(edge * (1.0 + sl))
            weights.append(edge * wl)
            edge *= 2.0
        parts.append(_chart_nodes(j, chart, np.concatenate(nodes),
                                  np.concatenate(weights), phase))
    x, y, w, log_moduli = (np.concatenate(part, axis=-1)
                           for part in zip(*parts))
    rule = x, y, np.sqrt(w) * np.exp(np.array(exponents) @ log_moduli)
    for array in rule:
        array.flags.writeable = False
    return rule


def _dense_factor(log_scale: float, power: float) -> float:
    """exp(power * log_scale), refused unless it is a finite normal float."""
    if not _EXP_RANGE[0] <= power * log_scale <= _EXP_RANGE[1]:
        raise DenseScaleError(f"log_scale = {log_scale:.6g} puts the dense "
                              "Gram views outside the normal float range")
    return math.exp(power * log_scale)


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
    computed and stored.  The blocks, their transforms and the kernel take
    the lines as unit forms ell_i / |ell_i|; the arrangement's own
    normalization multiplies every Gram entry by exp(log_scale), with
    log_scale = 2 sum_i e_i log|ell_i|.  The dense k x k `gram` and
    `transform`, in that normalization and with exact zeros across
    degrees, are assembled from the blocks.  `nodes` is the number of Hopf
    rule nodes used.
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
    log_scale: float
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
        return out * _dense_factor(self.log_scale, 1.0)

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
        return out * _dense_factor(self.log_scale, -0.5)

    def basis(self) -> list[BivariatePolynomial]:
        return expand(self._arr, self.line_powers, self.monomials)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "max_degree": self.spec.max_degree,
            "quadrature_nodes": self.nodes,
            "sphere_samples": self.spec.sphere_samples,
            "seed": self.spec.seed,
            "line_powers": list(self.line_powers),
            "monomials": [list(mn) for mn in self.monomials],
            "degrees": self.degrees.tolist(),
            "gram_re": self.gram.real.tolist(),
            "gram_im": self.gram.imag.tolist(),
            "stderr": self.stderr.tolist(),
            "effective_rank": self.effective_rank,
            "degenerate": self.degenerate,
        }


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
    being the cofactor monomials times one common factor per node,
    |prod ell_i^b_i| e^{-m phi} sqrt(w) = exp(sum_i e_i log|ell_i|) sqrt(w)
    for the unit forms ell_i, from the nodes' line log moduli.  Each
    e_i = b_i - m a_i lies in (-1, 0], so no factor overflows or underflows
    however large m is; the phase of prod ell_i^b_i cancels in every
    f_j conj(f_k), so it is never formed.

    A cutoff that admits nothing is raised to the lowest admissible degree
    base + p plus CUTOFF_MARGIN, and the result's `spec` names the cutoff
    used: slopes near 0 are governed by the lowest admissible degree.
    """
    line_powers, base, cofactor_degrees = _basis_layout(arr, m,
                                                        quad.max_degree)
    if not cofactor_degrees:
        p = cofactor_degrees.start
        quad = quad.with_max_degree(base + p + CUTOFF_MARGIN)
        cofactor_degrees = range(p, p + CUTOFF_MARGIN + 1)
    # checked before any list is built: a huge cutoff costs nothing here
    t_lo, t_hi = cofactor_degrees[0], cofactor_degrees[-1]
    if t_hi >= HOPF_ANGLES:
        raise DegreeCutoffError(
            f"degree cutoff {quad.max_degree} reaches cofactor degree {t_hi} "
            f"for m={m}; the quadrature rule is exact in its angle only "
            f"below {HOPF_ANGLES} (max degree "
            f"{base + HOPF_ANGLES - 1} here)"
        )
    if base + t_hi >= 2 ** 53:
        raise DegreeCutoffError(
            f"the basis of m={m} reaches degree "
            f"2^{(base + t_hi).bit_length() - 1} or more; floats hold "
            "degrees exactly only below 2^53")
    monos = _cofactor_monomials(cofactor_degrees)
    degrees = np.array([base + u + v for u, v in monos], dtype=np.int64)
    exponents = tuple(float(b - m * a)
                      for b, a in zip(line_powers, arr.coeffs))
    x, y, common = _hopf_nodes(arr, exponents, HOPF_JACOBI, HOPF_LEGENDRE,
                               HOPF_ANGLES)

    sums = [np.zeros((t + 1, t + 1), dtype=np.complex128)
            for t in cofactor_degrees]
    # Work buffers for the largest block, allocated once per call: every
    # chunk reuses them, so the accumulation loop allocates nothing sizeable.
    size = (t_hi + 1) * min(_CHUNK, len(x))
    work = (np.empty(size, dtype=np.complex128),
            np.empty(size, dtype=np.complex128))
    conj = np.empty(size, dtype=np.complex128)
    for start in range(0, len(x), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        for rows, s_sum in zip(_cofactor_blocks(
                common[chunk], x[chunk], y[chunk], t_lo, t_hi, work), sums):
            rows_c = np.conjugate(rows, out=conj[:rows.size].reshape(
                rows.shape))
            s_sum += rows @ rows_c.T

    s_hom = 2 * m * arr.total_mass
    spans, grams = [], []
    start = 0
    for t, s_sum in zip(cofactor_degrees, sums):
        spans.append((base + t, slice(start, start + t + 1)))
        start += t + 1
        block = s_sum * (SPHERE_AREA * radial_factor(2 * (base + t), s_hom))
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
        log_scale=2.0 * sum(e * line.log_norm
                            for e, line in zip(exponents, arr.lines)),
        _arr=arr,
    )


def _log_kernel(result: GramResult, x, y) -> np.ndarray:
    """log of the sum of |sigma_l|^2 over the orthonormal basis, flattened.

    The points are taken _CHUNK at a time, so the row blocks stay as small
    as those of `gram_matrix` however many points are asked for.
    """
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    r = np.hypot(np.abs(x), np.abs(y))
    unit = np.where(r > 0.0, r, 1.0)
    ux, uy = x / unit, y / unit
    with np.errstate(divide="ignore"):
        log_r = np.log(r)[:, None]
    out = np.empty(len(x))
    for start in range(0, len(x), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        out[chunk] = _log_kernel_chunk(result, ux[chunk], uy[chunk],
                                       log_r[chunk])[:, 0]
    return out


def _log_kernel_chunk(result: GramResult, ux: np.ndarray, uy: np.ndarray,
                      log_r: np.ndarray) -> np.ndarray:
    """log K(r u) at unit directions u and log radii `log_r` (one row per
    direction, or one row shared by all), one row per direction.

    By homogeneity, log K(r u) = 2 sum_i b_i log|ell_i(u)| - log_scale
    + logsumexp_d(2d log r + log K_d(u)), where K_d is the block-d kernel
    of the cofactor monomials at u and log|ell_i(u)| the unit form's log
    modulus plus log|ell_i|: each K_d(u) is read once for all radii, and
    no power of r is formed, so high degrees neither underflow nor
    overflow.  A block of rank 0 reads log 0 = -inf.
    """
    base = sum(result.line_powers)
    blocks = result.blocks
    terms = np.empty((len(blocks), len(ux), log_r.shape[1]))
    with np.errstate(divide="ignore"):
        log_lines = np.full(len(ux), -result.log_scale)
        for line, power in zip(result._arr.lines, result.line_powers):
            if power:
                log_lines += 2.0 * power * (np.log(line.modulus(ux, uy))
                                            + line.log_norm)
        for term, block, rows in zip(terms, blocks, _cofactor_blocks(
                np.ones(len(ux)), ux, uy, blocks[0].degree - base,
                blocks[-1].degree - base)):
            sigma = block.transform.T @ rows
            term[:] = np.log(np.sum(sigma.real ** 2 + sigma.imag ** 2,
                                    axis=0))[:, None]
            if block.degree:  # 0 * log r would be NaN at r = 0
                term += 2.0 * block.degree * log_r
        top = terms.max(axis=0)
        top = np.where(np.isfinite(top), top, 0.0)  # all -inf at z = 0
        return (log_lines[:, None] + top
                + np.log(np.sum(np.exp(terms - top), axis=0)))


def kernel_values(result: GramResult, x, y) -> np.ndarray:
    """Sum of |sigma_l|^2 over the orthonormal basis, at arrays of points."""
    return np.exp(_log_kernel(result, x, y)).reshape(np.shape(x))


def _phi_on_points(result: GramResult, x, y) -> np.ndarray:
    return (_log_kernel(result, x, y) / (2.0 * result.m)).reshape(np.shape(x))


def bergman_phi(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                point: tuple[complex, complex], *,
                gram: GramResult | None = None) -> float:
    """Truncated approximation weight (1/2m) log sum |sigma_l(z)|^2."""
    result = gram if gram is not None else gram_matrix(arr, m, quad)
    return float(_phi_on_points(result, *point))


@dataclass
class RaySlopes:
    """Ray slopes of phi_hat, with the Gram they were read from."""

    gram: GramResult
    value: float
    per_ray: list[float]

    def to_dict(self) -> dict:
        return {
            "m": self.gram.m,
            "lelong_estimate": self.value,
            "per_ray": self.per_ray,
            "max_degree_used": self.gram.spec.max_degree,
            "quadrature_nodes": self.gram.nodes,
        }


def _slopes(log_t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Least-squares slope of each row of `rows` against `log_t`."""
    dt = log_t - log_t.mean()
    return rows @ dt / (dt @ dt)


def lelong_estimate(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                    *, rays: int = 8, gram: GramResult | None = None
                    ) -> RaySlopes:
    """Average slope of phi_hat_m against log r on SLOPE_WINDOW along
    `rays` (>= 1) generic rays, all fitted in one product.  The kernel
    takes _CHUNK // 25 rays (at most _CHUNK values) per pass."""
    if rays < 1:
        raise ValueError(f"a slope estimate needs rays >= 1, got {rays}")
    result = gram if gram is not None else gram_matrix(arr, m, quad)
    log_r = np.log(np.geomspace(*SLOPE_WINDOW))[None, :]
    u = np.array(generic_rays(arr, rays, quad.seed))
    step = max(1, _CHUNK // log_r.size)
    phi = np.concatenate([
        _log_kernel_chunk(result, u[i:i + step, 0], u[i:i + step, 1], log_r)
        for i in range(0, rays, step)]) / (2.0 * result.m)
    slopes = _slopes(log_r[0], phi)
    return RaySlopes(result, float(np.mean(slopes)), slopes.tolist())


@dataclass
class CurveScan:
    """Delta = phi_hat_{m2} - phi_hat_{m1} along a curve, with the Grams
    of phi_hat_{m1} and phi_hat_{m2}."""

    grams: tuple[GramResult, GramResult]
    t: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    slope: float

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
            "m1": self.grams[0].m,
            "m2": self.grams[1].m,
            "slope": self.slope,
            "max_degree_used": [g.spec.max_degree for g in self.grams],
            "quadrature_nodes": [g.nodes for g in self.grams],
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
    grams = tuple(g if g is not None else gram_matrix(arr, m, quad)
                  for m, g in ((m1, gram1), (m2, gram2)))
    phi1, phi2 = (_phi_on_points(g, x, y) for g in grams)
    # on a curve inside a line both phi are -inf: the slope is NaN, quietly
    with np.errstate(invalid="ignore"):
        slope = float(_slopes(np.log(t), phi2 - phi1))
    return CurveScan(grams, t, phi1, phi2, slope)


def diagonal_curve(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The curve x = y = t, the classic witness direction."""
    return t, t


def ray_curve(direction: tuple[complex, complex]
              ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    dx, dy = complex(direction[0]), complex(direction[1])

    def curve(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return t * dx, t * dy

    return curve
