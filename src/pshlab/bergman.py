"""Numeric reconstruction of the approximation weights from first principles.

phi_m is (1/2m) log of the Bergman kernel of the space of holomorphic
functions on the unit ball that are square integrable against e^{-2m phi}.
For arrangement weights every admissible basis element is homogeneous, so
each inner product splits into an exact radial integral times an integral
over the unit sphere S^3.  The weight is invariant under z -> e^{i theta} z,
so elements of different total degree are orthogonal, and the same-degree
sphere integrands are constant on the Hopf fibres: their means are
integrals over CP^1, taken with a deterministic rule graded toward the
line points.  Only the top degree block is summed over the rule, per line
chart from the angular spectrum of the weight on the chart's polar grid:
|x|^2 + |y|^2 = 1 on S^3 gives each lower block from the one above.  Each
block is factorized on its own to an orthonormal basis, giving a
computable lower truncation phi_hat of phi_m whose slopes near 0 recover
the symbolic singularity data.  Lines enter as unit forms; their norms
make one exact log scale per Gram.  The kernel is evaluated in log space
by homogeneity, so high degrees neither underflow nor overflow.

Admissibility of a basis element is decided symbolically (ideal
membership); the quadrature never gets to vote on integrability.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .arrangement import HopfChart, WeightedArrangement, hopf_charts
from .multiplier_ideal import expand, ideal_of
from .polynomials import BivariatePolynomial, HomogeneousForm
from .records import Frozen, Record
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
# kernel values per pass of `_log_kernel`, a ray counting once per radius;
# a pass holds its monomial rows in one (top cofactor degree + 1) x
# directions buffer
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
    """exp(log_scale), the dense Gram's scale, is no finite normal float."""


class DegreeCutoffError(ValueError):
    """The degree cutoff asks for cofactor degrees beyond the range that
    the fixed Hopf rule integrates exactly in its angle, or the basis
    reaches a degree (2^53) that floats no longer hold exactly."""


class QuadratureSpec(Frozen):
    """Parameters of a Gram and of the estimates built on it.

    `max_degree` is the basis' total-degree cutoff; the Gram is otherwise
    deterministic.  `seed` picks the rays of `lelong_estimate`;
    `sphere_samples` and `seed` size the Monte Carlo sample of
    `sphere_points` that cross-checks of the rule draw.  The ball is the
    unit ball: by homogeneity phi_{m,R}(z) = phi_{m,1}(z/R) + (T - 2/m)
    log R (T the total mass), so no other radius is needed.
    """

    __slots__ = _fields = ("max_degree", "sphere_samples", "seed")

    def __init__(self, max_degree: int, sphere_samples: int, seed: int):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if sphere_samples < MIN_SPHERE_SAMPLES:
            raise ValueError(
                f"sphere_samples must be >= {MIN_SPHERE_SAMPLES}"
            )
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "sphere_samples", sphere_samples)
        object.__setattr__(self, "seed", seed)

    def with_max_degree(self, n: int) -> "QuadratureSpec":
        return QuadratureSpec(n, self.sphere_samples, self.seed)


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

    `s` is the homogeneity degree 2m*total_mass of the weight, any rational
    or float; the integrand exponent, taken exactly, must stay above -1.
    The exponent ((d_total + 4) den - num) / den is rounded once by int /
    int division, as `Fraction` rounds it, with no Fraction arithmetic.
    """
    num, den = ((s, 1) if isinstance(s, int)
                else Fraction(s).as_integer_ratio())
    power = (d_total + 4) * den - num
    if power <= 0:
        raise NonIntegrableExponentError(
            f"radial exponent {Fraction(power - den, den)} is not integrable; "
            "an inadmissible element slipped through the basis filter"
        )
    return 1.0 / (power / den)


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


def _chart_weights(j: int, chart: HopfChart, s: np.ndarray, w: np.ndarray,
                   phase: np.ndarray, exponents: tuple[float, ...]
                   ) -> np.ndarray:
    """c^2 = w chi_j prod_i (|ell_i(q)| / |ell_i|)^(2 e_i) of chart j on its
    grid of radial nodes s (radial weights w) times the trapezoid angles
    `phase` (weight 1 / angles each), one row per radial node.

    The charts are joined by the Shepard partition of unity
    chi_j = s_j^-3 / sum_i s_i^-3 with s_i = |ell_i(q)|^2 / |ell_i|^2,
    read off the chart's line moduli on its grid, so they cover CP^1
    without a background rule.  A node that lands exactly on another line
    carries chi_j = 0, and c = 0 there.
    """
    inner = np.sqrt(1.0 - s)[:, None]
    outer = np.sqrt(s)[:, None] * phase
    moduli = np.array(chart.moduli(inner, outer)).reshape(-1, *outer.shape)
    w = np.broadcast_to((w / len(phase))[:, None], outer.shape)
    if len(moduli) > 1:
        dist = moduli ** 2
        with np.errstate(divide="ignore"):
            w = w / np.sum((dist[j] / dist) ** 3, axis=0)
    keep = w > 0.0
    c2 = np.zeros(outer.shape)
    c2[keep] = w[keep] * np.exp(2.0 * np.array(exponents)
                                @ np.log(moduli[:, keep]))
    return c2


@functools.lru_cache(maxsize=16)
def _hopf_nodes(arr: WeightedArrangement, exponents: tuple[float, ...],
                jacobi: int, legendre: int, angles: int
                ) -> tuple[tuple[np.ndarray, ...], ...]:
    """The Hopf rule for the line exponents e, one (s, c2, spectrum) per
    chart of `arrangement.hopf_charts`: radial nodes s, the squared common
    factor c^2 = w prod_j |ell_j|^(2 e_j) on the nodes
    q = sqrt(1-s) p + sqrt(s) e^{i phi_a} n (phi_a = 2 pi a / angles), with
    weights w such that sum(w * F) ~ the S^3 mean of any Hopf-fibre
    invariant F carrying the factor prod |ell_j|^(2 e_j), and its angular
    spectrum[r, k] = sum_a c^2[r, a] e^{i k phi_a}.  The arrays are
    read-only.

    Chart j carries the measure ds dphi / 2pi (the normalized area of
    CP^1).  Its radial rule is Gauss-Jacobi for s^e_j on the disc [0, s1]
    (weights divided by s^e_j), then Gauss-Legendre on each dyadic panel
    [s1, 2 s1], ..., [1/2, 1].  The spectrum is one product with the
    powers e^{i k phi_a} = phase[a k mod angles].

    Cached per exponent class: e_i = floor(m a_i) - m a_i depends on m only
    through m mod L (L the common denominator of the a_i), so a sweep over
    m builds at most one rule per residue.  Keyed by the node counts too,
    so that a changed rule is rebuilt.
    """
    phase = np.exp(2j * np.pi * np.arange(angles) / angles)
    powers = phase[np.outer(np.arange(angles), np.arange(angles)) % angles]
    sl, wl = _gauss_jacobi(legendre, 0.0)
    rule = []
    for j, (chart, e) in enumerate(zip(hopf_charts(arr), exponents or (0.0,))):
        sj, wj = _gauss_jacobi(jacobi, e)
        nodes, weights = [chart.s1 * sj], [chart.s1 * wj / sj ** e]
        edge = chart.s1
        while edge < 1.0:
            nodes.append(edge * (1.0 + sl))
            weights.append(edge * wl)
            edge *= 2.0
        s = np.concatenate(nodes)
        c2 = _chart_weights(j, chart, s, np.concatenate(weights), phase,
                            exponents)
        rule.append((s, c2, c2 @ powers))
    for array in (array for part in rule for array in part):
        array.flags.writeable = False
    return tuple(rule)


# the chart frames in fixed point: p and n to 2^-64
_FIXED = 1 << 64


def _frame_rows(px, nx, py, ny, t: int, last: int) -> np.ndarray:
    """Rows 0..last of M for x = px a + nx b, y = py a + ny b over Z[i]
    (pairs (re, im), px != 0), over 2^(64 t), each rounded to a float once:
    row 0 is x^t, and row i+1 is row i * y divided exactly by x, from the
    a^t end: q_k = (y_a c_k + y_b c_(k-1) - x_b q_(k-1)) / px."""
    (ar, ai), norm = px, px[0] ** 2 + px[1] ** 2
    # y_a, y_b and x_b times conj(px): one real division by |px|^2 per part
    (yr, yi), (mr, mi), (xr, xi) = ((cr * ar + ci * ai, ci * ar - cr * ai)
                                    for cr, ci in (py, ny, nx))
    rows = [HomogeneousForm(1, (px, nx)).power(t).coeffs]
    for _ in range(last):
        out, pr, pi, qr, qi = [], 0, 0, 0, 0
        for cr, ci in rows[-1]:
            qr, qi = ((cr * yr - ci * yi + pr * mr - pi * mi - qr * xr
                       + qi * xi) // norm,
                      (cr * yi + ci * yr + pr * mi + pi * mr - qr * xi
                       - qi * xr) // norm)
            out.append((qr, qi))
            pr, pi = cr, ci
        rows.append(out)
    den = _FIXED ** t
    return np.array([[complex(re / den, im / den) for re, im in row]
                     for row in rows])


@functools.lru_cache(maxsize=32)
def _chart_rows(arr: WeightedArrangement, t: int) -> tuple[np.ndarray, ...]:
    """Per chart of `hopf_charts`, the (t+1) x (t+1) matrix M with
    x^(t-i) y^i = sum_k M[i, k] a^(t-k) b^k at x = a p + b n: the frame
    p, n rounded to 64-bit fixed point and expanded exactly (`_frame_rows`;
    float recurrences lose digits to cancellation by cofactor degree 47).
    The frames p, n = (B, -A), (conj A, conj B) of `hopf_charts` give
    M[t-i, t-k] = (-1)^(i+k) conj M[i, k], so half the rows suffice.
    Cached per cofactor degree; the arrays are read-only."""
    out = []
    k = np.arange(t + 1)
    for chart in hopf_charts(arr):
        px, py, nx, ny = ((round(z.real * _FIXED), round(z.imag * _FIXED))
                          for z in (*chart.point, *chart.normal))
        half = t // 2 if (nx, ny) == ((-py[0], py[1]), (px[0], -px[1])) else t
        if px == (0, 0):  # x = nx b: expand in (b, a)
            rows = _frame_rows(nx, px, ny, py, t, half)[:, ::-1]
        else:
            rows = _frame_rows(px, nx, py, ny, t, half)
        sign = (-1.0) ** np.add.outer(k, k)[:t - half]
        mirror = (sign * rows[:t - half].conj())[::-1, ::-1]
        out.append(np.vstack([rows, mirror]))
        out[-1].flags.writeable = False
    return tuple(out)


class GramBlock(NamedTuple):
    """The basis elements of one total degree: their positions in the basis
    order, their Gram block and the orthonormalizing transform."""

    degree: int
    span: slice
    gram: np.ndarray  # block size x block size, Hermitian
    transform: np.ndarray  # block size x block rank


class GramResult(Record):
    """Gram data of the admissible basis for one (arr, m).

    Entries between different total degrees vanish exactly (the weight is
    invariant under z -> e^{i theta} z), so only the same-degree blocks are
    computed and stored.  The blocks, their transforms and the kernel take
    the lines as unit forms ell_i / |ell_i|; the arrangement's own
    normalization multiplies every Gram entry by exp(log_scale), with
    log_scale = 2 sum_i e_i log|ell_i|.  The dense k x k `gram`, in that
    normalization and with exact zeros across degrees, is assembled from
    the blocks for the audit.  `nodes` is the number of Hopf rule nodes
    used.
    """

    _fields = ("m", "spec", "line_powers", "monomials", "degrees", "blocks",
               "effective_rank", "degenerate", "nodes", "log_scale", "_arr")

    def __init__(self, m: int, spec: QuadratureSpec,
                 line_powers: tuple[int, ...],
                 monomials: list[tuple[int, int]], degrees: np.ndarray,
                 blocks: list[GramBlock], effective_rank: int,
                 degenerate: bool, nodes: int, log_scale: float,
                 _arr: WeightedArrangement):
        self.m, self.spec, self.line_powers = m, spec, line_powers
        self.monomials, self.degrees, self.blocks = monomials, degrees, blocks
        self.effective_rank, self.degenerate = effective_rank, degenerate
        self.nodes, self.log_scale, self._arr = nodes, log_scale, _arr

    @property
    def basis_size(self) -> int:
        return len(self.monomials)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        if not _EXP_RANGE[0] <= self.log_scale <= _EXP_RANGE[1]:
            raise DenseScaleError(f"log_scale = {self.log_scale:.6g} puts "
                                  "the dense Gram views outside the normal "
                                  "float range")
        out = np.zeros((self.basis_size, self.basis_size),
                       dtype=np.complex128)
        for block in self.blocks:
            out[block.span, block.span] = block.gram
        return out * math.exp(self.log_scale)

    @property
    def stderr(self) -> np.ndarray:
        """Standard errors of the Gram entries: all 0, since the rule is
        deterministic (its convergence is checked by the test suite)."""
        return np.zeros((self.basis_size, self.basis_size))

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


def gram_matrix(arr: WeightedArrangement, m: int, quad: QuadratureSpec
                ) -> GramResult:
    """Gram matrix of the admissible basis, one degree block at a time,
    with the orthonormalizing transform.

    The block of cofactor degree t scales S_t = sum(rows * conj(rows)^T)
    over the Hopf rule nodes, rows being the cofactor monomials times one
    common factor per node, c = |prod ell_i^b_i| e^{-m phi} sqrt(w) =
    exp(sum_i e_i log|ell_i|) sqrt(w) for the unit forms ell_i.  Each
    e_i = b_i - m a_i lies in (-1, 0], so no factor overflows or underflows
    however large m is; the phase of prod ell_i^b_i cancels in every
    f_j conj(f_k), so it is never formed.

    Only the top block is summed over the rule, and not node by node: on
    chart j the nodes are x = a p + b n with a = sqrt(1 - s_r) and
    b = sqrt(s_r) e^{i phi}, so x^(t-i) y^i = sum_k M_j[i, k] a^(t-k) b^k
    (`_chart_rows`) and S_t = sum_j M_j T_j M_j^H, where
    T_j[k, l] = sum_r (1 - s_r)^(t - (k+l)/2) s_r^((k+l)/2) G_j[r, k - l]
    and G_j is the angular spectrum of c^2 (`_hopf_nodes`, mode k - l
    taken mod HOPF_ANGLES): the same quadrature sum in another order.
    Every node lies on S^3, so multiplying block t's integrand by
    |x|^2 + |y|^2 = 1 gives S_t[i, j] = S_{t+1}[i, j] + S_{t+1}[i+1, j+1].

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
    t_hi = cofactor_degrees[-1]
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
    rule = _hopf_nodes(arr, exponents, HOPF_JACOBI, HOPF_LEGENDRE,
                       HOPF_ANGLES)

    # the top block, chart by chart: S = sum_j M_j T_j M_j^H
    k, n = np.arange(t_hi + 1), np.arange(2 * t_hi + 1)
    entries = k[:, None] + k, (k[:, None] - k) % HOPF_ANGLES
    top = np.zeros((t_hi + 1, t_hi + 1), dtype=np.complex128)
    for rows, (s, _, spectrum) in zip(_chart_rows(arr, t_hi), rule):
        radial = (np.sqrt(1.0 - s)[:, None] ** (2 * t_hi - n)
                  * np.sqrt(s)[:, None] ** n)
        top += rows @ (radial.T @ spectrum)[entries] @ rows.conj().T
    sums = [top]
    for _ in cofactor_degrees[1:]:
        sums.insert(0, sums[0][:-1, :-1] + sums[0][1:, 1:])

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
        nodes=sum(int(np.count_nonzero(c2)) for _, c2, _ in rule),
        log_scale=2.0 * sum(e * line.log_norm
                            for e, line in zip(exponents, arr.lines)),
        _arr=arr,
    )


def _log_kernel(result: GramResult, ux: np.ndarray, uy: np.ndarray,
                log_r: np.ndarray) -> np.ndarray:
    """log K(r u) as `_log_kernel_chunk` reads it, at most _CHUNK values
    per pass: _CHUNK points (one radius each) or _CHUNK // 25 rays (25
    radii each), so the row blocks stay small however many are asked
    for."""
    step = max(1, _CHUNK // log_r.shape[1])
    out = np.empty((len(ux), log_r.shape[1]))
    for start in range(0, len(ux), step):
        chunk = slice(start, start + step)
        out[chunk] = _log_kernel_chunk(result, ux[chunk], uy[chunk],
                                       log_r[chunk] if len(log_r) > 1
                                       else log_r)
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
    blocks = result.blocks
    t_lo = blocks[0].degree - sum(result.line_powers)
    terms = np.empty((len(blocks), len(ux), log_r.shape[1]))
    # rows[i] = x^(t-i) y^i of cofactor degree t, grown in place
    rows = np.empty((t_lo + len(blocks), len(ux)), dtype=np.complex128)
    rows[0] = 1.0
    with np.errstate(divide="ignore"):
        log_lines = np.full(len(ux), -result.log_scale)
        for line, power in zip(result._arr.lines, result.line_powers):
            if power:
                log_lines += 2.0 * power * (np.log(line.modulus(ux, uy))
                                            + line.log_norm)
        for t in range(len(rows)):
            if t:  # row t is row t-1 times y, then rows 0..t-1 times x
                np.multiply(rows[t - 1], uy, out=rows[t])
                rows[:t] *= ux
            if t < t_lo:
                continue
            block, term = blocks[t - t_lo], terms[t - t_lo]
            sigma = block.transform.T @ rows[:t + 1]
            term[:] = np.log(np.sum(sigma.real ** 2 + sigma.imag ** 2,
                                    axis=0))[:, None]
            if block.degree:  # 0 * log r would be NaN at r = 0
                term += 2.0 * block.degree * log_r
        top = terms.max(axis=0)
        top = np.where(np.isfinite(top), top, 0.0)  # all -inf at z = 0
        return (log_lines[:, None] + top
                + np.log(np.sum(np.exp(terms - top), axis=0)))


def _log_kernel_on_points(result: GramResult, x, y) -> np.ndarray:
    """log K at the points (x, y), in the shape of x: each z = (x, y) is
    read as the direction z/|z| at the log radius log|z|."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    r = np.hypot(np.abs(x), np.abs(y)).ravel()
    unit = np.where(r > 0.0, r, 1.0)
    with np.errstate(divide="ignore"):
        log_r = np.log(r)[:, None]
    return _log_kernel(result, x.ravel() / unit, y.ravel() / unit,
                       log_r).reshape(x.shape)


def kernel_values(result: GramResult, x, y) -> np.ndarray:
    """Sum of |sigma_l|^2 over the orthonormal basis, at arrays of points."""
    return np.exp(_log_kernel_on_points(result, x, y))


def bergman_phi(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                point: tuple[complex, complex], *,
                gram: GramResult | None = None) -> float:
    """Truncated approximation weight (1/2m) log sum |sigma_l(z)|^2."""
    result = gram if gram is not None else gram_matrix(arr, m, quad)
    return float(_log_kernel_on_points(result, *point) / (2.0 * result.m))


class RaySlopes(Record):
    """Ray slopes of phi_hat, with the Gram they were read from."""

    __slots__ = _fields = ("gram", "value", "per_ray")

    def __init__(self, gram: GramResult, value: float, per_ray: list[float]):
        self.gram, self.value, self.per_ray = gram, value, per_ray

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
    return (rows - rows.mean(axis=-1, keepdims=True)) @ dt / (dt @ dt)


def lelong_estimate(arr: WeightedArrangement, m: int, quad: QuadratureSpec,
                    *, rays: int = 8, gram: GramResult | None = None
                    ) -> RaySlopes:
    """Average slope of phi_hat_m against log r on SLOPE_WINDOW along
    `rays` (>= 1) generic rays, all fitted in one product.  Each ray's
    block kernels are read once for all its radii, in the chunked pass
    that points take too."""
    if rays < 1:
        raise ValueError(f"a slope estimate needs rays >= 1, got {rays}")
    result = gram if gram is not None else gram_matrix(arr, m, quad)
    log_r = np.log(np.geomspace(*SLOPE_WINDOW))[None, :]
    u = np.array(generic_rays(arr, rays, quad.seed))
    phi = _log_kernel(result, u[:, 0], u[:, 1], log_r) / (2.0 * result.m)
    slopes = _slopes(log_r[0], phi)
    return RaySlopes(result, float(np.mean(slopes)), slopes.tolist())


class CurveScan(Record):
    """Delta = phi_hat_{m2} - phi_hat_{m1} along a curve, with the Grams
    of phi_hat_{m1} and phi_hat_{m2}."""

    __slots__ = _fields = ("grams", "t", "phi1", "phi2", "slope")

    def __init__(self, grams: tuple[GramResult, GramResult], t: np.ndarray,
                 phi1: np.ndarray, phi2: np.ndarray, slope: float):
        self.grams, self.t, self.phi1, self.phi2 = grams, t, phi1, phi2
        self.slope = slope

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
    phi1, phi2 = (_log_kernel_on_points(g, x, y) / (2.0 * g.m)
                  for g in grams)
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
