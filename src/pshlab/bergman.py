"""Numeric reconstruction of the approximation weights from first principles.

phi_m is (1/2m) log of the Bergman kernel of the space of holomorphic
functions on the unit ball that are square integrable against e^{-2m phi}.
For arrangement weights every admissible basis element is homogeneous, so
each inner product splits into an exact radial integral times an integral
over the unit sphere S^3, which is estimated by seeded Monte Carlo.  The
weight is invariant under z -> e^{i theta} z, so elements of different
total degree are orthogonal: the Gram matrix is estimated and factorized
one degree block at a time to an orthonormal basis, giving a computable
lower truncation phi_hat of phi_m whose slopes near 0 recover the
symbolic singularity data.  The kernel is evaluated in log space by
homogeneity, so high degrees neither underflow nor overflow.

Admissibility of a basis element is decided symbolically (ideal
membership); the quadrature never gets to vote on integrability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arrangement import WeightedArrangement
from .multiplier_ideal import ideal_of, min_admissible_degree
from .polynomials import BivariatePolynomial

MIN_SPHERE_SAMPLES = 10_000
SPHERE_AREA = 2.0 * math.pi ** 2  # |S^3|
RANK_TOLERANCE = 1e-8
_CHUNK = 1 << 13


class NonIntegrableExponentError(ArithmeticError):
    """The radial exponent left the integrable range; the basis filter is
    broken if this ever triggers on admissible input."""


class EmptyBasisError(ValueError):
    """No admissible basis element exists below the degree cutoff."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation and sampling parameters for the Gram estimation."""

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
        return QuadratureSpec(n, self.sphere_samples, self.seed, self.radius)


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
    common = BivariatePolynomial.one()
    for line, power in zip(arr.lines, b):
        common = common * (line.form() ** power)
    return [common * BivariatePolynomial.monomial(u, v) for u, v in monos]


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


def _sphere_chunks(count: int, seed: int):
    """Yield `count` uniform points on S^3 as (x, y) arrays of at most
    _CHUNK points each, deterministic in the seed.

    Uses a counter-based generator so the stream is a pure function of
    (seed, index); the normal draws are sequential, so every consumer of
    this generator sees the same points whatever it does with a chunk.
    The yielded arrays are overwritten by the next chunk: copy what must
    outlive it.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    size = min(_CHUNK, count)
    raw = np.empty((size, 4))
    norm = np.empty(size)
    x = np.empty(size, dtype=np.complex128)
    y = np.empty(size, dtype=np.complex128)
    done = 0
    while done < count:
        take = min(size, count - done)
        r, nv, xv, yv = raw[:take], norm[:take], x[:take], y[:take]
        gen.standard_normal(out=r)
        np.sqrt(np.einsum("ij,ij->i", r, r), out=nv)
        nv[nv == 0.0] = 1.0
        np.divide(1.0, nv, out=nv)
        np.multiply(r[:, 0], nv, out=xv.real)
        np.multiply(r[:, 1], nv, out=xv.imag)
        np.multiply(r[:, 2], nv, out=yv.real)
        np.multiply(r[:, 3], nv, out=yv.imag)
        yield xv, yv
        done += take


def sphere_points(count: int, seed: int) -> np.ndarray:
    """`count` uniform points on S^3 in C^2, deterministic in the seed:
    exactly the points `gram_matrix` samples for the same seed."""
    out = np.empty((count, 2), dtype=np.complex128)
    done = 0
    for x, y in _sphere_chunks(count, seed):
        out[done:done + len(x), 0] = x
        out[done:done + len(x), 1] = y
        done += len(x)
    return out


@dataclass(frozen=True)
class GramBlock:
    """The basis elements of one total degree: their positions in the basis
    order and the orthonormalizing transform of their Gram block."""

    degree: int
    span: slice
    transform: np.ndarray  # block size x block rank


@dataclass
class GramResult:
    """Estimated Gram data of the admissible basis for one (arr, m).

    Entries between different total degrees vanish exactly (the weight is
    invariant under z -> e^{i theta} z) and are stored as exact zeros with
    zero standard error; only the same-degree blocks are estimated.
    """

    m: int
    spec: QuadratureSpec
    line_powers: tuple[int, ...]
    monomials: list[tuple[int, int]]
    degrees: np.ndarray
    gram: np.ndarray
    stderr: np.ndarray
    blocks: list[GramBlock]
    effective_rank: int
    degenerate: bool
    _arr: WeightedArrangement

    @property
    def basis_size(self) -> int:
        return len(self.monomials)

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


def _weighted_modulus(arr: WeightedArrangement, line_powers: Sequence[int],
                      m: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|prod ell_i^{b_i}| * sqrt(w) = prod |ell_i|^{b_i - m a_i}.

    Each exponent lies in (-1, 0], so no factor overflows or underflows
    however large m is.  The phase of prod ell_i^{b_i} is common to every
    basis element and cancels in each Gram product f_j * conj(f_k), so it
    is never formed.
    """
    out = np.ones(len(x))
    for line, power, a in zip(arr.lines, line_powers, arr.coeffs):
        out *= np.abs(line.evaluate(x, y)) ** float(power - m * a)
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
    """Monte Carlo Gram matrix of the admissible basis with per-entry
    standard errors and the orthonormalizing transform, estimated one
    degree block at a time."""
    line_powers, base, monos = _basis_layout(arr, m, quad.max_degree)
    if not monos:
        raise EmptyBasisError(
            f"no admissible element of degree <= {quad.max_degree} for m={m} "
            f"(minimal admissible degree is {min_admissible_degree(arr, m)})"
        )
    k = len(monos)
    degrees = np.array([base + u + v for u, v in monos], dtype=np.int64)
    t_lo, t_hi = sum(monos[0]), sum(monos[-1])
    cofactor_degrees = range(t_lo, t_hi + 1)

    s_sums = [np.zeros((t + 1, t + 1), dtype=np.complex128)
              for t in cofactor_degrees]
    m2_sums = [np.zeros((t + 1, t + 1), dtype=np.float64)
               for t in cofactor_degrees]
    # Work buffers for the largest block, allocated once per call: every
    # chunk reuses them, so the sampling loop allocates nothing sizeable.
    size = (t_hi + 1) * min(_CHUNK, quad.sphere_samples)
    work = (np.empty(size, dtype=np.complex128),
            np.empty(size, dtype=np.complex128))
    conj = np.empty(size, dtype=np.complex128)
    abs2, imag2 = np.empty(size), np.empty(size)
    for x, y in _sphere_chunks(quad.sphere_samples, quad.seed):
        common = _weighted_modulus(arr, line_powers, m, x, y)
        for rows, s_sum, m2_sum in zip(
                _cofactor_blocks(common, x, y, t_lo, t_hi, work),
                s_sums, m2_sums):
            shape, used = rows.shape, rows.size
            rows_c = np.conjugate(rows, out=conj[:used].reshape(shape))
            s_sum += rows @ rows_c.T
            a2 = np.multiply(rows.real, rows.real,
                             out=abs2[:used].reshape(shape))
            a2 += np.multiply(rows.imag, rows.imag,
                              out=imag2[:used].reshape(shape))
            m2_sum += a2 @ a2.T

    n = float(quad.sphere_samples)
    s_hom = 2 * m * arr.total_mass
    gram = np.zeros((k, k), dtype=np.complex128)
    stderr = np.zeros((k, k), dtype=np.float64)
    spans = []
    start = 0
    for t, s_sum, m2_sum in zip(cofactor_degrees, s_sums, m2_sums):
        span = slice(start, start + t + 1)
        start = span.stop
        spans.append((base + t, span))
        scale = SPHERE_AREA * radial_factor(2 * (base + t), s_hom,
                                            quad.radius)
        sphere_mean = s_sum / n
        block = sphere_mean * scale
        gram[span, span] = (block + block.conj().T) / 2.0
        variance = np.maximum(m2_sum / n - np.abs(sphere_mean) ** 2, 0.0)
        stderr[span, span] = np.sqrt(variance / n) * scale

    eigen = [np.linalg.eigh(gram[span, span]) for _, span in spans]
    lam_max = max(float(eigvals[-1]) for eigvals, _ in eigen)
    blocks = []
    for (degree, span), (eigvals, eigvecs) in zip(spans, eigen):
        keep = eigvals > RANK_TOLERANCE * lam_max
        if lam_max <= 0.0:
            keep[:] = False
        blocks.append(GramBlock(
            degree, span, eigvecs[:, keep].conj() / np.sqrt(eigvals[keep])))
    rank = sum(block.transform.shape[1] for block in blocks)
    return GramResult(
        m=m,
        spec=quad,
        line_powers=tuple(line_powers),
        monomials=list(monos),
        degrees=degrees,
        gram=gram,
        stderr=stderr,
        blocks=blocks,
        effective_rank=rank,
        degenerate=rank < k,
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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "lelong_estimate": self.value,
            "per_ray": self.per_ray,
            "max_degree_used": self.max_degree_used,
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
    gen = np.random.Generator(np.random.Philox(key=spec.seed + 0x9E3779B9))
    directions = []
    while len(directions) < rays:
        raw = gen.standard_normal(4)
        norm = math.sqrt(float(raw @ raw))
        if norm == 0.0:
            continue
        u = (complex(raw[0], raw[1]) / norm, complex(raw[2], raw[3]) / norm)
        dist = min(
            (abs(line.evaluate(*u)) / line.coeff_norm() for line in arr.lines),
            default=1.0,
        )
        if dist > 0.05:
            directions.append(u)
    r = np.geomspace(r_lo, r_hi, n_points)
    log_r = np.log(r)
    slopes = []
    for u in directions:
        vals = _phi_on_points(result, r * u[0], r * u[1])
        slopes.append(_fit_slope(log_r, vals))
    return RaySlopes(
        m=m,
        value=float(np.mean(slopes)),
        per_ray=slopes,
        max_degree_used=spec.max_degree,
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
    slope = _fit_slope(np.log(t), phi2 - phi1)
    return CurveScan(
        m1=m1, m2=m2, t=t, phi1=phi1, phi2=phi2, slope=slope,
        max_degree_used=(spec1.max_degree, spec2.max_degree),
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
