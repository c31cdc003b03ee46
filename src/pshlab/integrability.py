"""Brute-force integrability of |f|^2 e^{-2c*phi} near the origin.

This is the numerical oracle that cross-checks exact ideal membership
without using any of the floor arithmetic: it estimates the integral over
dyadic annuli 2^-(k+1) <= |z| <= 2^-k with a mesh graded geometrically
toward each line (tube strata at normalized distance ~ 2^-s), and declares
divergence when partial sums blow up across three mesh refinements or when
the dyadic tails stop decaying.

The tail-ratio certificate is needed because boundary cases are exactly
log-divergent: their partial sums grow only linearly with depth, which no
fixed growth factor can witness at finite cost, while the annulus/stratum
construction makes the geometric tail ratio of such an integrand exactly 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arrangement import WeightedArrangement
from .gaussian import to_fraction
from .polynomials import BivariatePolynomial, ZeroPolynomialError

LN2 = math.log(2.0)
GROWTH_FACTOR = 1e3
TAIL_RATIO_THRESHOLD = 0.9
REFINEMENT_LEVELS = ((8, 8), (16, 16), (24, 24))  # (annulus depth, stratum depth)


@dataclass(frozen=True)
class IntegrabilityVerdict:
    integrable: bool
    log_growth: float          # log of partial-sum growth across refinements
    radial_tail_ratio: float   # median dyadic ratio of annulus contributions
    line_tail_ratios: tuple[float, ...]
    log_partial_sums: tuple[float, ...]


class _Mesh:
    __slots__ = (
        "logvol", "lx", "ly", "lnorm", "llines", "xs", "ys",
        "stratum_level", "stratum_cols", "n_annuli",
    )

    def __init__(self, arr: WeightedArrangement, n_annuli: int, depth: int):
        unit_x, unit_y, unit_logvol, level, line_id = _unit_annulus(arr, depth)
        k = np.arange(n_annuli, dtype=float)[:, None]
        scale = np.exp2(-k)
        self.n_annuli = n_annuli
        self.xs = unit_x[None, :] * scale
        self.ys = unit_y[None, :] * scale
        # Every stored log is for the scaled point: coordinates and line
        # forms are homogeneous of degree 1, the volume element of degree 4.
        self.lx = np.log(np.abs(unit_x))[None, :] - k * LN2
        self.ly = np.log(np.abs(unit_y))[None, :] - k * LN2
        self.lnorm = (
            np.log(np.hypot(np.abs(unit_x), np.abs(unit_y)))[None, :] - k * LN2
        )
        self.llines = [
            np.log(np.abs(line.evaluate(unit_x, unit_y)))[None, :] - k * LN2
            for line in arr.lines
        ]
        self.logvol = unit_logvol[None, :] - 4.0 * k * LN2
        self.stratum_level = level  # per unit column: 0 bulk, s >= 1 tube
        self.stratum_cols = {
            (i, s): np.flatnonzero((line_id == i) & (level == s))
            for i in range(len(arr.lines))
            for s in range(1, depth + 1)
        }


def _unit_annulus(arr: WeightedArrangement, depth: int):
    """Mesh of the annulus 1/2 <= |w| <= 1 graded toward each line."""
    pts_x: list[np.ndarray] = []
    pts_y: list[np.ndarray] = []
    logvol: list[np.ndarray] = []
    level: list[np.ndarray] = []
    line_id: list[np.ndarray] = []

    # Bulk: polar product grid, dropping the line tubes handled by strata.
    rho = np.linspace(0.5, 1.0, 4, endpoint=False) + 0.5 / 8
    psi = np.linspace(0.0, math.pi / 2, 8, endpoint=False) + math.pi / 32
    th1 = np.linspace(0.0, 2 * math.pi, 8, endpoint=False) + math.pi / 8
    th2 = np.linspace(0.0, 2 * math.pi, 8, endpoint=False) + math.pi / 8
    R, P, T1, T2 = np.meshgrid(rho, psi, th1, th2, indexing="ij")
    wx = (R * np.cos(P) * np.exp(1j * T1)).ravel()
    wy = (R * np.sin(P) * np.exp(1j * T2)).ravel()
    wvol = (
        R ** 3 * np.cos(P) * np.sin(P)
    ).ravel() * (0.5 / 4) * (math.pi / 16) * (math.pi / 4) ** 2
    norm = np.hypot(np.abs(wx), np.abs(wy))
    keep = np.ones(wx.size, dtype=bool)
    for line in arr.lines:
        dist = np.abs(line.evaluate(wx, wy)) / (line.coeff_norm() * norm)
        keep &= dist > 0.5
    pts_x.append(wx[keep])
    pts_y.append(wy[keep])
    logvol.append(np.log(wvol[keep]))
    level.append(np.zeros(int(keep.sum()), dtype=np.int32))
    line_id.append(np.full(int(keep.sum()), -1, dtype=np.int32))

    # Tube strata: points a*v + b*n at |b| ~ 2^-s around each line.
    alpha = np.linspace(0.5, 1.0, 4, endpoint=False) + 0.5 / 8
    tha = np.linspace(0.0, 2 * math.pi, 4, endpoint=False) + math.pi / 4
    thb = np.linspace(0.0, 2 * math.pi, 4, endpoint=False) + math.pi / 4
    for i, line in enumerate(arr.lines):
        v = line.direction()
        n = line.unit_normal()
        for s in range(1, depth + 1):
            b_lo, b_hi = 2.0 ** (-s - 1), 2.0 ** (-s)
            beta = np.linspace(b_lo, b_hi, 2, endpoint=False) + (b_hi - b_lo) / 4
            A, TA, B, TB = np.meshgrid(alpha, tha, beta, thb, indexing="ij")
            a = (A * np.exp(1j * TA)).ravel()
            b = (B * np.exp(1j * TB)).ravel()
            sx = a * v[0] + b * n[0]
            sy = a * v[1] + b * n[1]
            svol = (A * B).ravel() * (0.5 / 4) * (math.pi / 2) \
                * ((b_hi - b_lo) / 2) * (math.pi / 2)
            pts_x.append(sx)
            pts_y.append(sy)
            logvol.append(np.log(svol))
            level.append(np.full(sx.size, s, dtype=np.int32))
            line_id.append(np.full(sx.size, i, dtype=np.int32))

    return (
        np.concatenate(pts_x),
        np.concatenate(pts_y),
        np.concatenate(logvol),
        np.concatenate(level),
        np.concatenate(line_id),
    )


@functools.lru_cache(maxsize=8)
def _mesh_for(arr: WeightedArrangement, n_annuli: int, depth: int) -> _Mesh:
    return _Mesh(arr, n_annuli, depth)


@functools.lru_cache(maxsize=8)
def _weight_exponent(arr: WeightedArrangement, n_annuli: int, depth: int):
    """Per-point value of phi (so that -2c * this is the weight log)."""
    mesh = _mesh_for(arr, n_annuli, depth)
    phi = np.zeros_like(mesh.logvol)
    for a, ll in zip(arr.coeffs, mesh.llines):
        if a != 0:
            phi = phi + float(a) * ll
    if arr.point_mass != 0:
        phi = phi + float(arr.point_mass) * mesh.lnorm
    return phi


def _logsumexp(values: np.ndarray) -> float:
    if values.size == 0:
        return float("-inf")
    top = float(np.max(values))
    if not math.isfinite(top):
        return float("-inf") if top < 0 else top
    return top + math.log(float(np.sum(np.exp(values - top))))


def _tail_ratio(log_sums: list[float], window: int = 6) -> float:
    ratios = [
        b - a for a, b in zip(log_sums, log_sums[1:])
        if math.isfinite(a) and math.isfinite(b)
    ]
    if len(ratios) < 3:
        return 0.0
    tail = sorted(ratios[-window:])
    return math.exp(tail[len(tail) // 2])


def integrability_estimate(arr: WeightedArrangement, f: BivariatePolynomial,
                           c) -> IntegrabilityVerdict:
    """Decide whether |f|^2 e^{-2c phi} is integrable near 0, numerically."""
    if f.is_zero:
        raise ZeroPolynomialError("integrability of the zero function is vacuous")
    c = to_fraction(c)
    if c < 0:
        raise ValueError("weight multiple c must be nonnegative")
    n_annuli, depth = REFINEMENT_LEVELS[-1]
    mesh = _mesh_for(arr, n_annuli, depth)
    phi = _weight_exponent(arr, n_annuli, depth)

    terms = list(f.terms())
    if len(terms) == 1:
        (a_exp, b_exp), coeff = terms[0]
        log_f2 = 2.0 * (a_exp * mesh.lx + b_exp * mesh.ly) \
            + math.log(float(coeff.abs2()))
    else:
        with np.errstate(divide="ignore"):
            log_f2 = 2.0 * np.log(np.abs(f.evaluate(mesh.xs, mesh.ys)))
    v = log_f2 - 2.0 * float(c) * phi + mesh.logvol

    level_sums = []
    for k_depth, s_depth in REFINEMENT_LEVELS:
        cols = mesh.stratum_level <= s_depth
        level_sums.append(_logsumexp(v[:k_depth, cols]))
    log_growth = level_sums[-1] - level_sums[0]

    radial = [_logsumexp(v[k, :]) for k in range(mesh.n_annuli)]
    radial_ratio = _tail_ratio(radial)

    line_ratios = []
    for i in range(len(arr.lines)):
        sums = [
            _logsumexp(v[:, mesh.stratum_cols[(i, s)]])
            for s in range(1, depth + 1)
        ]
        line_ratios.append(_tail_ratio(sums))

    divergent = (
        (math.isfinite(log_growth) and log_growth > math.log(GROWTH_FACTOR))
        or radial_ratio >= TAIL_RATIO_THRESHOLD
        or any(r >= TAIL_RATIO_THRESHOLD for r in line_ratios)
    )
    return IntegrabilityVerdict(
        integrable=not divergent,
        log_growth=log_growth,
        radial_tail_ratio=radial_ratio,
        line_tail_ratios=tuple(line_ratios),
        log_partial_sums=tuple(level_sums),
    )
