"""Integrability of |f|^2 e^{-2c*phi} near the origin, by the Hopf reduction.

This is the numerical oracle that cross-checks exact ideal membership
without using any of the floor arithmetic.  Three facts reduce it to one
number per line point and homogeneous component:

- Parseval: the circle average over z -> e^{i theta} z splits the integral
  into those of the homogeneous components f_d, so f is integrable iff
  every f_d is.
- Homogeneity: the integral of |f_d|^2 e^{-2c phi} is the radial integral
  of r^(2d + 3 - 2cT) (T the total mass), which converges iff d + 2 > cT,
  times a sphere integral.
- Hopf: the sphere integrand is constant on the Hopf fibres, so the sphere
  integral is one over CP^1, singular only at the line points p_j.  In the
  polar chart of p_j (`arrangement.hopf_charts`) the angular mean of the
  integrand behaves like s^sigma_j, integrable iff the margin
  kappa_j = sigma_j + 1 is positive.

The slope sigma_j is measured, not derived: the log angular mean over
ANGLES angles at s = spacing_j 2^-k for k in LEVELS (spacing_j the squared
chordal distance to the nearest other line point), the slopes between
consecutive levels, and one Richardson step, since each slope is
sigma_j + O(s).  The change between the two Richardson values is the
spread.  A component is divergent iff kappa <= max(20 spread, 1e-7); a
spread above MAX_SPREAD makes the verdict undecided.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arrangement import WeightedArrangement, hopf_charts
from .gaussian import scaled_complex, to_fraction
from .polynomials import BivariatePolynomial, HomogeneousForm, ZeroPolynomialError

ANGLES = 64
LEVELS = (12, 14, 16, 18)
MIN_RESOLUTION = 1e-7
MAX_SPREAD = 1e-4


class IntegrabilityVerdict(NamedTuple):
    integrable: bool
    radial_margin: Fraction          # min over components of d + 2 - c*T
    line_margins: tuple[float, ...]  # per line, min over components of kappa
    resolution: float                # largest tolerance a margin was held to
    undecided: bool                  # some Richardson spread above MAX_SPREAD


@functools.lru_cache(maxsize=16)
def _charts(arr: WeightedArrangement) -> tuple:
    """What every component and every multiple c share, stacked over the
    line points and built once per arrangement: the level step, the
    change of log s between consecutive LEVELS (chart x level - 1); log
    alpha, z = beta / alpha, log|z| and the weight's log per unit of c,
    sum_i -2 a_i log|ell_i(q)|, on the (chart, level, angle) grid; the
    chart coordinates as linear forms in (alpha, beta).  beta
    comes from log s, since s underflows for line points closer than
    about 2^-528; beta is subnormal below about 2^-1013 (undecided from
    about 2^-1055) and 0 below about 2^-1066 (NaN margins).

    Chart j (`arrangement.hopf_charts`) is q = alpha v + beta n, in which
    every line form is alpha ell_i(v) + beta ell_i(n); the weight reads the
    chart's unit-normalized line moduli.  Constant factors (|v|, |n|, the
    scale of each form) do not move a slope.
    """
    phase = np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)
    charts = hopf_charts(arr)[:len(arr.lines)]  # no line, no chart
    log_s = (np.array([math.log(chart.spacing.numerator)
                       - math.log(chart.spacing.denominator)
                       for chart in charts])[:, None]
             - math.log(2.0) * np.array(LEVELS, dtype=float))
    s = np.exp(log_s)[..., None]
    alpha, beta = np.sqrt(1.0 - s), np.exp(0.5 * log_s)[..., None] * phase
    moduli = np.array([chart.moduli(*grid)
                       for chart, *grid in zip(charts, alpha, beta)])
    log_weight = -2.0 * sum(float(a) * np.log(moduli[:, i])
                            for i, a in enumerate(arr.coeffs) if a)
    z = beta / alpha
    return (np.diff(log_s), 0.5 * np.log1p(-s), z, np.log(np.abs(z)),
            log_weight,
            tuple((chart.chart_x, chart.chart_y) for chart in charts))


@functools.lru_cache(maxsize=32)
def _log_form(arr: WeightedArrangement, form: HomogeneousForm) -> np.ndarray:
    """log|f_d|^2 of one homogeneous component on the (chart, level, angle)
    grid of `_charts`, the part of the integrand free of c: built once per
    arrangement and component, so a scan over c substitutes it once.
    Read-only."""
    _, log_alpha, z, log_z, _, forms = _charts(arr)
    # exact, so a zero of order k at the line point gives g_0 = ... =
    # g_(k-1) = 0.0 and no rounding floor hides how fast f_d vanishes
    rows = [scaled_complex(form.substitute(x, y).coeffs) for x, y in forms]
    # f_d = alpha^d z^k sum_i g_(k+i) z^i; z^k in logs cannot underflow
    ks = [next(i for i, g in enumerate(row) if g) for row in rows]
    width = max((len(row) - k for row, k in zip(rows, ks)), default=0)
    # zero top coefficients pad every chart to one width: 0 z + g = g
    g = np.array([row[k:] + [0j] * (width - len(row) + k)
                  for row, k in zip(rows, ks)], dtype=complex
                 ).reshape(len(forms), width)
    poly = 0.0
    for coeff in g.T[::-1, :, None, None]:
        poly = poly * z + coeff
    grid = 2.0 * (form.degree * log_alpha
                  + np.reshape(ks, (-1, 1, 1)) * log_z + np.log(np.abs(poly)))
    grid.flags.writeable = False
    return grid


def _margins(arr: WeightedArrangement, components: list[HomogeneousForm],
             c: float) -> tuple[np.ndarray, np.ndarray]:
    """(kappa-hat, spread) of every homogeneous component at every line
    point (component x chart), in one pass over (component, chart, level,
    angle): each component's `_log_form` plus c times the weight, the
    slopes of the log angular mean between levels (s quartered at each
    step), then Richardson's (4 next - previous) / 3."""
    step, *_, log_weight, _ = _charts(arr)
    log_g = (np.stack([_log_form(arr, form) for form in components])
             + c * log_weight)
    top = np.maximum.reduce(log_g, axis=-1, keepdims=True)
    # np.mean's sum and division, without its Python-level wrapper
    log_mean = top[..., 0] + np.log(
        np.add.reduce(np.exp(log_g - top), axis=-1) / ANGLES)
    slopes = (log_mean[..., 1:] - log_mean[..., :-1]) / step
    richardson = (4.0 * slopes[..., 1:] - slopes[..., :-1]) / 3.0
    return (richardson[..., -1] + 1.0,
            abs(richardson[..., -1] - richardson[..., -2]))


def integrability_estimate(arr: WeightedArrangement, f: BivariatePolynomial,
                           c) -> IntegrabilityVerdict:
    """Decide whether |f|^2 e^{-2c phi} is integrable near 0, numerically."""
    if f.is_zero:
        raise ZeroPolynomialError("integrability of the zero function is vacuous")
    c = to_fraction(c)
    if c < 0:
        raise ValueError("weight multiple c must be nonnegative")
    try:
        c_float = float(c)
    except OverflowError:
        raise ValueError(f"weight multiple c must lie in the float range, "
                         f"at most {sys.float_info.max!r}") from None
    components = f.homogeneous_components()
    radial = min(form.degree for form in components) + 2 - c * arr.total_mass
    # a log of 0 (a chart grid point on a zero) yields a non-finite margin,
    # which fails every comparison below: divergent and undecided
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa, spread = _margins(arr, components, c_float)
    tol = np.maximum(20.0 * spread, MIN_RESOLUTION)
    # numpy's min and max, unlike Python's, carry a NaN through
    return IntegrabilityVerdict(
        integrable=radial > 0 and bool((kappa > tol).all()),
        radial_margin=radial,
        line_margins=tuple(np.minimum.reduce(kappa, axis=0).tolist()),
        resolution=float(np.maximum.reduce(tol, axis=None,
                                           initial=MIN_RESOLUTION)),
        undecided=not (spread <= MAX_SPREAD).all(),
    )
