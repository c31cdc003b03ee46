"""Per-(component, chart) reference of the integrability oracle.

`integrability_estimate` decides every homogeneous component at every line
point in one broadcast pass over stacked chart arrays.  This module keeps
the loop it replaced: one chart tuple per line point, built afresh, and
one `line_margin` per (component, chart) pair, each with its own Horner
loop, angular log-mean-exp and Richardson step.  Both perform the same
floating-point operations in the same order, so `reference_estimate`
must return a verdict equal to the oracle's bit for bit, NaN margins
included.  A NaN margin makes its line's margin NaN, and a NaN tolerance
makes the resolution NaN.
"""

import math

import numpy as np

from pshlab.arrangement import hopf_charts
from pshlab.gaussian import scaled_complex, to_fraction
from pshlab.integrability import (ANGLES, LEVELS, MAX_SPREAD, MIN_RESOLUTION,
                                  IntegrabilityVerdict)


def charts(arr):
    """Per line point: log s at LEVELS, log alpha and z = beta / alpha on
    the (level, angle) grid, the weight's log per unit of c and the chart
    coordinates as linear forms."""
    phase = np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)
    out = []
    for chart in hopf_charts(arr)[:len(arr.lines)]:
        spacing = chart.spacing
        log_s = (math.log(spacing.numerator) - math.log(spacing.denominator)
                 - math.log(2.0) * np.array(LEVELS, dtype=float))
        s = np.exp(log_s)[:, None]
        alpha, beta = np.sqrt(1.0 - s), np.exp(0.5 * log_s)[:, None] * phase
        moduli = chart.moduli(alpha, beta)
        log_weight = -2.0 * sum(float(a) * np.log(moduli[i])
                                for i, a in enumerate(arr.coeffs) if a)
        out.append((log_s, 0.5 * np.log1p(-s), beta / alpha, log_weight,
                    chart.chart_x, chart.chart_y))
    return out


def line_margin(form, chart, c: float) -> tuple[float, float]:
    """(kappa-hat, spread) of one homogeneous component at one line point."""
    log_s, log_alpha, z, log_weight, chart_x, chart_y = chart
    g = np.array(scaled_complex(form.substitute(chart_x, chart_y).coeffs))
    k = int(np.flatnonzero(g)[0])
    g = g[k:]
    poly = np.full_like(z, g[-1])
    for coeff in g[-2::-1]:
        poly = poly * z + coeff
    log_g = 2.0 * (form.degree * log_alpha + k * np.log(np.abs(z))
                   + np.log(np.abs(poly))) + c * log_weight
    top = log_g.max(axis=1, keepdims=True)
    log_mean = top[:, 0] + np.log(np.mean(np.exp(log_g - top), axis=1))
    slopes = np.diff(log_mean) / np.diff(log_s)
    richardson = (4.0 * slopes[1:] - slopes[:-1]) / 3.0
    return (float(richardson[-1]) + 1.0,
            float(abs(richardson[-1] - richardson[-2])))


def reference_estimate(arr, f, c) -> IntegrabilityVerdict:
    """The oracle's verdict, one (component, chart) pair at a time."""
    c = to_fraction(c)
    components = f.homogeneous_components()
    radial = min(form.degree for form in components) + 2 - c * arr.total_mass
    with np.errstate(divide="ignore", invalid="ignore"):
        per_line = [[line_margin(form, chart, float(c))
                     for form in components] for chart in charts(arr)]
    checks = [(kappa, spread, max(20.0 * spread, MIN_RESOLUTION))
              for found in per_line for kappa, spread in found]
    return IntegrabilityVerdict(
        integrable=radial > 0 and all(kappa > tol for kappa, _, tol in checks),
        radial_margin=radial,
        line_margins=tuple(nan_aware(min, [kappa for kappa, _ in found])
                           for found in per_line),
        resolution=nan_aware(max, [MIN_RESOLUTION]
                             + [tol for *_, tol in checks]),
        undecided=not all(spread <= MAX_SPREAD for _, spread, _ in checks),
    )


def nan_aware(pick, values: list[float]) -> float:
    """pick(values), or NaN if any value is NaN: Python's min and max skip
    a NaN that does not come first."""
    return math.nan if any(map(math.isnan, values)) else pick(values)
