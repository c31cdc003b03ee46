"""Monte Carlo reference estimator of the full Gram sphere moments,
cross-degree pairs included, the reference kernel evaluated directly at
z, and the Gram blocks each summed over the Hopf rule nodes.

`gram_matrix` integrates only the same-degree blocks, with a deterministic
rule on CP^1: the weight is invariant under z -> e^{i theta} z, so entries
between different total degrees vanish exactly and are stored as zeros.
This estimator checks both.  It averages every pair of basis rows over the
points of `sphere_points`, evaluating each row directly as
prod ell^b * x^u * y^v * prod |ell|^(-m a), so cross-degree sample means
must sit within sampling noise of 0 and same-degree ones within sampling
noise of `gram_matrix`.  `direct_kernel` likewise checks the log-space
kernel of `kernel_values` against the plain sum over the basis values.
Direct evaluation overflows for large m; use these at small m only.
`per_block_grams` sums every degree block over the Hopf nodes on its own,
node by node, as one row product per block and node chunk, its rows the
direct powers x^(t-i) y^i, with no row code shared with pshlab.  It rebuilds
the flat nodes x = sqrt(1-s) p + sqrt(s) e^{i phi} n and their common
factors sqrt(c^2) from each chart's cached grid, where `gram_matrix` sums
only the top block, chart by chart from the angular spectrum of c^2, and
derives the others from |x|^2 + |y|^2 = 1.
"""

import numpy as np

from pshlab import bergman
from pshlab.arrangement import hopf_charts
from pshlab.bergman import SPHERE_AREA, radial_factor, sphere_points

CHUNK = 1 << 14


def raw_line(line, x, y):
    """The line form with its own coefficients, as the arrangement
    normalizes them (moderate coefficients only)."""
    return complex(line.cx) * x + complex(line.cy) * y


def basis_values(arr, result, x, y):
    """Values of the basis elements prod ell^b * x^u * y^v, one row each."""
    common = np.ones_like(x)
    for line, power in zip(arr.lines, result.line_powers):
        common = common * raw_line(line, x, y) ** power
    return np.array([common * x ** u * y ** v for u, v in result.monomials])


def _weighted_rows(arr, result, x, y):
    sqrt_w = np.ones(len(x))
    for line, a in zip(arr.lines, arr.coeffs):
        sqrt_w *= np.abs(raw_line(line, x, y)) ** -float(result.m * a)
    return basis_values(arr, result, x, y) * sqrt_w


def direct_kernel(arr, result, x, y):
    """Sum of |sigma_l|^2 with sigma = transform^T applied to the basis
    values at z itself, with no use of homogeneity.  The transform of the
    whole basis is block diagonal in the degree blocks, scaled back to the
    arrangement's normalization by exp(-log_scale / 2)."""
    transform = np.zeros((result.basis_size, result.effective_rank),
                         dtype=np.complex128)
    col = 0
    for block in result.blocks:
        width = block.transform.shape[1]
        transform[block.span, col:col + width] = block.transform
        col += width
    sigma = (transform * np.exp(-result.log_scale / 2.0)).T @ basis_values(
        arr, result, x, y)
    return np.sum(np.abs(sigma) ** 2, axis=0)


def full_sphere_moments(arr, result):
    """Sample means of f_j conj(f_k) w over the sphere and their standard
    errors, for every pair (j, k) of the basis of `result`."""
    spec = result.spec
    points = sphere_points(spec.sphere_samples, spec.seed)
    k = result.basis_size
    s_sum = np.zeros((k, k), dtype=np.complex128)
    m2_sum = np.zeros((k, k))
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        rows = _weighted_rows(arr, result, chunk[:, 0], chunk[:, 1])
        s_sum += rows @ rows.conj().T
        abs2 = np.abs(rows) ** 2
        m2_sum += abs2 @ abs2.T
    n = float(len(points))
    mean = s_sum / n
    variance = np.maximum(m2_sum / n - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(variance / n)


def full_gram(arr, result):
    """The Gram estimate of every entry from the full sphere moments,
    scaled and symmetrized as `gram_matrix` does on its blocks, and its
    standard errors on the same scale."""
    mean, stderr = full_sphere_moments(arr, result)
    s_hom = 2 * result.m * arr.total_mass
    d = result.degrees
    scale = np.array([[SPHERE_AREA * radial_factor(int(dj + dk), s_hom)
                       for dk in d] for dj in d])
    gram = mean * scale
    return (gram + gram.conj().T) / 2.0, stderr * scale


def max_cross_degree_z(arr, result):
    """Largest |sample mean| / stderr over the cross-degree pairs (0 when
    the basis has a single degree)."""
    mean, stderr = full_sphere_moments(arr, result)
    cross = result.degrees[:, None] != result.degrees[None, :]
    z = np.abs(mean[cross]) / np.maximum(stderr[cross], 1e-300)
    return float(z.max()) if z.size else 0.0


def hopf_nodes(arr, result):
    """The kept Hopf rule nodes (x, y) of `result` and their common factors
    c, flat, rebuilt from the cached (s, angle) grid of every chart."""
    exponents = tuple(float(b - result.m * a)
                      for b, a in zip(result.line_powers, arr.coeffs))
    rule = bergman._hopf_nodes(
        arr, exponents, bergman.HOPF_JACOBI, bergman.HOPF_LEGENDRE,
        bergman.HOPF_ANGLES)
    angles = bergman.HOPF_ANGLES
    phase = np.exp(2j * np.pi * np.arange(angles) / angles)
    parts = []
    for chart, (s, c2, _) in zip(hopf_charts(arr), rule):
        inner = np.sqrt(1.0 - s)[:, None]
        outer = np.sqrt(s)[:, None] * phase
        keep = c2 > 0.0
        parts.append([(inner * p + outer * n)[keep]
                      for p, n in zip(chart.point, chart.normal)]
                     + [np.sqrt(c2[keep])])
    return tuple(np.concatenate(part) for part in zip(*parts))


def per_block_grams(arr, result):
    """The same-degree Gram blocks of `result`, each block summed over the
    nodes of its Hopf rule as rows @ conj(rows)^T, then scaled and
    symmetrized as `gram_matrix` does."""
    base = sum(result.line_powers)
    x, y, common = hopf_nodes(arr, result)
    degrees = [block.degree - base for block in result.blocks]
    sums = [np.zeros((t + 1, t + 1), dtype=np.complex128) for t in degrees]
    k = np.arange(degrees[-1] + 1)[:, None]
    for start in range(0, len(x), CHUNK):
        chunk = slice(start, start + CHUNK)
        # the direct powers x^k and y^k; row i of block t is x^(t-i) y^i
        xk, yk = x[chunk] ** k, y[chunk] ** k
        for t, s_sum in zip(degrees, sums):
            rows = common[chunk] * xk[t::-1] * yk[:t + 1]
            s_sum += rows @ np.conjugate(rows).T
    s_hom = 2 * result.m * arr.total_mass
    grams = []
    for block, s_sum in zip(result.blocks, sums):
        gram = s_sum * (SPHERE_AREA * radial_factor(2 * block.degree, s_hom))
        grams.append((gram + gram.conj().T) / 2.0)
    return grams
