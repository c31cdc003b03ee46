"""Monte Carlo reference estimator of the full Gram sphere moments,
cross-degree pairs included, and the reference kernel evaluated directly
at z.

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
"""

import numpy as np

from pshlab.bergman import SPHERE_AREA, radial_factor, sphere_points

CHUNK = 1 << 14


def basis_values(arr, result, x, y):
    """Values of the basis elements prod ell^b * x^u * y^v, one row each."""
    common = np.ones_like(x)
    for line, power in zip(arr.lines, result.line_powers):
        common = common * line.evaluate(x, y) ** power
    return np.array([common * x ** u * y ** v for u, v in result.monomials])


def _weighted_rows(arr, result, x, y):
    sqrt_w = np.ones(len(x))
    for line, a in zip(arr.lines, arr.coeffs):
        sqrt_w *= np.abs(line.evaluate(x, y)) ** -float(result.m * a)
    return basis_values(arr, result, x, y) * sqrt_w


def direct_kernel(arr, result, x, y):
    """Sum of |sigma_l|^2 with sigma = transform^T applied to the basis
    values at z itself, with no use of homogeneity."""
    sigma = result.transform.T @ basis_values(arr, result, x, y)
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
    scale = np.array([[SPHERE_AREA * radial_factor(int(dj + dk), s_hom,
                                                   result.spec.radius)
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
