"""Independent numerical oracles used by the test suite.

Everything here is computed from first principles with dense linear algebra
or quadrature, deliberately avoiding the package's own responsibility and
solver code so the tests remain a genuine cross-check.
"""

import numpy as np
from scipy.linalg import cholesky, solve, solve_triangular
from scipy.special import logsumexp


def mixture_density(weights, means, cov, x):
    """Direct per-component mixture density (no log-space tricks).

    Args:
        weights: (K,) mixture weights.
        means: (K, d) component means.
        cov: (d, d) shared covariance.
        x: (..., d) evaluation points.

    Returns:
        Density values, shape (...,).
    """
    weights = np.asarray(weights, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    cov = np.asarray(cov, dtype=float)
    d = means.shape[1]
    if cov.ndim == 0:
        cov = float(cov) * np.eye(d)
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt((2.0 * np.pi) ** d * np.linalg.det(cov))
    x = np.asarray(x, dtype=float)
    diff = x[..., None, :] - means  # (..., K, d)
    maha = np.einsum("...ki,ij,...kj->...k", diff, prec, diff)
    return np.sum(weights * norm * np.exp(-0.5 * maha), axis=-1)


def conditional_mean_by_cholesky(weights, means, cov, x, t):
    """E[X1 | Xt = x] for the straight-line path, by a dense Cholesky.

    Factors the path covariance S = t^2 Sigma + (1-t)^2 I, takes log
    responsibilities log w_k - |L^-1 (x - t mu_k)|^2 / 2 normalized by
    log-sum-exp, and averages the component means mu_k + t Sigma S^-1
    (x - t mu_k).  Valid for 0 <= t < 1; x has shape (..., d).
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    cov = np.asarray(cov, dtype=float)
    x = np.asarray(x, dtype=float)
    d = means.shape[1]
    path_cov = (t * t) * cov + ((1.0 - t) ** 2) * np.eye(d)
    path_chol = cholesky(path_cov, lower=True)
    slope = t * solve(path_cov, cov, assume_a="pos").T
    diff = x[..., None, :] - t * means  # (..., K, d)
    flat = diff.reshape(-1, d)
    sol = solve_triangular(path_chol, flat.T, lower=True).T.reshape(diff.shape)
    with np.errstate(divide="ignore"):
        log_resp = np.log(np.asarray(weights, dtype=float)) - 0.5 * np.sum(sol * sol, -1)
    resp = np.exp(log_resp - logsumexp(log_resp, axis=-1, keepdims=True))
    comp_means = means + diff @ slope.T
    return np.sum(resp[..., None] * comp_means, axis=-2)


def gauss_legendre_grid_2d(lim=3.0, n_nodes=400):
    """Tensor-product Gauss-Legendre nodes/weights on [-lim, lim]^2."""
    nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
    nodes = nodes * lim
    wts = wts * lim
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    weights = np.outer(wts, wts).ravel()
    return points, weights


def conditional_mean_by_quadrature(weights, means, cov, x, t, lim=3.0, n_nodes=400):
    """E[X1 | Xt = x] for the straight-line path, by 2-D quadrature.

    Integrates x1 * N(x; t x1, (1-t)^2 I) * p(x1) over a Gauss-Legendre grid
    and normalizes.  Valid for 2-D mixtures and 0 <= t < 1.
    """
    x = np.asarray(x, dtype=float)
    pts, qw = gauss_legendre_grid_2d(lim=lim, n_nodes=n_nodes)
    prior_vals = mixture_density(weights, means, cov, pts)
    s2 = (1.0 - t) ** 2
    diff = x - t * pts
    kernel = np.exp(-0.5 * np.sum(diff * diff, axis=-1) / s2) / (2.0 * np.pi * s2)
    f = qw * prior_vals * kernel
    z = np.sum(f)
    return (f @ pts) / z


def posterior_product_on_grid(weights, means, cov, h_dense, noise_std, y, points):
    """Unnormalized prior(x) * likelihood(y | x) evaluated at grid points."""
    h_dense = np.atleast_2d(np.asarray(h_dense, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    prior_vals = mixture_density(weights, means, cov, points)
    resid = points @ h_dense.T - y
    m = y.shape[0]
    s2 = noise_std**2
    lik = np.exp(-0.5 * np.sum(resid * resid, axis=-1) / s2)
    lik /= (2.0 * np.pi * s2) ** (m / 2.0)
    return prior_vals * lik


def brute_force_min_pairing_cost(x0s, x1s):
    """Exact minimum squared-distance matching cost by permutation search."""
    from itertools import permutations

    n = len(x0s)
    cost = np.sum(
        (np.asarray(x0s)[:, None, :] - np.asarray(x1s)[None, :, :]) ** 2, axis=-1
    )
    best = np.inf
    for perm in permutations(range(n)):
        c = cost[np.arange(n), perm].sum()
        best = min(best, c)
    return best


def covariance_standard_errors(samples):
    """Empirical standard errors of the sample-covariance entries.

    Uses the fourth-moment formula SE(S_ij) = std(z_i z_j) / sqrt(n) on the
    centered data, which is valid without Gaussianity assumptions.
    """
    z = samples - samples.mean(axis=0)
    n, d = z.shape
    prods = z[:, :, None] * z[:, None, :]  # (n, d, d)
    return prods.std(axis=0, ddof=1) / np.sqrt(n)


def mean_standard_errors(samples):
    return samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
