"""Independent numerical oracles used by the test suite.

Everything here is computed from first principles with dense linear algebra
or quadrature, deliberately avoiding the package's own responsibility and
solver code so the tests remain a genuine cross-check.  The exceptions are
``cfm_loss``, the batch harness the gradient checks put around the network's
own backward pass, which is what they test, and ``adam_trained_mlp``, which
takes that pass's gradients to check the trainer's optimizer.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve, solve_triangular
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from flower_lab.mlp import Mlp, MlpWorkspace


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


def conditional_mean_in_eigenbasis(weights, means, cov, x, t):
    """E[X1 | Xt = x] by the field's full-covariance formula, operation by operation.

    Works in the eigenbasis of a test-local ``eigh`` of cov (z = x U, two
    products with U) for every covariance, isotropic ones included, so the
    field's shortcut for c I (U None) can be compared with it bit for bit.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    d = means.shape[1]
    cov = np.asarray(cov, dtype=float)
    lam, u = np.linalg.eigh(float(cov) * np.eye(d) if cov.ndim == 0 else cov)
    means_u = means @ u
    with np.errstate(divide="ignore"):
        log_weights = np.log(np.asarray(weights, dtype=float))
    x = np.asarray(x, dtype=float)
    s = (t * t) * lam + (1.0 - t) ** 2
    z = x.reshape(-1, d) @ u
    c = means_u * (t / s)
    resp = c @ z.T
    resp += (log_weights - (0.5 * t) * np.sum(means_u * c, axis=-1))[:, None]
    resp -= resp.max(axis=0)
    np.exp(resp, out=resp)
    resp /= resp.sum(axis=0)
    z *= t * lam / s
    z += resp.T @ (means_u * ((1.0 - t) ** 2 / s))
    return (z @ u.T).reshape(x.shape)


def sample_by_cholesky(weights, means, cov, rng, n):
    """n mixture draws as a lower Cholesky root takes them: means[k] + z L^T.

    The component index and the normals come from rng in the order
    ``GaussianMixture.sample`` draws them, so a test's data can be pinned
    to this root whatever factor the mixture holds.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    idx = rng.choice(means.shape[0], size=n, p=np.asarray(weights, dtype=float))
    z = rng.standard_normal((n, means.shape[1]))
    return means[idx] + z @ np.linalg.cholesky(cov).T


def mixture_mean(prior):
    """The mixture's mean, sum_k w_k mu_k."""
    return prior.weights @ prior.means


def mixture_covariance(prior):
    """Covariance of the mixture: the shared part plus the spread of the means."""
    centered = prior.means - mixture_mean(prior)
    return prior.covariance + (prior.weights[:, None] * centered).T @ centered


def component_log_densities(prior, x):
    """log[w_k N(x; mu_k, Sigma)] for each k of a mixture; shape (..., K)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != prior.dim:
        raise ValueError(f"x has dimension {x.shape[-1]}, expected {prior.dim}")
    lam, u, means_u = prior._factor
    if not np.all(lam > 0):  # a posterior variance under the double range held as 0
        raise FloatingPointError("covariance has a zero variance, so no density")
    # in the factor's basis Sigma is diag(lam): sum z^2 / lam + log(2 pi lam) per k
    diff = (x if u is None else x @ u)[..., None, :] - means_u  # (..., K, d)
    return prior.log_weights - 0.5 * np.sum(diff * diff / lam + np.log(2.0 * np.pi * lam), -1)


def mixture_log_density(prior, x):
    """The mixture's log-density, scipy's logsumexp of its component log-densities."""
    return logsumexp(component_log_densities(prior, x), axis=-1)


def posterior_by_scipy_cholesky(weights, means, cov, h_dense, noise_std, y):
    """Exact GMM posterior (weights, means, covariance) under y = Hx + noise.

    Precisions by cho_solve(cho_factor(.), I), the evidence of each component
    by a scipy Cholesky of H Sigma H^T + s^2 I and a triangular solve, and
    the weights normalized by scipy's logsumexp.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    h_dense = np.atleast_2d(np.asarray(h_dense, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d, m, s2 = means.shape[1], h_dense.shape[0], noise_std * noise_std
    eye = np.eye(d)
    prior_precision = cho_solve(cho_factor(cov, lower=True), eye)
    cov_post = cho_solve(cho_factor(prior_precision + h_dense.T @ h_dense / s2, lower=True), eye)
    cov_post = 0.5 * (cov_post + cov_post.T)
    means_post = (h_dense.T @ y / s2 + means @ prior_precision.T) @ cov_post.T
    y_chol = cholesky(h_dense @ cov @ h_dense.T + s2 * np.eye(m), lower=True)
    sol = solve_triangular(y_chol, (y - means @ h_dense.T).T, lower=True).T
    log_det = 2.0 * np.log(np.diag(y_chol)).sum()
    with np.errstate(divide="ignore"):
        log_w = np.log(np.asarray(weights, dtype=float))
    log_w = log_w - 0.5 * (np.sum(sol * sol, axis=-1) + log_det + m * np.log(2.0 * np.pi))
    return np.exp(log_w - logsumexp(log_w)), means_post, cov_post


def flower_chain_law(mean, cov, h_dense, noise_std, y, n_steps, gamma):
    """Mean and covariance of Flower's output for the Gaussian prior N(mean, cov).

    With one component every step is affine in the state plus independent
    Gaussian noise.  From x_0 ~ N(0, I), step k at t = k / N maps x to
    x1_hat = mean + t cov P^-1 (x - t mean) with P = t^2 cov + (1 - t)^2 I,
    then to M^-1 (nu^-2 x1_hat + s^-2 H^T y) + gamma kappa with
    M = nu^-2 I + s^-2 H^T H, nu^2 = (1 - t)^2 / (t^2 + (1 - t)^2) and
    kappa ~ N(0, M^-1), then to t' x1_tilde + (1 - t') eps at t' = (k + 1) / N.
    The recursion carries (m, C) through those maps with dense solves.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    h_dense = np.atleast_2d(np.asarray(h_dense, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = mean.shape[0]
    eye = np.eye(d)
    m, c = np.zeros(d), eye
    for k in range(n_steps):
        t, t_next = k / n_steps, (k + 1) / n_steps
        slope = t * solve(t * t * cov + (1.0 - t) ** 2 * eye, cov, assume_a="pos").T
        inv_nu2 = (t * t + (1.0 - t) ** 2) / (1.0 - t) ** 2
        sigma_t = cho_solve(cho_factor(inv_nu2 * eye + h_dense.T @ h_dense / noise_std**2), eye)
        step = inv_nu2 * sigma_t @ slope
        data = sigma_t @ h_dense.T @ y / noise_std**2
        shift = inv_nu2 * sigma_t @ (mean - t * slope @ mean) + data
        m = t_next * (step @ m + shift)
        c = t_next**2 * (step @ c @ step.T + gamma * sigma_t) + (1.0 - t_next) ** 2 * eye
    return m, c


def gaussian_w2(mean_a, cov_a, mean_b, cov_b) -> float:
    """W2 between N(mean_a, cov_a) and N(mean_b, cov_b), in closed form.

    W2^2 = |m_a - m_b|^2 + tr(A + B - 2 (A^1/2 B A^1/2)^1/2).  Each square
    root is a symmetric ``eigh`` one with rounding below zero clipped, so a
    singular covariance (a point mass included) needs no special case.
    """

    def sqrt_psd(c):
        lam, u = np.linalg.eigh(0.5 * (c + c.T))
        return (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.T

    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=float))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=float))
    root_a = sqrt_psd(cov_a)
    cross = np.trace(sqrt_psd(root_a @ cov_b @ root_a))
    shift = np.asarray(mean_a, dtype=float) - np.asarray(mean_b, dtype=float)
    return float(np.sqrt(max(shift @ shift + np.trace(cov_a) + np.trace(cov_b) - 2 * cross, 0.0)))


def wasserstein1d(a, b) -> float:
    """Exact W2 between two equal-size 1-D empirical distributions.

    Sorts both sides and takes the root-mean-square of order-statistic
    differences, which is the optimal transport cost on the line.
    """
    a = np.sort(np.asarray(a, dtype=float).reshape(-1))
    b = np.sort(np.asarray(b, dtype=float).reshape(-1))
    if a.shape != b.shape:
        raise ValueError(f"sample counts differ: {a.shape[0]} vs {b.shape[0]}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def exact_w2(a, b, max_n: int = 2048) -> float:
    """Exact W2 by optimal assignment, O(n^3).

    Refuses sample counts beyond max_n, where the cubic assignment becomes
    the wrong tool.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("exact_w2 requires equal-shape sample sets")
    if a.shape[0] > max_n:
        raise ValueError(f"exact_w2 limited to n <= {max_n}")
    cost = squared_distance_matrix(a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(max(cost[rows, cols].mean(), 0.0)))


def squared_distance_matrix(a, b):
    """|a_i - b_j|^2 as sq_a + sq_b - 2 a b^T, broadcast in one expression."""
    sq_a = np.sum(a * a, axis=1)[:, None]
    sq_b = np.sum(b * b, axis=1)[None, :]
    return sq_a + sq_b - 2.0 * (a @ b.T)


def assignment_by_scipy(x0s, x1s):
    """The minimum squared-distance permutation by one cold linear_sum_assignment call."""
    x0s = np.asarray(x0s, dtype=float)
    x1s = np.asarray(x1s, dtype=float)
    return linear_sum_assignment(squared_distance_matrix(x0s, x1s))[1]


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


def cfm_loss(mlp, x0s, x1s, ts):
    """Conditional flow-matching loss and parameter gradients on one batch.

    The harness around the network's own backward pass, which is what the
    gradient checks test: interpolates x_t = (1 - t) x0 + t x1, feeds
    (x_t, t) through the network and regresses onto x1 - x0.  Returns
    (loss, grads) with grads one block [dW; db] per layer, aligned with the
    network's ``layers``.
    """
    x0s = np.asarray(x0s, dtype=mlp.dtype)
    x1s = np.asarray(x1s, dtype=mlp.dtype)
    ts = np.asarray(ts, dtype=mlp.dtype).reshape(-1)
    if x0s.shape != x1s.shape or x0s.shape[0] != ts.shape[0]:
        raise ValueError("batch shapes disagree")
    if np.any(ts < 0) or np.any(ts > 1):
        raise ValueError("times must lie in [0, 1]")
    tcol = ts[:, None]
    inp = np.concatenate([(1.0 - tcol) * x0s + tcol * x1s, tcol], axis=1)
    ws = MlpWorkspace(mlp, len(x0s))
    loss = ws.loss_and_grad(inp, x1s - x0s)
    grads = [g.copy() for g in ws.grad_layers]
    return loss, grads


def adam_trained_mlp(target_sampler, source_sampler, coupling, cfg, dim=2):
    """``train_cfm``'s network, with Adam written as a loop over the layers' blocks.

    Per step it draws in ``train_cfm``'s documented order (target batch, source
    batch, times, then the coupling), builds the same interpolated inputs and
    targets in the trainer's dtype, and takes the gradients from
    ``MlpWorkspace.loss_and_grad``.  Each layer's block [W; b] then takes
    bias-corrected Adam (beta = (0.9, 0.999), eps = 1e-8) with its own moment
    arrays, in the trainer's order of floating-point operations.  Returns the
    network in the trainer's dtype.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(cfg.seed)
    dt = np.dtype(cfg.dtype)
    n = cfg.batch_size
    mlp = Mlp.initialize([dim + 1, *cfg.hidden_sizes, dim], rng, dtype=dt)
    ws = MlpWorkspace(mlp, n)
    params, grads = mlp.layers, ws.grad_layers
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    upd = [np.empty_like(p) for p in params]
    inp = np.empty((n, dim + 1), dt)
    target = np.empty((n, dim), dt)
    for step in range(cfg.steps):
        x1 = target_sampler(rng, n)
        x0 = source_sampler(rng, n)
        ts = rng.random(n)
        x0, x1 = coupling.pair(x0, x1, rng)
        tcol = ts[:, None]
        np.multiply(x0, 1.0 - tcol, out=inp[:, :dim], casting="unsafe")
        inp[:, :dim] += tcol * x1
        inp[:, dim] = ts
        np.subtract(x1, x0, out=target, casting="unsafe")
        ws.loss_and_grad(inp, target)

        b1t = 1.0 - beta1 ** (step + 1)
        b2t = 1.0 - beta2 ** (step + 1)
        scale = cfg.learning_rate / b1t
        for p, g, m, v, u in zip(params, grads, adam_m, adam_v, upd):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            np.multiply(g, g, out=u)
            v += (1.0 - beta2) * u
            np.sqrt(v, out=u)
            u /= np.sqrt(b2t)
            u += eps
            np.divide(m, u, out=u)
            u *= scale
            p -= u
    return mlp


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
