"""Gaussian mixtures with shared covariance and their closed-form conditionals.

This module is the exact-reference layer of the lab: the mixture prior, the
posterior under a linear-Gaussian measurement, the straight-line-path
marginal at time t, and the conditional expectation E[X1 | Xt = x] whose
algebra doubles as the exact velocity field.

The reference functions work in log space wherever mixture responsibilities
appear: component densities underflow long before the math stops being
well-conditioned, especially near t = 1 where the path covariance shrinks
like (1-t)^2.  The field works in Sigma's eigenbasis, factored once per
prior (or, for Sigma = c I, in the standard basis with no factorization),
where that covariance is diagonal and the responsibilities are a
max-shifted softmax of one (K, d) x (d, n) product, kept component-major,
(K, n): numpy reduces and broadcasts along a short last axis row by row, so
with K of a few an (n, K) softmax spends most of a batch evaluation there.
Everything here is numpy alone, so importing the package loads no scipy
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import LinearOperator, as_vector

__all__ = [
    "GaussianMixture",
    "LinearGaussianObservation",
    "posterior_linear_gaussian",
    "marginal_at_time",
    "conditional_mean_x1",
    "analytic_velocity",
]

_WEIGHT_TOL = 1e-12


class GaussianMixture:
    """Mixture of K Gaussians with one shared covariance.

    Attributes:
        weights: Mixture weights, shape ``(K,)``, nonnegative, summing to 1.
        means: Component means, shape ``(K, d)``.
        covariance: Shared covariance, shape ``(d, d)``; a scalar argument
            is expanded to an isotropic matrix.  When the covariance is c I
            (a scalar argument or a matrix exactly equal to one), the field
            skips the eigenbasis: eigh would return U = I exactly.
        log_weights: ``log(weights)``, ``-inf`` for a zero weight.
    """

    def __init__(self, weights, means, covariance):
        self.weights = np.array(weights, dtype=float)
        self.means = np.atleast_2d(np.array(means, dtype=float))
        if self.weights.ndim != 1 or self.weights.shape[0] != self.means.shape[0]:
            raise ValueError("weights and means disagree on component count")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.means))):
            raise ValueError("weights and means must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, not 1")
        d = self.means.shape[1]
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(d)
        if cov.shape != (d, d):
            raise ValueError(f"covariance must be ({d}, {d}), got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be finite")
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12 * max(1.0, abs(cov).max())):
            raise ValueError("covariance must be symmetric")
        try:
            self._chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        self.covariance = cov
        diag = np.diagonal(cov)
        # c > 0 on the diagonal and d nonzero entries: cov is exactly c I
        self._isotropic_variance = (
            float(diag[0]) if np.all(diag == diag[0]) and np.count_nonzero(cov) == d else None
        )
        self._log_det = 2.0 * np.log(np.diag(self._chol)).sum()
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(self.weights)
        for arr in (self.weights, self.means, self.covariance, self.log_weights):
            arr.flags.writeable = False

    @cached_property
    def covariance_eigh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam, U, means @ U) with Sigma = U diag(lam) U^T, computed once; read-only."""
        lam, u = np.linalg.eigh(self.covariance)
        means_u = self.means @ u
        for arr in (lam, u, means_u):
            arr.flags.writeable = False
        return lam, u, means_u

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def component_log_densities(self, x) -> np.ndarray:
        """log[w_k N(x; mu_k, Sigma)] for each k; shape (..., K)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has dimension {x.shape[-1]}, expected {self.dim}")
        diff = x[..., None, :] - self.means  # (..., K, d)
        sol = _solve_lower(self._chol, diff)
        maha = np.sum(sol * sol, axis=-1)
        log_norm = -0.5 * (self.dim * np.log(2.0 * np.pi) + self._log_det)
        return self.log_weights + log_norm - 0.5 * maha

    def log_density(self, x):
        """Mixture log-density via log-sum-exp; scalar for (d,), (n,) for (n, d)."""
        return _logsumexp(self.component_log_densities(x))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. samples: categorical component, then Cholesky noise."""
        if n < 1:
            raise ValueError("n must be >= 1")
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[idx] + z @ self._chol.T

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def full_covariance(self) -> np.ndarray:
        """Covariance of the mixture (shared part plus mean spread)."""
        m = self.mean()
        centered = self.means - m
        spread = (self.weights[:, None] * centered).T @ centered
        return self.covariance + spread


def _solve_lower(chol_lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L z = rhs row-wise for lower-triangular L; rhs (..., d)."""
    # not reshape(-1, m): -1 cannot be inferred when m = 0
    flat = rhs.reshape(math.prod(rhs.shape[:-1]), rhs.shape[-1])
    return np.linalg.solve(chol_lower, flat.T).T.reshape(rhs.shape)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, max-shifted; -inf where all of a is -inf."""
    peak = np.max(a, axis=-1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - peak), axis=-1)) + peak[..., 0]


@dataclass(frozen=True)
class LinearGaussianObservation:
    """A measurement y = Hx + noise with isotropic Gaussian noise."""

    operator: LinearOperator
    noise_std: float
    observation: np.ndarray

    def __post_init__(self):
        # the prox divides by s^2 and scales by s^-2
        with np.errstate(over="ignore", divide="ignore"):
            precision = 1.0 / np.square(np.float64(self.noise_std))
        if not (self.noise_std > 0 and 0 < precision < np.inf):
            raise ValueError(
                f"noise_std must be finite and > 0 with a finite, nonzero "
                f"noise_std**-2, got {self.noise_std!r}"
            )
        y = as_vector(self.observation, dim=self.operator.out_dim, name="observation")
        y.flags.writeable = False
        object.__setattr__(self, "observation", y)

    @cached_property
    def data_rhs(self) -> np.ndarray:
        """s^-2 H^T y, the data term of every prox right-hand side; cached, read-only."""
        data = self.operator.apply_adjoint(self.observation) / (self.noise_std**2)
        data.flags.writeable = False
        return data


def posterior_linear_gaussian(
    prior: GaussianMixture, obs: LinearGaussianObservation
) -> GaussianMixture:
    """Exact posterior of a shared-covariance GMM under a linear measurement.

    The posterior is again a GMM with shared covariance.  With L the lower
    Cholesky factor of the m x m predictive covariance H Sigma H^T + s^2 I,
    A = L^-1 H Sigma and the gain K = A^T L^-1:

        Sigma_post = (I - K H) Sigma (I - K H)^T + s^2 K K^T
        mu_k_post  = mu_k + (L^-1 (y - H mu_k))^T A
        w_k_post   ~ w_k N(y; H mu_k, H Sigma H^T + s^2 I)

    with s the noise standard deviation and weights normalized in log space.
    Sigma_post is in Joseph form, a sum of Gram matrices: Sigma - A^T A rounds
    an observed axis's variance s^2 to 0 once it is below Sigma's last bit.
    No d x d matrix is factored, so nothing scales like s^-2.
    """
    h_dense = obs.operator.dense_matrix()
    m = obs.operator.out_dim
    s2 = obs.noise_std * obs.noise_std
    h_sigma = h_dense @ prior.covariance  # (M, d)
    y_chol = np.linalg.cholesky(h_sigma @ h_dense.T + s2 * np.eye(m))
    a = np.linalg.solve(y_chol, h_sigma)
    sol = _solve_lower(y_chol, obs.observation - prior.means @ h_dense.T)  # (K, M)
    means_post = prior.means + sol @ a
    gain_t = np.linalg.solve(y_chol.T, a)  # K^T, (M, d)
    residual_factor = prior._chol - gain_t.T @ (h_dense @ prior._chol)  # (I - K H) L_Sigma
    cov_post = residual_factor @ residual_factor.T + s2 * (gain_t.T @ gain_t)

    # marginal likelihood of y under each component
    maha = np.sum(sol * sol, axis=-1)
    log_det = 2.0 * np.log(np.diag(y_chol)).sum()
    log_w = prior.log_weights - 0.5 * (maha + log_det + m * np.log(2.0 * np.pi))
    log_w = log_w - _logsumexp(log_w)
    return GaussianMixture(np.exp(log_w), means_post, cov_post)


def marginal_at_time(prior: GaussianMixture, t: float) -> GaussianMixture:
    """Law of X_t = (1-t) X_0 + t X_1 for standard-normal X_0 independent of X_1.

    Means scale to t mu_k and the shared covariance becomes
    t^2 Sigma + (1-t)^2 I; weights are unchanged.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    d = prior.dim
    cov = (t * t) * prior.covariance + ((1.0 - t) ** 2) * np.eye(d)
    return GaussianMixture(prior.weights, t * prior.means, cov)


def conditional_mean_x1(prior: GaussianMixture, x, t: float) -> np.ndarray:
    """E[X1 | Xt = x] along the straight-line path with independent coupling.

    Valid for 0 <= t < 1; at t = 1 the conditional law degenerates to the
    point mass at x, so callers should use x directly there.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0, 1), got {t}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != prior.dim:
        raise ValueError(f"x has dimension {x.shape[-1]}, expected {prior.dim}")
    # In Sigma's eigenbasis, z = x U, the path covariance is diag(s), the slope is
    # diag(t lam / s) (so 1 - t slope = (1-t)^2 / s) and the k-free sum(z^2 / s) drops out.
    # The logits are component-major, (K, n), so the softmax's reductions and
    # broadcasts sweep the batch; the max-shift is still one per point (column).
    # In place, because a fresh batch-sized temporary can cost page faults when
    # the allocator has handed the heap top back between calls.
    if prior._isotropic_variance is None:
        lam, u, means_u = prior.covariance_eigh
        z = x.reshape(-1, prior.dim) @ u
    else:
        # the standard basis, with the bits of U = I and a scalar lam
        lam, u, means_u = prior._isotropic_variance, None, prior.means
        z = x.reshape(-1, prior.dim).copy()
    s = (t * t) * lam + (1.0 - t) ** 2
    c = means_u * (t / s)
    resp = c @ z.T
    resp += (prior.log_weights - (0.5 * t) * np.sum(means_u * c, axis=-1))[:, None]
    resp -= resp.max(axis=0)
    np.exp(resp, out=resp)
    resp /= resp.sum(axis=0)
    z *= t * lam / s
    z += resp.T @ (means_u * ((1.0 - t) ** 2 / s))
    return (z if u is None else z @ u.T).reshape(x.shape)


def analytic_velocity(prior: GaussianMixture, x, t: float) -> np.ndarray:
    """The exact CFM-optimal velocity (E[X1 | Xt = x] - x) / (1 - t)."""
    x = np.asarray(x, dtype=float)
    return (conditional_mean_x1(prior, x, t) - x) / (1.0 - t)
