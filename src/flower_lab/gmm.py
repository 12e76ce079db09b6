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

from .operators import LinearOperator, _rank_svd, as_vector

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
            self._root = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        self._finish(cov)

    @classmethod
    def _from_root(cls, weights, means, root):
        """The mixture with covariance root root^T, keeping the computed root as its factor."""
        if not all(np.all(np.isfinite(a)) for a in (weights, means, root)):
            raise FloatingPointError("weights, means or covariance root not finite")
        mix = cls.__new__(cls)
        mix.weights, mix.means, mix._root = weights, means, root
        mix._finish(root @ root.T)
        return mix

    def _finish(self, cov):
        """The rest of the state, from weights, means, the root and its covariance cov."""
        self.covariance = cov
        diag = np.diagonal(cov)
        # c > 0 on the diagonal and d nonzero entries: cov is exactly c I
        isotropic = np.all(diag == diag[0]) and np.count_nonzero(cov) == diag.size
        self._isotropic_variance = float(diag[0]) if isotropic else None
        self._log_det = 2.0 * np.linalg.slogdet(self._root)[1]
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
        # _root is a square root of the covariance, lower-triangular or not
        sol = np.linalg.solve(self._root, diff.reshape(-1, self.dim).T).T
        maha = np.sum(sol * sol, axis=-1).reshape(diff.shape[:-1])
        log_norm = -0.5 * (self.dim * np.log(2.0 * np.pi) + self._log_det)
        return self.log_weights + log_norm - 0.5 * maha

    def log_density(self, x):
        """Mixture log-density via log-sum-exp; scalar for (d,), (n,) for (n, d)."""
        return _logsumexp(self.component_log_densities(x))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. samples: categorical component, then noise through the root."""
        if n < 1:
            raise ValueError("n must be >= 1")
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[idx] + z @ self._root.T

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def full_covariance(self) -> np.ndarray:
        """Covariance of the mixture (shared part plus mean spread)."""
        m = self.mean()
        centered = self.means - m
        spread = (self.weights[:, None] * centered).T @ centered
        return self.covariance + spread


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
        # the prox multiplies through by s^2, which must neither underflow nor overflow
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


def posterior_linear_gaussian(
    prior: GaussianMixture, obs: LinearGaussianObservation
) -> GaussianMixture:
    """Exact posterior of a shared-covariance GMM under a linear measurement.

    The posterior is again a GMM with shared covariance.  With L Sigma's
    factor, H L = W diag(S) V^T by ``svd``'s rank rule, s the noise standard
    deviation, g = sqrt(S^2 + s^2) and r_k = W^T (y - H mu_k):

        Sigma_post = F F^T with F = L V diag(s / g), handed over as the factor
        mu_k_post  = mu_k + L V (S / g^2 * r_k)
        w_k_post   ~ w_k exp(-|r_k / g|^2 / 2), summed over the rank of H L

    with weights normalized in log space, where the log-determinant and the
    part of y - H mu_k outside H's range cancel.  Nothing forms 1 - gain or
    factors Sigma_post, so an observed direction keeps its variance at any s.
    """
    h_dense = obs.operator.dense_matrix()
    s = obs.noise_std
    with np.errstate(over="ignore", invalid="ignore"):
        w, sv, v = _rank_svd(h_dense @ prior._root)
        g = np.hypot(sv, s)
        # past the rank r_k holds rounding, not data
        q = np.where(sv > 0, (obs.observation - prior.means @ h_dense.T) @ w / g, 0.0)
        root = prior._root @ v
        means_post = prior.means + (q * (sv / g)) @ root.T
        log_w = prior.log_weights - 0.5 * np.sum(q * q, axis=-1)
        weights = np.exp(log_w - _logsumexp(log_w))
    return GaussianMixture._from_root(weights, means_post, root * (s / g))


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
