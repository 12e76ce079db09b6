"""Gaussian mixtures with shared covariance and their closed-form conditionals.

This module is the exact-reference layer of the lab: the mixture prior, the
posterior under a linear-Gaussian measurement, the straight-line-path
marginal at time t, and the conditional expectation E[X1 | Xt = x] whose
algebra doubles as the exact velocity field.

A mixture holds Sigma as one factor, U diag(lam) U^T, and every reader works
in that basis, where Sigma and the path covariance t^2 Sigma + (1-t)^2 I are
diagonal.  The field's responsibilities and the exact posterior's weights are
normalized one way (``_normalized``, no log-sum-exp): max-shifted in log
space, since component densities underflow long before the math stops being
well-conditioned, and divided by their sum.  Responsibilities are
component-major, (K, n): numpy reduces and broadcasts along a short last axis
row by row, so with K of a few an (n, K) softmax spends most of a batch
evaluation there.  Everything here is numpy alone, so importing the package
loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LinearOperator, _rank_svd, as_vector

__all__ = [
    "GaussianMixture",
    "LinearGaussianObservation",
    "posterior_linear_gaussian",
    "marginal_at_time",
    "conditional_mean_x1",
]

_WEIGHT_TOL = 1e-12


class GaussianMixture:
    """Mixture of K Gaussians with one shared covariance.

    Sigma is held as one factor, U diag(lam) U^T, and nothing else: a scalar
    covariance, or a matrix exactly equal to c I, is lam = c with U None (the
    standard basis) at no d x d cost; any other matrix takes one ``eigh``.

    Attributes:
        weights: Mixture weights, shape ``(K,)``, nonnegative, summing to 1.
        means: Component means, shape ``(K, d)``.
        log_weights: ``log(weights)``, ``-inf`` for a zero weight.
    """

    def __init__(self, weights, means, covariance):
        weights = np.array(weights, dtype=float)
        means = np.atleast_2d(np.array(means, dtype=float))
        if weights.ndim != 1 or weights.shape[0] != means.shape[0]:
            raise ValueError("weights and means disagree on component count")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(means))):
            raise ValueError("weights and means must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        d = means.shape[1]
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim and cov.shape != (d, d):
            raise ValueError(f"covariance must be ({d}, {d}), got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be finite")
        if cov.ndim == 0:
            lam, u = float(cov), None
        else:
            if not np.allclose(cov, cov.T, rtol=0, atol=1e-12 * max(1.0, abs(cov).max())):
                raise ValueError("covariance must be symmetric")
            diag = np.diagonal(cov)
            # one value on the diagonal and d nonzero entries: cov is exactly c I
            if np.all(diag == diag[0]) and np.count_nonzero(cov) == d:
                lam, u = float(diag[0]), None
            else:
                lam, u = np.linalg.eigh(cov)
        if not np.min(lam) > 0:
            raise ValueError("covariance is not positive definite")
        self._hold(weights, means, lam, u)

    @classmethod
    def _from_factor(cls, weights, means, lam, u):
        """The mixture with Sigma = U diag(lam) U^T (lam I for U None), from computed parts."""
        if not all(np.all(np.isfinite(a)) for a in (weights, means, lam, 0.0 if u is None else u)):
            raise FloatingPointError("weights, means or covariance factor not finite")
        return cls.__new__(cls)._hold(weights, means, lam, u)

    def _hold(self, weights, means, lam, u):
        """Keep weights, means and the factor (lam, U, means U), all read-only; return self."""
        self.weights, self.means = weights, means
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(weights)
        self._factor = lam, u, means if u is None else means @ u
        for arr in (weights, means, self.log_weights, *self._factor):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return self

    @property
    def covariance(self) -> np.ndarray:
        """Sigma, shape ``(d, d)``, built from the factor on each read."""
        lam, u, _ = self._factor
        return lam * np.eye(self.dim) if u is None else (u * lam) @ u.T

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. samples: categorical component, then noise (z sqrt(lam)) U^T."""
        if n < 1:
            raise ValueError("n must be >= 1")
        lam, u, _ = self._factor
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim)) * np.sqrt(lam)
        return self.means[idx] + (z if u is None else z @ u.T)


def _normalized(logits: np.ndarray, axis: int) -> np.ndarray:
    """exp(logits) max-shifted and scaled to sum 1 along axis, in place; all -inf gives NaN."""
    logits -= logits.max(axis=axis, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=axis, keepdims=True)
    return logits


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

    The posterior is again a GMM with shared covariance.  With L = U
    diag(sqrt(lam)), H L = W diag(S) V^T by ``svd``'s rank rule, s the noise
    standard deviation, g = sqrt(S^2 + s^2) and r_k = W^T (y - H mu_k):

        Sigma_post = F F^T with F = L V diag(s / g)
        mu_k_post  = mu_k + L V (S / g^2 * r_k)
        w_k_post   ~ w_k exp(-|r_k / g|^2 / 2), summed over the rank of H L

    with weights normalized like the field's responsibilities, with no
    log-sum-exp, where the log-determinant and the part of y - H mu_k outside
    H's range cancel.  Sigma_post's factor is the SVD of F, or, for U None, V
    and lam (s / g)^2: F's columns are orthogonal.  Nothing forms 1 - gain, so
    an observed direction keeps its variance at any s.
    """
    h_dense = obs.operator.dense_matrix()
    s = obs.noise_std
    lam, u, _ = prior._factor
    with np.errstate(over="ignore", invalid="ignore"):
        if u is None:  # H sqrt(lam) is the operator's own SVD, scaled
            w, sv, v = obs.operator.svd
            sv, root = np.sqrt(lam) * sv, np.sqrt(lam) * v
        else:
            w, sv, v = _rank_svd(h_dense @ (u * np.sqrt(lam)))
            root = (u * np.sqrt(lam)) @ v
        g = np.hypot(sv, s)
        # past the rank r_k holds rounding, not data
        q = np.where(sv > 0, (obs.observation - prior.means @ h_dense.T) @ w / g, 0.0)
        means_post = prior.means + (q * (sv / g)) @ root.T
        weights = _normalized(prior.log_weights - 0.5 * np.sum(q * q, axis=-1), axis=0)
        if u is None:
            factor = lam * np.square(s / g), v
        else:
            u_post, root_sv, _ = np.linalg.svd(root * (s / g))
            factor = np.square(root_sv), u_post
    return GaussianMixture._from_factor(weights, means_post, *factor)


def marginal_at_time(prior: GaussianMixture, t: float) -> GaussianMixture:
    """Law of X_t = (1-t) X_0 + t X_1 for standard-normal X_0 independent of X_1.

    Means scale to t mu_k and the shared covariance becomes
    t^2 Sigma + (1-t)^2 I, which in Sigma's factor only rescales lam;
    weights are unchanged.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    lam, u, _ = prior._factor
    return GaussianMixture._from_factor(
        prior.weights, t * prior.means, (t * t) * lam + (1.0 - t) ** 2, u
    )


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
    # In Sigma's factor, z = x U (U None: the bits of U = I), the path covariance is
    # diag(s), the slope diag(t lam / s) (so 1 - t slope = (1-t)^2 / s) and the
    # k-free sum(z^2 / s) drops out.  The logits are component-major, (K, n), and
    # one max-shift per point (column).  In place, because a fresh batch-sized
    # temporary can cost page faults when the allocator has handed the heap top
    # back between calls.
    lam, u, means_u = prior._factor
    z = x.reshape(-1, prior.dim).copy() if u is None else x.reshape(-1, prior.dim) @ u
    s = (t * t) * lam + (1.0 - t) ** 2
    c = means_u * (t / s)
    resp = c @ z.T
    resp += (prior.log_weights - (0.5 * t) * np.sum(means_u * c, axis=-1))[:, None]
    _normalized(resp, axis=0)
    z *= t * lam / s
    z += resp.T @ (means_u * ((1.0 - t) ** 2 / s))
    return (z if u is None else z @ u.T).reshape(x.shape)

