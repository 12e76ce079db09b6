"""Distribution- and point-level evaluation of sample sets.

The headline distance is sliced Wasserstein-2 with paired sample counts:
cheap enough for 10^4+ samples, and checked in the tests against the exact
assignment-based W2 at small n.  Acceptance tolerances elsewhere in the
repo are expressed relative to a self-distance noise floor (the sliced-W2
between two independent draws of the reference distribution), never as
absolute numbers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sliced_w2",
    "empirical_moments",
    "covariance_logdet",
]


def _as_samples(s) -> np.ndarray:
    return np.atleast_2d(np.asarray(s, float))


def sliced_w2(a, b, n_projections: int = 128, rng=None) -> float:
    """Root-mean of squared 1-D W2 over random unit directions.

    Directions come from the caller's generator, so a fixed seed pins the
    value exactly.
    """
    a, b = _as_samples(a), _as_samples(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"sample counts differ: {a.shape[0]} vs {b.shape[0]}")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    dirs = rng.standard_normal((n_projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj_a = np.sort(a @ dirs.T, axis=0)
    proj_b = np.sort(b @ dirs.T, axis=0)
    return float(np.sqrt(np.mean((proj_a - proj_b) ** 2)))


def empirical_moments(s):
    """Sample mean and unbiased covariance of an (n, d) sample set."""
    x = _as_samples(s)
    if x.shape[0] < 2:
        raise ValueError("covariance needs at least two samples")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    return mean, cov


def covariance_logdet(s) -> float | None:
    """log det of the sample covariance by slogdet; None when it is singular.

    The plain determinant underflows to 0 in a few hundred dimensions, long
    before the covariance degenerates.  With n <= d samples the covariance
    has rank at most n - 1 < d, so it is singular whatever sign rounding
    gives its slogdet.
    """
    x = _as_samples(s)
    sign, logdet = np.linalg.slogdet(empirical_moments(x)[1])
    if x.shape[0] <= x.shape[1] or sign <= 0:
        return None
    return float(logdet)

