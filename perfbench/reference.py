"""An exact reference for the benchmark's checks, computed apart from the program.

Everything here is dense numpy on the problem as the config file states it:
the config is parsed with configparser and ast, the forward operator is
materialised from its definition, and the closed-form posterior of a
shared-covariance Gaussian mixture under a linear-Gaussian measurement is
computed with plain matrix inverses.  Nothing is imported from flower_lab,
so a fault in its gmm or metrics layers cannot hide itself here.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A1's bound: sliced-W2(flower, exact) within 3x the exact-vs-exact noise floor
W2_FLOOR_FACTOR = 3.0
# The sample mean's largest per-coordinate z-score against the exact posterior
# mean.  For an exact sampler max|z| over d <= 128 coordinates exceeds 5 with
# probability below 1e-4.
MEAN_MAX_Z = 5.0
# A12: data consistency of near-noiseless inpainting
INPAINT_RESIDUAL_LINF = 5e-3
# Below this many steps, two tenths of a loss curve are a few losses on
# different minibatches, and their order says nothing about convergence.
MIN_TREND_STEPS = 20
N_PROJECTIONS = 256


@dataclass(frozen=True)
class Problem:
    """A config's prior, forward matrix and measurement, as plain arrays."""

    weights: np.ndarray
    means: np.ndarray
    covariance: np.ndarray
    h: np.ndarray
    noise_std: float
    y: np.ndarray
    operator: str
    n_samples: int
    gamma: int


def read_problem(path: Path) -> Problem:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(Path(path).read_text())

    def lit(section, key, default=None):
        if key not in parser[section]:
            return default
        return ast.literal_eval(parser[section][key])

    weights = np.asarray(lit("prior", "weights"), dtype=float)
    means = np.atleast_2d(np.asarray(lit("prior", "means"), dtype=float))
    d = means.shape[1]
    cov = np.asarray(lit("prior", "covariance"), dtype=float)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(d)
    operator = parser["observation"]["operator"].strip()
    return Problem(
        weights=weights,
        means=means,
        covariance=cov,
        h=forward_matrix(operator, lambda k: lit("observation", k), d),
        noise_std=float(lit("observation", "noise_std")),
        y=np.asarray(lit("observation", "y"), dtype=float),
        operator=operator,
        n_samples=int(lit("solver", "n_samples", 1000)),
        gamma=int(lit("solver", "gamma")),
    )


def forward_matrix(operator: str, value, d: int) -> np.ndarray:
    """The (m, d) matrix of the named operator, built from its definition."""
    if operator == "row_vector":
        return np.asarray(value("h"), dtype=float)[None, :]
    if operator == "dense":
        return np.asarray(value("matrix"), dtype=float)
    if operator == "mask":
        kept = sorted(set(int(k) for k in value("kept")))
        h = np.zeros((len(kept), d))
        h[np.arange(len(kept)), kept] = 1.0
        return h
    if operator == "circulant1d":
        # periodic convolution: (Hx)_i = sum_j kernel[(i - j) mod d] x_j
        kernel = np.asarray(value("kernel"), dtype=float)
        idx = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
        return kernel[idx]
    if operator == "scaled_identity":
        return float(value("scale")) * np.eye(d)
    raise ValueError(f"unknown operator {operator!r}")


@dataclass(frozen=True)
class Posterior:
    weights: np.ndarray
    means: np.ndarray
    covariance: np.ndarray

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def marginal_std(self) -> np.ndarray:
        spread = self.means - self.mean()
        var = np.diag(self.covariance) + self.weights @ (spread * spread)
        return np.sqrt(var)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comp = rng.choice(self.weights.shape[0], size=n, p=self.weights)
        chol = np.linalg.cholesky(self.covariance)
        return self.means[comp] + rng.standard_normal((n, self.means.shape[1])) @ chol.T


def posterior(p: Problem) -> Posterior:
    """Closed-form posterior: again a mixture with one shared covariance."""
    s2 = p.noise_std**2
    prior_precision = np.linalg.inv(p.covariance)
    cov = np.linalg.inv(prior_precision + p.h.T @ p.h / s2)
    cov = 0.5 * (cov + cov.T)
    means = (p.h.T @ p.y / s2 + p.means @ prior_precision) @ cov
    # component evidence N(y; H mu_k, H Sigma H^T + s^2 I); shared terms cancel
    evidence_cov = p.h @ p.covariance @ p.h.T + s2 * np.eye(p.h.shape[0])
    resid = p.y - p.means @ p.h.T
    maha = np.einsum("km,km->k", resid, np.linalg.solve(evidence_cov, resid.T).T)
    with np.errstate(divide="ignore"):
        log_w = np.log(p.weights) - 0.5 * maha
    w = np.exp(log_w - log_w.max())
    return Posterior(w / w.sum(), means, cov)


def sliced_w2(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> float:
    """Root-mean-square 1-D W2 over N_PROJECTIONS random unit directions."""
    dirs = rng.standard_normal((N_PROJECTIONS, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(a @ dirs.T, axis=0)
    pb = np.sort(b @ dirs.T, axis=0)
    return float(np.sqrt(np.mean((pa - pb) ** 2)))


def read_samples(path: Path) -> np.ndarray:
    """flower_samples.csv: two comment lines, a header, then run_id,dim_0..."""
    rows = [
        line.split(",")[1:]
        for line in Path(path).read_text().splitlines()[3:]
        if line
    ]
    return np.asarray(rows, dtype=float)


def check_solve(p: Problem, samples: np.ndarray, seed_key) -> tuple[dict, list[str]]:
    """Check a solve's samples against the exact posterior.

    Returns the measured figures and a list of failure messages (empty when
    every check holds).
    """
    failures = []
    n, d = p.n_samples, p.means.shape[1]
    if samples.shape != (n, d):
        return {}, [f"samples have shape {samples.shape}, expected {(n, d)}"]
    if not np.all(np.isfinite(samples)):
        return {}, ["non-finite samples"]
    post = posterior(p)
    rng = np.random.default_rng(seed_key)
    exact = post.sample(rng, n)
    exact_prime = post.sample(rng, n)
    proj_seed = rng.integers(2**63)
    dist = sliced_w2(samples, exact, np.random.default_rng(proj_seed))
    floor = sliced_w2(exact_prime, exact, np.random.default_rng(proj_seed))
    z = (samples.mean(axis=0) - post.mean()) / (post.marginal_std() / np.sqrt(n))
    figures = {"w2_ratio": dist / floor, "mean_max_z": float(np.max(np.abs(z)))}
    if not dist <= W2_FLOOR_FACTOR * floor:
        failures.append(
            f"sliced-W2 {dist:.4g} exceeds {W2_FLOOR_FACTOR} x noise floor {floor:.4g}"
        )
    if not figures["mean_max_z"] <= MEAN_MAX_Z:
        failures.append(
            f"sample mean is {figures['mean_max_z']:.3g} standard errors "
            f"from the exact posterior mean (limit {MEAN_MAX_Z})"
        )
    if p.operator == "mask":
        resid = float(np.max(np.abs(samples @ p.h.T - p.y)))
        figures["residual_linf"] = resid
        if not resid <= INPAINT_RESIDUAL_LINF:
            failures.append(
                f"data residual {resid:.3g} exceeds {INPAINT_RESIDUAL_LINF}"
            )
    return figures, failures


def check_losses(path: Path, steps: int) -> list[str]:
    """Every loss finite; over MIN_TREND_STEPS or more steps, the last tenth
    of steps ends below the first tenth."""
    lines = Path(path).read_text().splitlines()[3:]
    losses = np.asarray([line.split(",")[1] for line in lines if line], dtype=float)
    if losses.shape != (steps,):
        return [f"loss.csv has {losses.shape[0]} steps, expected {steps}"]
    if not np.all(np.isfinite(losses)):
        return ["non-finite loss"]
    if steps < MIN_TREND_STEPS:
        return []
    tenth = max(1, steps // 10)
    first, last = losses[:tenth].mean(), losses[-tenth:].mean()
    if not last < first:
        return [f"mean loss over the last tenth {last:.4g} is not below the first {first:.4g}"]
    return []
