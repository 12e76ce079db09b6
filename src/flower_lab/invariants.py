"""Self-contained invariant suite for the CLI.

Each check compares an implementation path against an oracle computed
inline from first principles (dense linear algebra, literal formulas,
Monte Carlo moments).  The oracles intentionally do not call the functions
under test, so a corrupted schedule or solver shows up as a failed check
rather than a consistent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flower
from .flow import AnalyticGmmField, MinibatchOTCoupling, pairing_cost
from .gmm import (
    GaussianMixture, LinearGaussianObservation, conditional_mean_x1, marginal_at_time
)
from .operators import (
    Circulant1DOperator,
    DenseOperator,
    MaskOperator,
    RowVectorOperator,
    ScaledIdentityOperator,
    solve_spd,
)

__all__ = ["InvariantResult", "run_all"]


@dataclass(frozen=True)
class InvariantResult:
    name: str
    value: float  # measured quantity (error, max z-score, ...)
    bound: float  # the value must not exceed this
    passed: bool


def _result(name, value, bound):
    return InvariantResult(name, float(value), float(bound), bool(value <= bound))


def _reference_prior():
    return GaussianMixture(
        [1 / 3, 1 / 3, 1 / 3],
        [[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25]],
        0.0625,
    )


def _reference_obs():
    return LinearGaussianObservation(RowVectorOperator([1.5, 1.5]), 0.25, [1.0])


def _operator_zoo(rng, d=6):
    return [
        DenseOperator(rng.standard_normal((4, d))),
        RowVectorOperator(rng.standard_normal(d)),
        MaskOperator([0, 2, d - 1], d),
        Circulant1DOperator(rng.standard_normal(d)),
        ScaledIdentityOperator(1.3, d),
    ]


def check_adjoint_pairing(rng):
    worst = 0.0
    for op in _operator_zoo(rng):
        for _ in range(20):
            x = rng.standard_normal(op.in_dim)
            u = rng.standard_normal(op.out_dim)
            lhs = float(op.apply(x) @ u)
            rhs = float(x @ op.apply_adjoint(u))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return _result("operator adjoint pairing", worst, 1e-10)


def check_spd_solve(rng):
    a = rng.standard_normal((12, 12))
    spd = a @ a.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    oracle = np.linalg.solve(spd, b)
    x = solve_spd(lambda v: spd @ v, b)
    err = np.linalg.norm(x - oracle) / np.linalg.norm(oracle)
    return _result("SPD solve vs dense oracle", err, 1e-8)


def check_circulant_dense(rng):
    worst = 0.0
    for d in (5, 16, 32):
        op = Circulant1DOperator(rng.standard_normal(d))
        dense = op.dense_matrix()
        x = rng.standard_normal(d)
        worst = max(worst, float(np.max(np.abs(op.apply(x) - dense @ x))))
    return _result("circulant apply vs dense matrix", worst, 1e-12)


def check_nu_schedule():
    ts = np.linspace(0.0, 1.0, 201)
    vals = np.array([flower.nu(t) for t in ts])
    worst = max(
        abs(vals[0] - 1.0),
        abs(vals[-1]),
        float(np.max(np.diff(vals))),  # must be strictly decreasing
    )
    return _result("uncertainty schedule endpoints/monotonicity", worst, 1e-12)


def _inline_conditional_mean(prior, xs, t):
    """E[X1 | Xt = xs] from the path marginal's densities and a dense solve (oracle path)."""
    r = np.exp(marginal_at_time(prior, t).component_log_densities(xs))
    mean = (r / r.sum(axis=-1, keepdims=True)) @ prior.means
    path_cov = t * t * prior.covariance + (1.0 - t) ** 2 * np.eye(prior.dim)
    # sum_k r_k (mu_k + t Sigma S^-1 (x - t mu_k)); Sigma and S are symmetric
    return mean + t * (xs - t * mean) @ np.linalg.solve(path_cov, prior.covariance)


def check_destination_identity():
    prior = _reference_prior()
    field = AnalyticGmmField(prior)
    grid = np.linspace(-1, 1, 9)
    xs = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
    worst = 0.0
    for t in (0.1, 0.5, 0.9):
        gap = flower.destination_estimate(field, xs, t) - _inline_conditional_mean(prior, xs, t)
        worst = max(worst, float(np.max(np.abs(gap))))
    return _result("destination estimate equals conditional mean", worst, 1e-10)


def check_conditional_mean_quadrature():
    prior = _reference_prior()
    t = 0.5
    nodes, wts = np.polynomial.legendre.leggauss(220)
    nodes, wts = nodes * 3.0, wts * 3.0
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], -1)
    qw = np.outer(wts, wts).ravel()
    # inline mixture density
    prior_vals = np.zeros(len(pts))
    for mu in prior.means:
        diff = pts - mu
        prior_vals += np.exp(-np.sum(diff * diff, -1) / (2 * 0.0625)) / (
            3 * 2 * np.pi * 0.0625
        )
    worst = 0.0
    for x in ([-0.4, 0.2], [0.0, 0.0], [0.5, -0.3]):
        x = np.asarray(x)
        diff = x - t * pts
        kern = np.exp(-0.5 * np.sum(diff * diff, -1) / (1 - t) ** 2) / (
            2 * np.pi * (1 - t) ** 2
        )
        f = qw * prior_vals * kern
        oracle = (f @ pts) / f.sum()
        got = conditional_mean_x1(prior, x, t)
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    return _result("conditional mean vs grid quadrature", worst, 1e-6)


def _inline_sigma_t(obs, t):
    """Dense Sigma_t from the literal schedule formula (oracle path)."""
    nu_lit = (1.0 - t) / np.sqrt(t * t + (1.0 - t) ** 2)
    h = obs.operator.dense_matrix()
    precision = np.eye(obs.operator.in_dim) / nu_lit**2 + (
        h.T @ h
    ) / obs.noise_std**2
    return np.linalg.inv(precision)


def _inline_mu_t(obs, xhat, t):
    nu_lit = (1.0 - t) / np.sqrt(t * t + (1.0 - t) ** 2)
    h = obs.operator.dense_matrix()
    rhs = xhat / nu_lit**2 + h.T @ obs.observation / obs.noise_std**2
    return _inline_sigma_t(obs, t) @ rhs


def _moment_zscores(draws, mean_oracle, cov_oracle):
    n = draws.shape[0]
    mean_se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    z_mean = np.max(np.abs(draws.mean(axis=0) - mean_oracle) / mean_se)
    centered = draws - draws.mean(axis=0)
    prods = centered[:, :, None] * centered[:, None, :]
    cov_se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    emp = prods.sum(axis=0) / (n - 1)
    z_cov = np.max(np.abs(emp - cov_oracle) / cov_se)
    return max(float(z_mean), float(z_cov))


def check_refinement_moments(rng, n=100_000):
    """Refined destination has mean mu_t, covariance Sigma_t (gamma = 1)."""
    obs = _reference_obs()
    t = 0.5
    xhat = np.array([0.3, 0.1])
    draws = flower.refine(np.broadcast_to(xhat, (n, 2)), obs, t, 1, rng)
    z = _moment_zscores(draws, _inline_mu_t(obs, xhat, t), _inline_sigma_t(obs, t))
    return _result("refinement moments (mean mu_t, cov Sigma_t)", z, 3.0)


def check_progressed_moments(rng, n=100_000):
    """Steps 2+3 composed: N((t+dt) mu_t, (t+dt)^2 Sigma_t + (1-t-dt)^2 I)."""
    obs = _reference_obs()
    t, dt = 0.5, 0.125
    xhat = np.array([0.3, 0.1])
    tilde = flower.refine(np.broadcast_to(xhat, (n, 2)), obs, t, 1, rng)
    nxt = flower.time_progress(tilde, t, dt, rng)
    s = t + dt
    mean_oracle = s * _inline_mu_t(obs, xhat, t)
    cov_oracle = s * s * _inline_sigma_t(obs, t) + (1 - s) ** 2 * np.eye(2)
    z = _moment_zscores(nxt, mean_oracle, cov_oracle)
    return _result("progressed-state moments", z, 3.0)


def check_kappa_law(rng, n=100_000):
    obs = _reference_obs()
    t = 0.4
    draws = flower.sample_kappa(obs, t, rng, size=n)
    z = _moment_zscores(draws, np.zeros(2), _inline_sigma_t(obs, t))
    return _result("kappa distribution N(0, Sigma_t)", z, 3.0)


def check_prox_gradient(rng):
    worst = 0.0
    for op in _operator_zoo(rng):
        y = rng.standard_normal(op.out_dim)
        obs = LinearGaussianObservation(op, 0.4, y)
        xhat = rng.standard_normal(op.in_dim)
        for t in (0.0, 0.5, 0.9):
            mu = flower.refine_mean(xhat, obs, t)
            nu_lit = (1.0 - t) / np.sqrt(t * t + (1.0 - t) ** 2)
            grad = (nu_lit**2 / 0.4**2) * op.apply_adjoint(op.apply(mu) - y) + (
                mu - xhat
            )
            scale = 1 + np.linalg.norm(xhat) + np.linalg.norm(y)
            worst = max(worst, float(np.linalg.norm(grad) / scale))
    return _result("prox stationarity gradient", worst, 1e-8)


def check_ot_coupling(rng):
    from itertools import permutations

    worst = 0.0
    x0 = rng.standard_normal((6, 2))
    x1 = rng.standard_normal((6, 2))
    _, paired = MinibatchOTCoupling().pair(x0, x1)
    got = pairing_cost(x0, paired)
    best = min(
        pairing_cost(x0, x1[list(p)]) for p in permutations(range(6))
    )
    worst = max(worst, got - best)
    xa = rng.standard_normal((256, 2))
    xb = rng.standard_normal((256, 2))
    _, paired = MinibatchOTCoupling().pair(xa, xb)
    worst = max(worst, pairing_cost(xa, paired) - pairing_cost(xa, xb))
    return _result("mini-batch OT pairing optimality", worst, 1e-9)


def check_terminal_step(rng):
    x = rng.standard_normal(2)
    out = flower.time_progress(x, 0.75, 0.25, rng)
    return _result("terminal progression is exact", float(np.max(np.abs(out - x))), 0.0)


def run_all(seed: int = 0) -> list[InvariantResult]:
    """Execute every invariant check with a deterministic seed."""
    rng = np.random.default_rng(seed)
    return [
        check_adjoint_pairing(rng),
        check_spd_solve(rng),
        check_circulant_dense(rng),
        check_nu_schedule(),
        check_destination_identity(),
        check_conditional_mean_quadrature(),
        check_refinement_moments(rng),
        check_progressed_moments(rng),
        check_kappa_law(rng),
        check_prox_gradient(rng),
        check_ot_coupling(rng),
        check_terminal_step(rng),
    ]
