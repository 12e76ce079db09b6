"""Acceptance suite: every headline criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The full-scale trainer (A8) runs once as a session fixture and
its field is reused by A9; everything else is self-contained and seeded.
"""

import time
from itertools import permutations

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from flower_lab.flow import (
    AnalyticGmmField,
    IndependentCoupling,
    MinibatchOTCoupling,
    euler_sample,
    pairing_cost,
    standard_normal_sampler,
    train_cfm,
    TrainConfig,
)
from flower_lab.flower import (
    FlowerConfig,
    destination_estimate,
    nu,
    refine_mean,
    run_batch,
    sample_kappa,
    time_progress,
)
from flower_lab.gmm import (
    GaussianMixture,
    LinearGaussianObservation,
    conditional_mean_x1,
    posterior_linear_gaussian,
)
from flower_lab.metrics import sliced_w2
from flower_lab.mlp import Mlp
from flower_lab.operators import (
    Circulant1DOperator,
    DenseOperator,
    MaskOperator,
    ScaledIdentityOperator,
    solve_spd,
)

from conftest import TOY_COV, TOY_MEANS, TOY_WEIGHTS
from oracles import (
    assignment_by_scipy,
    cfm_loss,
    conditional_mean_by_quadrature,
    covariance_standard_errors,
    mean_standard_errors,
)


def report(tag: str, detail: str, value, bound, passed: bool) -> bool:
    verdict = "PASS" if passed else "FAIL"
    print(f"{tag} ({detail}): measured={value:.6g} bound={bound:.6g} -> {verdict}")
    return passed


def posterior_floor(post, n, seed):
    rng = np.random.default_rng(seed)
    return sliced_w2(
        post.sample(rng, n), post.sample(rng, n), rng=np.random.default_rng(seed + 1)
    )


@pytest.fixture(scope="module")
def toy1(toy_prior, toy1_obs):
    field = AnalyticGmmField(toy_prior)
    post = posterior_linear_gaussian(toy_prior, toy1_obs)
    return toy_prior, toy1_obs, field, post


@pytest.fixture(scope="module")
def toy1_samples(toy1):
    """5000 solver samples on the first reference problem, both gamma values."""
    prior, obs, field, post = toy1
    out = {}
    for gamma in (0, 1):
        cfg = FlowerConfig(n_steps=1000, gamma=gamma, noise_std=0.25, seed=42 + gamma)
        start = time.perf_counter()
        out[gamma] = run_batch(field, obs, cfg, 5000)
        out[f"time_{gamma}"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def trained_field(toy_prior):
    """The full-scale trained network (batch 2048, 20000 steps, lr 1e-3)."""
    cfg = TrainConfig(batch_size=2048, steps=20000, learning_rate=1e-3, seed=7)
    start = time.perf_counter()
    field, losses = train_cfm(
        toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg
    )
    elapsed = time.perf_counter() - start
    return field, losses, elapsed


class TestA1PosteriorFidelityToy1:
    def test_a1(self, toy1, toy1_samples):
        _, _, _, post = toy1
        rng = np.random.default_rng(777)
        exact = post.sample(rng, 5000)
        dist = sliced_w2(toy1_samples[1], exact, rng=np.random.default_rng(70))
        floor = posterior_floor(post, 5000, seed=71)
        ok = dist <= 3 * floor and toy1_samples["time_1"] <= 120.0
        assert report("A1", "posterior fidelity, first reference problem", dist, 3 * floor, ok)
        print(f"    noise floor {floor:.6g}; solver time {toy1_samples['time_1']:.1f}s")


class TestA2PosteriorFidelityToy2:
    def test_a2(self, toy_prior, toy2_obs):
        field = AnalyticGmmField(toy_prior)
        post = posterior_linear_gaussian(toy_prior, toy2_obs)
        cfg = FlowerConfig(n_steps=1000, gamma=1, noise_std=0.75, seed=52)
        start = time.perf_counter()
        samples = run_batch(field, toy2_obs, cfg, 5000)
        elapsed = time.perf_counter() - start
        exact = post.sample(np.random.default_rng(778), 5000)
        dist = sliced_w2(samples, exact, rng=np.random.default_rng(72))
        floor = posterior_floor(post, 5000, seed=73)
        ok = dist <= 3 * floor and elapsed <= 120.0
        assert report("A2", "posterior fidelity, second reference problem", dist, 3 * floor, ok)


class TestA3TailShrinkage:
    def test_a3(self, toy1_samples):
        g0, g1 = toy1_samples[0], toy1_samples[1]
        rng = np.random.default_rng(30)
        boots = []
        for _ in range(500):
            i0 = rng.integers(0, len(g0), len(g0))
            i1 = rng.integers(0, len(g1), len(g1))
            boots.append(
                np.linalg.det(np.cov(g0[i0].T)) - np.linalg.det(np.cov(g1[i1].T))
            )
        upper95 = float(np.quantile(boots, 0.95))
        ok = upper95 < 0.0
        assert report(
            "A3", "gamma=0 covariance determinant strictly smaller", upper95, 0.0, ok
        )


class TestA4DestinationIdentity:
    def test_a4_identity(self, toy1):
        prior, _, field, _ = toy1
        axis = np.linspace(-1, 1, 21)
        xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        worst = 0.0
        for t in (0.1, 0.5, 0.9):
            est = destination_estimate(field, xs, t)
            cm = conditional_mean_x1(prior, xs, t)
            worst = max(worst, float(np.max(np.linalg.norm(est - cm, axis=1))))
        assert report("A4a", "flow identity x + (1-t)v = E[X1|Xt]", worst, 1e-10, worst <= 1e-10)

    def test_a4_quadrature(self, toy1):
        prior, _, _, _ = toy1
        axis = np.linspace(-1, 1, 21)
        xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        worst = 0.0
        for t in (0.1, 0.5, 0.9):
            got = conditional_mean_x1(prior, xs, t)
            for i in range(0, len(xs), 49):  # every 49th grid point keeps this fast
                oracle = conditional_mean_by_quadrature(
                    TOY_WEIGHTS, TOY_MEANS, TOY_COV, xs[i], t
                )
                worst = max(worst, float(np.max(np.abs(got[i] - oracle))))
        assert report("A4b", "conditional mean vs 2-D quadrature", worst, 1e-6, worst <= 1e-6)


class TestA5RefinementMoments:
    def test_a5(self, toy1_obs):
        start = time.perf_counter()
        t, xhat, n = 0.5, np.array([0.3, 0.1]), 100_000
        mu = refine_mean(xhat, toy1_obs, t)
        draws = mu + sample_kappa(toy1_obs, t, np.random.default_rng(50), size=n)
        h = toy1_obs.operator.dense_matrix()
        sigma = np.linalg.inv(np.eye(2) / nu(t) ** 2 + h.T @ h / 0.25**2)
        z_mean = np.max(np.abs(draws.mean(0) - mu) / mean_standard_errors(draws))
        z_cov = np.max(
            np.abs(np.cov(draws.T, ddof=1) - sigma) / covariance_standard_errors(draws)
        )
        elapsed = time.perf_counter() - start
        z = max(float(z_mean), float(z_cov))
        ok = z <= 3.0 and elapsed <= 30.0
        assert report("A5", "refinement moments (mean/covariance)", z, 3.0, ok)
        print(f"    elapsed {elapsed:.1f}s (budget 30s)")


class TestA6ProgressedMoments:
    def test_a6(self, toy1_obs):
        t, dt, xhat, n = 0.5, 0.125, np.array([0.3, 0.1]), 100_000
        rng = np.random.default_rng(60)
        mu = refine_mean(xhat, toy1_obs, t)
        nxt = time_progress(mu + sample_kappa(toy1_obs, t, rng, size=n), t, dt, rng)
        h = toy1_obs.operator.dense_matrix()
        sigma = np.linalg.inv(np.eye(2) / nu(t) ** 2 + h.T @ h / 0.25**2)
        s = t + dt
        mean_oracle = s * mu
        cov_oracle = s * s * sigma + (1 - s) ** 2 * np.eye(2)
        z_mean = np.max(np.abs(nxt.mean(0) - mean_oracle) / mean_standard_errors(nxt))
        z_cov = np.max(
            np.abs(np.cov(nxt.T, ddof=1) - cov_oracle) / covariance_standard_errors(nxt)
        )
        z = max(float(z_mean), float(z_cov))
        assert report("A6", "progressed-state moments", z, 3.0, z <= 3.0)


class TestA7KappaLaw:
    def test_a7(self, toy1_obs):
        t, n = 0.4, 100_000
        draws = sample_kappa(toy1_obs, t, np.random.default_rng(70), size=n)
        h = toy1_obs.operator.dense_matrix()
        sigma = np.linalg.inv(np.eye(2) / nu(t) ** 2 + h.T @ h / 0.25**2)
        z = np.max(
            np.abs(np.cov(draws.T, ddof=1) - sigma) / covariance_standard_errors(draws)
        )
        assert report("A7", "kappa covariance matches Sigma_t", float(z), 3.0, z <= 3.0)


class TestA8Training:
    def test_a8_gradient_check(self):
        rng = np.random.default_rng(80)
        mlp = Mlp.initialize([3, 8, 8, 2], rng, dtype=np.float64)
        x0 = rng.standard_normal((16, 2))
        x1 = rng.standard_normal((16, 2))
        ts = rng.random(16)
        _, grads = cfm_loss(mlp, x0, x1, ts)
        h = 1e-5
        fd, an = [], []
        for p, g in zip(mlp.layers, grads):  # each block [W; b], bias row included
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up, _ = cfm_loss(mlp, x0, x1, ts)
                p[idx] = orig - h
                down, _ = cfm_loss(mlp, x0, x1, ts)
                p[idx] = orig
                fd.append((up - down) / (2 * h))
                an.append(g[idx])
        rel = float(np.linalg.norm(np.array(an) - np.array(fd)) / np.linalg.norm(fd))
        assert report("A8a", "gradient vs finite differences", rel, 1e-4, rel <= 1e-4)

    @pytest.mark.slow
    def test_a8_trained_sampler(self, toy_prior, trained_field):
        field, losses, elapsed = trained_field
        smooth = np.convolve(losses, np.ones(100) / 100, mode="valid")
        trend_ok = smooth[-1] < smooth[0]
        rng = np.random.default_rng(81)
        n = 10_000
        flowed = euler_sample(field, rng.standard_normal((n, 2)), 1000)
        ref = toy_prior.sample(rng, n)
        floor = sliced_w2(
            toy_prior.sample(rng, n), toy_prior.sample(rng, n),
            rng=np.random.default_rng(82),
        )
        dist = sliced_w2(flowed, ref, rng=np.random.default_rng(82))
        ok = dist <= 5 * floor and elapsed <= 600.0 and trend_ok
        assert report("A8b", "trained sampler vs exact prior", dist, 5 * floor, ok)
        print(f"    training time {elapsed/60:.1f} min (budget 10); loss trend ok={trend_ok}")

    @pytest.mark.slow
    def test_a8_trained_denoiser(self, toy_prior, trained_field):
        field, _, _ = trained_field
        axis = np.linspace(-1.2, 1.2, 21)
        xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        denoised = xs + 0.5 * field.eval(xs, 0.5)
        oracle = conditional_mean_x1(toy_prior, xs, 0.5)
        err = float(np.mean(np.linalg.norm(denoised - oracle, axis=1)))
        assert report("A8c", "trained denoiser vs conditional mean", err, 0.05, err <= 0.05)


class TestA9TrainedFieldFlower:
    @pytest.mark.slow
    def test_a9(self, toy1, trained_field):
        _, obs, _, post = toy1
        field, _, _ = trained_field
        cfg = FlowerConfig(n_steps=1000, gamma=1, noise_std=0.25, seed=90)
        samples = run_batch(field, obs, cfg, 5000)
        exact = post.sample(np.random.default_rng(779), 5000)
        dist = sliced_w2(samples, exact, rng=np.random.default_rng(91))
        floor = posterior_floor(post, 5000, seed=92)
        assert report(
            "A9", "trained-field posterior sampling", dist, 8 * floor, dist <= 8 * floor
        )


class TestA10ProxCorrectness:
    def test_a10_gradient(self):
        rng = np.random.default_rng(100)
        d = 8
        ops = [
            DenseOperator(rng.standard_normal((5, d))),
            DenseOperator([rng.standard_normal(d)]),
            MaskOperator([0, 3, 7], d),
            Circulant1DOperator(rng.standard_normal(d)),
            ScaledIdentityOperator(1.2, d),
        ]
        worst = 0.0
        for op in ops:
            y = rng.standard_normal(op.out_dim)
            obs = LinearGaussianObservation(op, 0.5, y)
            xhat = rng.standard_normal(d)
            for t in (0.0, 0.4, 0.9):
                mu = refine_mean(xhat, obs, t)
                grad = (nu(t) ** 2 / 0.5**2) * op.apply_adjoint(op.apply(mu) - y) + (
                    mu - xhat
                )
                scale = 1 + np.linalg.norm(xhat) + np.linalg.norm(y)
                worst = max(worst, float(np.linalg.norm(grad)) / scale)
        assert report("A10a", "prox stationarity, all variants", worst, 1e-8, worst <= 1e-8)

    def test_a10_cg_vs_cholesky(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for d in (4, 16, 32):
            a = rng.standard_normal((d, d))
            spd = a @ a.T + d * np.eye(d)
            b = rng.standard_normal(d)
            via_cg = solve_spd(lambda v: spd @ v, b, rel_tolerance=1e-12)
            via_chol = cho_solve(cho_factor(spd), b)
            worst = max(
                worst,
                float(np.linalg.norm(via_cg - via_chol) / np.linalg.norm(via_chol)),
            )
        assert report("A10b", "CG matches dense Cholesky", worst, 1e-8, worst <= 1e-8)


class TestA11CouplingOptimality:
    def test_a11_exact_small(self):
        rng = np.random.default_rng(110)
        worst = 0.0
        for n in (2, 4, 6, 8):
            x0 = rng.standard_normal((n, 2))
            x1 = rng.standard_normal((n, 2))
            _, paired = MinibatchOTCoupling().pair(x0, x1)
            got = pairing_cost(x0, paired)
            best = min(pairing_cost(x0, x1[list(p)]) for p in permutations(range(n)))
            worst = max(worst, abs(got - best))
        assert report("A11a", "OT equals brute-force minimum (n<=8)", worst, 1e-10, worst <= 1e-10)

    def test_a11_large_batch_property(self):
        rng = np.random.default_rng(111)
        x0 = rng.standard_normal((2048, 2))
        x1 = rng.standard_normal((2048, 2))
        _, paired = MinibatchOTCoupling().pair(x0, x1)
        margin = pairing_cost(x0, paired) - pairing_cost(x0, x1)
        assert report(
            "A11b", "OT cost <= independent cost (n=2048)", margin, 0.0, margin <= 0.0
        )
        # the warm-started solve returns the permutation of one cold scipy call
        np.testing.assert_array_equal(paired, x1[assignment_by_scipy(x0, x1)])


class TestA12DataConsistency:
    def test_a12(self):
        d = 16
        means = 0.5 * np.cos(np.arange(d) * 2 * np.pi / d)
        prior = GaussianMixture([0.5, 0.5], [means, -means], 0.04)
        op = MaskOperator(range(0, d, 2), d)
        rng = np.random.default_rng(120)
        x_true = means + 0.2 * rng.standard_normal(d)
        y = op.apply(x_true) + 1e-3 * rng.standard_normal(8)
        obs = LinearGaussianObservation(op, 1e-3, y)
        field = AnalyticGmmField(prior)
        cfg = FlowerConfig(n_steps=1000, gamma=0, noise_std=1e-3, seed=121)
        xs = run_batch(field, obs, cfg, 8)
        resid = float(np.max(np.abs(op.apply(xs) - y)))
        assert report("A12", "inpainting data consistency", resid, 5e-3, resid <= 5e-3)
