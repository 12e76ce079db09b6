"""The three-step solver: schedule, refinement, noise law and full runs."""

import configparser

import numpy as np
import pytest

from flower_lab import flower
from flower_lab.cli import main
from flower_lab.flow import AnalyticGmmField
from flower_lab.flower import (
    FlowerConfig,
    FlowerRunError,
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
from flower_lab.operators import (
    Circulant1DOperator,
    DenseOperator,
    LinearOperator,
    MaskOperator,
    ScaledIdentityOperator,
    solve_spd,
)

from conftest import MINI_TOY, blur_kernel
from oracles import covariance_standard_errors, mean_standard_errors


def dense_precision(op, noise_std, t):
    """Oracle: nu_t^-2 I + s^-2 H^T H from the dense matrix."""
    h = op.dense_matrix()
    return np.eye(op.in_dim) / nu(t) ** 2 + (h.T @ h) / noise_std**2


def dense_sigma_t(op, noise_std, t):
    """Oracle: Sigma_t as an explicit inverse of the dense precision."""
    return np.linalg.inv(dense_precision(op, noise_std, t))


def high_dimensional_operators(d):
    """A circulant blur (near-singular H^T H) and a dense operator of rank d / 2."""
    rng = np.random.default_rng(d)
    return [
        Circulant1DOperator(blur_kernel(d)),
        DenseOperator(rng.standard_normal((d // 2, d)) / np.sqrt(d)),
    ]


class MatrixFreeOperator(LinearOperator):
    """A matrix known only by its actions: no dense_matrix, hence no gram_matrix."""

    def __init__(self, matrix):
        self._matrix = np.asarray(matrix, dtype=float)
        self.out_dim, self.in_dim = self._matrix.shape

    def _apply(self, x):
        return x @ self._matrix.T

    def _apply_adjoint(self, u):
        return u @ self._matrix


class GramCountingOperator(DenseOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.gram_calls = 0
        self.adjoint_calls = 0
        self.gram_apply_calls = 0

    def gram_matrix(self):
        self.gram_calls += 1
        return super().gram_matrix()

    def apply_adjoint(self, u):
        self.adjoint_calls += 1
        return super().apply_adjoint(u)

    def gram_apply(self, x):
        self.gram_apply_calls += 1
        return super().gram_apply(x)


class QueuedDraws:
    """Stands in for a Generator: each standard_normal call returns the next queued array."""

    def __init__(self, *arrays):
        self._arrays = list(arrays)

    def standard_normal(self, shape):
        arr = self._arrays.pop(0)
        assert arr.shape == shape
        return arr


class TestNu:
    def test_endpoints(self):
        assert nu(0.0) == 1.0
        assert nu(1.0) == 0.0

    def test_midpoint(self):
        assert nu(0.5) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert nu(0.5) == pytest.approx(0.70710678, abs=1e-8)

    def test_monotone_decreasing(self):
        ts = np.linspace(0, 1, 101)
        vals = np.array([nu(t) for t in ts])
        assert np.all(np.diff(vals) < 0)


class TestDestinationEstimate:
    def test_t1_returns_state_for_any_field(self, toy_prior):
        field = AnalyticGmmField(toy_prior)
        x = np.array([0.4, -0.9])
        np.testing.assert_array_equal(destination_estimate(field, x, 1.0), x)

    def test_zero_field_returns_state(self):
        class Zero:
            def eval(self, x, t):
                return np.zeros_like(x)

        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(destination_estimate(Zero(), x, 0.3), x)

    def test_analytic_field_gives_conditional_mean(self, toy_prior):
        field = AnalyticGmmField(toy_prior)
        rng = np.random.default_rng(2)
        for t in (0.0, 0.5, 0.95):
            x = rng.uniform(-1, 1, size=2)
            np.testing.assert_allclose(
                destination_estimate(field, x, t),
                conditional_mean_x1(toy_prior, x, t),
                rtol=1e-12,
                atol=1e-14,
            )


class TestRefineMean:
    def test_no_data_term_returns_input(self):
        obs = LinearGaussianObservation(MaskOperator(set(), 3), 0.5, [])
        xhat = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(refine_mean(xhat, obs, 0.4), xhat, rtol=1e-12)

    def test_equal_precision_averages(self):
        t = 0.3
        obs = LinearGaussianObservation(
            ScaledIdentityOperator(1.0, 2), float(nu(t)), [2.0, -4.0]
        )
        xhat = np.array([0.0, 0.0])
        np.testing.assert_allclose(
            refine_mean(xhat, obs, t), [1.0, -2.0], rtol=1e-12
        )

    def test_hard_constraint_limit(self):
        obs = LinearGaussianObservation(
            ScaledIdentityOperator(1.0, 2), 1e-8, [0.7, 0.1]
        )
        mu = refine_mean(np.array([5.0, -5.0]), obs, 0.5)
        assert np.max(np.abs(mu - np.array([0.7, 0.1]))) <= 1e-6

    def test_prox_gradient_vanishes_all_variants(self):
        """Gradient of nu^2 F_y + 0.5||. - xhat||^2 at the output is ~0."""
        rng = np.random.default_rng(5)
        d = 6
        ops = [
            DenseOperator(rng.standard_normal((4, d))),
            DenseOperator([rng.standard_normal(d)]),
            MaskOperator([0, 3, 5], d),
            Circulant1DOperator(rng.standard_normal(d)),
            ScaledIdentityOperator(0.8, d),
        ]
        for op in ops:
            y = rng.standard_normal(op.out_dim)
            obs = LinearGaussianObservation(op, 0.4, y)
            xhat = rng.standard_normal(d)
            for t in (0.0, 0.5, 0.9):
                mu = refine_mean(xhat, obs, t)
                grad = (nu(t) ** 2 / 0.4**2) * op.apply_adjoint(op.apply(mu) - y) + (
                    mu - xhat
                )
                bound = 1e-8 * (1 + np.linalg.norm(xhat) + np.linalg.norm(y))
                assert np.linalg.norm(grad) <= bound, type(op).__name__

    def test_matches_dense_linear_solve_oracle(self):
        rng = np.random.default_rng(7)
        op = DenseOperator(rng.standard_normal((3, 5)))
        obs = LinearGaussianObservation(op, 0.6, rng.standard_normal(3))
        xhat = rng.standard_normal(5)
        t = 0.45
        h = op.dense_matrix()
        precision = np.eye(5) / nu(t) ** 2 + h.T @ h / 0.6**2
        rhs = xhat / nu(t) ** 2 + h.T @ obs.observation / 0.6**2
        oracle = np.linalg.solve(precision, rhs)
        np.testing.assert_allclose(refine_mean(xhat, obs, t), oracle, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    def test_eigenbasis_scaling_is_the_broadcast_divide_bitwise(self, d):
        """The prox divides by nu^-2 + s^-2 lam exactly as a (d,) broadcast would."""
        rng = np.random.default_rng(40 + d)
        op = DenseOperator(rng.standard_normal((max(d - 1, 1), d)))
        s = 0.3
        obs = LinearGaussianObservation(op, s, rng.standard_normal(op.out_dim))
        lam, u = op.gram_eigh
        for t in (0.0, 0.5, 0.9):
            scale = 1.0 / nu(t) ** 2 + 1.0 / (s * s) * lam
            for shape in ((d,), (1, d), (257, d)):
                xhat = rng.standard_normal(shape)
                rhs = xhat / nu(t) ** 2 + obs.data_rhs
                broadcast = ((rhs @ u) / scale) @ u.T
                np.testing.assert_array_equal(refine_mean(xhat, obs, t), broadcast)

    def test_rejects_t_one(self):
        obs = LinearGaussianObservation(ScaledIdentityOperator(1.0, 2), 0.5, [0.0, 0.0])
        with pytest.raises(ValueError):
            refine_mean(np.zeros(2), obs, 1.0)

    def test_large_dimension_matches_dense_oracle(self):
        """At d = 80, single and batched solves and kappa draws go through the eigenbasis."""
        rng = np.random.default_rng(53)
        d = 80
        op = MaskOperator(range(0, d, 2), d)
        y = rng.standard_normal(op.out_dim)
        obs = LinearGaussianObservation(op, 0.3, y)
        t = 0.6
        xhat = rng.standard_normal(d)
        h = op.dense_matrix()
        precision = np.eye(d) / nu(t) ** 2 + h.T @ h / 0.3**2
        rhs = xhat / nu(t) ** 2 + h.T @ y / 0.3**2
        oracle = np.linalg.solve(precision, rhs)
        np.testing.assert_allclose(refine_mean(xhat, obs, t), oracle, rtol=1e-8)
        # a batched rhs is the same scaling in the same basis
        batch = refine_mean(np.tile(xhat, (3, 1)), obs, t)
        np.testing.assert_allclose(batch, np.tile(oracle, (3, 1)), rtol=1e-8)
        kappa = sample_kappa(obs, t, np.random.default_rng(1), size=2)
        assert kappa.shape == (2, d) and np.all(np.isfinite(kappa))


class TestSampleKappa:
    def test_no_data_term_collapses_to_isotropic(self):
        """With the zero operator, kappa ~ N(0, nu_t^2 I)."""
        obs = LinearGaussianObservation(MaskOperator(set(), 1), 0.5, [])
        t = 0.35
        draws = sample_kappa(obs, t, np.random.default_rng(11), size=100_000)
        std = draws.std(ddof=1)
        se = std / np.sqrt(2 * (100_000 - 1))
        assert abs(std - nu(t)) <= 3 * se

    def test_rank_one_covariance_matches_dense_oracle(self, toy1_obs):
        t = 0.5
        draws = sample_kappa(toy1_obs, t, np.random.default_rng(13), size=100_000)
        np.testing.assert_allclose(draws.mean(axis=0), 0, atol=4e-3)
        emp = np.cov(draws.T, ddof=1)
        oracle = dense_sigma_t(toy1_obs.operator, toy1_obs.noise_std, t)
        se = covariance_standard_errors(draws)
        assert np.all(np.abs(emp - oracle) <= 3 * se)

    def test_seed_determinism(self, toy1_obs):
        a = sample_kappa(toy1_obs, 0.4, np.random.default_rng(17))
        b = sample_kappa(toy1_obs, 0.4, np.random.default_rng(17))
        c = sample_kappa(toy1_obs, 0.4, np.random.default_rng(18))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    @pytest.mark.parametrize("size", [None, 1, 7])
    def test_draws_d_normals_per_row_in_the_prox_basis(self, size):
        """The generator ends where one that drew size * d normals ends, whatever m is.

        kappa is (xi / sqrt(sigma)) U^T for those normals xi, with U and lam
        from gram_eigh and sigma = nu_t^-2 + s^-2 lam.
        """
        rng = np.random.default_rng(59)
        d, s, t = 3, 0.3, 0.4
        operators = [
            DenseOperator(rng.standard_normal((5, d))),
            DenseOperator(rng.standard_normal((1, d))),
            MaskOperator([0, 2], d),
            Circulant1DOperator(blur_kernel(d)),
            ScaledIdentityOperator(0.5, d),
        ]
        shape = (d,) if size is None else (size, d)
        for op in operators:
            obs = LinearGaussianObservation(op, s, np.zeros(op.out_dim))
            drawn, ref = np.random.default_rng(61), np.random.default_rng(61)
            kappa = sample_kappa(obs, t, drawn, size)
            xi = ref.standard_normal(shape)
            assert drawn.bit_generator.state == ref.bit_generator.state
            lam, u = op.gram_eigh
            sigma = 1 / nu(t) ** 2 + lam / s**2
            expected = (xi / np.sqrt(sigma)) @ u.T
            np.testing.assert_allclose(kappa, expected, rtol=1e-12, atol=1e-15)

    def test_no_adjoint_gram_apply_or_prox_solve(self, monkeypatch):
        """A kappa draw uses the cached eigenbasis alone: one gram_matrix for twenty draws."""
        prox_solves = []

        def counting_prox_solve(*args):
            prox_solves.append(args)
            return prox_solve(*args)

        prox_solve = flower._prox_solve
        monkeypatch.setattr(flower, "_prox_solve", counting_prox_solve)
        rng = np.random.default_rng(63)
        op = GramCountingOperator(rng.standard_normal((40, 65)))
        obs = LinearGaussianObservation(op, 0.3, rng.standard_normal(40))
        for k in range(10):
            sample_kappa(obs, k / 10, rng, size=4)
            sample_kappa(obs, k / 10, rng)
        assert (op.gram_calls, op.adjoint_calls, op.gram_apply_calls) == (1, 0, 0)
        assert prox_solves == []


class TestProxHighDimension:
    """The prox past d = 64, against dense oracles and the CG fallback."""

    @pytest.mark.parametrize("d", [65, 128])
    def test_refine_mean_matches_dense_solve(self, d):
        rng = np.random.default_rng(1000 + d)
        s = 0.05
        for op in high_dimensional_operators(d):
            obs = LinearGaussianObservation(op, s, rng.standard_normal(op.out_dim))
            xhat = rng.standard_normal((3, d))
            data = op.dense_matrix().T @ obs.observation / s**2
            for t in (0.0, 0.5, 0.9):
                rhs = xhat / nu(t) ** 2 + data
                oracle = np.linalg.solve(dense_precision(op, s, t), rhs.T).T
                np.testing.assert_allclose(refine_mean(xhat[0], obs, t), oracle[0], rtol=1e-8)
                np.testing.assert_allclose(refine_mean(xhat, obs, t), oracle, rtol=1e-8)

    @pytest.mark.parametrize("d", [2, 16, 65, 128])
    def test_kappa_covariance_matches_inverse_precision(self, d):
        """The sample covariance of kappa is inv(precision), entry by entry once whitened.

        With precision = L L^T, the whitened draws kappa L have covariance I
        exactly when kappa's is inv(precision), and whitening weighs the
        data-dominated directions (small variance) like the rest.  kappa has
        mean 0, so entry (i, j) of the whitened W^T W / n has standard error
        sqrt((1 + [i == j]) / n); every entry must lie within 5.5 of them:
        by the union bound over the d(d+1)/2 entries, a correct sampler fails
        with probability below 3.2e-4 per operator (d = 128).  The operators
        cover a near-singular H^T H (circulant), exact zero eigenvalues (a
        mask, a one-row and a rank d / 2 dense operator) and a scaled identity.
        """
        n, t, s = 20_000, 0.5, 0.05
        rng = np.random.default_rng(3000 + d)
        operators = high_dimensional_operators(d) + [
            MaskOperator(range(0, d, 2), d),
            DenseOperator(rng.standard_normal((1, d))),
            ScaledIdentityOperator(0.7, d),
        ]
        for op in operators:
            obs = LinearGaussianObservation(op, s, np.zeros(op.out_dim))
            draws = sample_kappa(obs, t, np.random.default_rng(2000 + d), size=n)
            white = draws @ np.linalg.cholesky(dense_precision(op, s, t))
            se = np.sqrt((1.0 + np.eye(d)) / n)
            z = np.abs(white.T @ white / n - np.eye(d)) / se
            assert np.max(z) <= 5.5, type(op).__name__

    def test_matrix_free_operator_falls_back_to_cg(self, monkeypatch):
        """No gram_matrix: every solve is a CG solve, and kappa keeps the dense law.

        Means equal the eigenbasis path to 1e-8.  Without a basis, kappa is the
        two-noise construction, linear in its d + m normals: fed the unit
        vectors, it returns the rows of a square root R of its covariance, and
        R^T R times the dense precision must be I to 1e-8.
        """
        rng = np.random.default_rng(3)
        d, m, s = 65, 40, 0.3
        a = rng.standard_normal((m, d)) / np.sqrt(d)
        y = rng.standard_normal(m)
        free = LinearGaussianObservation(MatrixFreeOperator(a), s, y)
        dense = LinearGaussianObservation(DenseOperator(a), s, y)
        with pytest.raises(NotImplementedError):
            free.operator.gram_eigh
        cg_solves = []

        def counting_solve_spd(matvec, b, rel_tolerance=1e-10):
            cg_solves.append(b.shape)
            return solve_spd(matvec, b, rel_tolerance)

        monkeypatch.setattr(flower, "solve_spd", counting_solve_spd)
        xhat = rng.standard_normal((3, d))
        for t in (0.0, 0.5, 0.9):
            for x in (xhat[0], xhat):
                np.testing.assert_allclose(
                    refine_mean(x, free, t), refine_mean(x, dense, t), rtol=1e-8
                )
            kappa = sample_kappa(free, t, np.random.default_rng(5), size=3)
            assert kappa.shape == (3, d) and np.all(np.isfinite(kappa))
        # per t: one single-row mean, three batched mean rows, three kappa rows
        assert len(cg_solves) == 3 * 7
        unit = np.eye(d + m)
        for t in (0.0, 0.5, 0.9):
            root = sample_kappa(free, t, QueuedDraws(unit[:, :d], unit[:, d:]), size=d + m)
            precision = dense_precision(dense.operator, s, t)
            np.testing.assert_allclose(root.T @ root @ precision, np.eye(d), rtol=0, atol=1e-8)

    def test_factors_once_per_operator(self):
        rng = np.random.default_rng(9)
        op = GramCountingOperator(rng.standard_normal((20, 65)))
        obs = LinearGaussianObservation(op, 0.1, rng.standard_normal(20))
        for k in range(10):
            refine_mean(rng.standard_normal(65), obs, k / 10)
            sample_kappa(obs, k / 10, rng, size=2)
        assert op.gram_calls == 1

    def test_data_term_once_per_observation(self):
        """s^-2 H^T y is one adjoint per observation, with the bytes of the per-call formula."""
        rng = np.random.default_rng(10)
        matrix = rng.standard_normal((20, 65))
        op = GramCountingOperator(matrix)
        obs = LinearGaussianObservation(op, 0.1, rng.standard_normal(20))
        for k in range(10):
            refine_mean(rng.standard_normal((3, 65)), obs, k / 10)
        assert op.adjoint_calls == 1
        expected = DenseOperator(matrix).apply_adjoint(obs.observation) / 0.1**2
        assert obs.data_rhs.tobytes() == expected.tobytes()
        assert not obs.data_rhs.flags.writeable

    def test_run_batch_never_runs_cg_on_a_circulant(self, monkeypatch):
        def no_cg(*args, **kwargs):
            raise AssertionError("solve_spd called")

        monkeypatch.setattr(flower, "solve_spd", no_cg)
        d = 128
        rng = np.random.default_rng(11)
        prior = GaussianMixture([0.5, 0.5], 0.5 * rng.standard_normal((2, d)), 0.15**2)
        op = Circulant1DOperator(blur_kernel(d))
        obs = LinearGaussianObservation(op, 0.05, op.apply(prior.sample(rng, 1)[0]))
        cfg = FlowerConfig(n_steps=20, gamma=1, noise_std=0.05, seed=2)
        x1 = run_batch(AnalyticGmmField(prior), obs, cfg, 8)
        assert x1.shape == (8, d) and np.all(np.isfinite(x1))


class TestRefine:
    """Step 2 as run_batch composes it: refine_mean plus, for gamma = 1, one kappa draw."""

    def test_gamma_zero_is_refine_mean_bitwise(self, toy_prior, toy1_obs):
        """N=1 lands on step 2's output exactly; with gamma = 0 that is refine_mean."""
        field = AnalyticGmmField(toy_prior)
        cfg = FlowerConfig(n_steps=1, gamma=0, noise_std=0.25, seed=19)
        x0 = np.random.default_rng(19).standard_normal((3, 2))
        mu = refine_mean(destination_estimate(field, x0, 0.0), toy1_obs, 0.0)
        assert run_batch(field, toy1_obs, cfg, 3).tobytes() == mu.tobytes()

    def test_gamma_one_adds_exactly_one_kappa(self, toy_prior, toy1_obs):
        field = AnalyticGmmField(toy_prior)
        with_noise, without = (
            run_batch(field, toy1_obs, FlowerConfig(1, gamma, 0.25, seed=23), 3)
            for gamma in (1, 0)
        )
        rng = np.random.default_rng(23)
        rng.standard_normal((3, 2))  # x0
        kappa = sample_kappa(toy1_obs, 0.0, rng, size=3)
        np.testing.assert_allclose(with_noise - without, kappa, rtol=1e-12, atol=1e-15)

    def test_mean_over_draws_recovers_mu(self, toy1_obs):
        xhat = np.array([0.1, -0.3])
        t = 0.6
        mu = refine_mean(xhat, toy1_obs, t)
        draws = mu + sample_kappa(toy1_obs, t, np.random.default_rng(29), size=100_000)
        se = mean_standard_errors(draws)
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * se)


class TestTimeProgress:
    def test_terminal_step_passes_through_exactly(self):
        x = np.array([0.123456789, -9.87654321])
        out = time_progress(x, 0.75, 0.25, np.random.default_rng(31))
        np.testing.assert_array_equal(out, x)

    def test_pure_noise_branch_std(self):
        rng = np.random.default_rng(37)
        t, dt = 0.2, 0.1
        draws = time_progress(np.zeros((200_000, 1)), t, dt, rng)
        std = draws.std(ddof=1)
        se = std / np.sqrt(2 * (200_000 - 1))
        assert abs(std - (1 - t - dt)) <= 3 * se

    def test_moments_at_fixed_destination(self):
        rng = np.random.default_rng(41)
        x = np.array([1.5, -0.5])
        t, dt = 0.6, 0.2
        draws = time_progress(np.broadcast_to(x, (100_000, 2)), t, dt, rng)
        se = mean_standard_errors(draws)
        assert np.all(np.abs(draws.mean(axis=0) - (t + dt) * x) <= 3 * se)
        emp = np.cov(draws.T, ddof=1)
        oracle = (1 - t - dt) ** 2 * np.eye(2)
        cov_se = covariance_standard_errors(draws)
        assert np.all(np.abs(emp - oracle) <= 3 * cov_se)

    def test_rejects_overshoot(self):
        with pytest.raises(ValueError):
            time_progress(np.zeros(2), 0.9, 0.2, np.random.default_rng(0))


class TestJointMoments:
    """Composed steps 2 and 3 at a fixed state, against dense oracles."""

    def test_refined_destination_moments(self, toy1_obs):
        t = 0.5
        xhat = np.array([0.3, 0.1])
        n = 100_000
        mu = refine_mean(xhat, toy1_obs, t)
        draws = mu + sample_kappa(toy1_obs, t, np.random.default_rng(43), size=n)
        sigma = dense_sigma_t(toy1_obs.operator, toy1_obs.noise_std, t)
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3 * mean_standard_errors(draws))
        emp = np.cov(draws.T, ddof=1)
        assert np.all(np.abs(emp - sigma) <= 3 * covariance_standard_errors(draws))

    def test_progressed_state_moments(self, toy1_obs):
        t, dt = 0.5, 0.125
        xhat = np.array([0.3, 0.1])
        n = 100_000
        rng = np.random.default_rng(47)
        mu = refine_mean(xhat, toy1_obs, t)
        nxt = time_progress(mu + sample_kappa(toy1_obs, t, rng, size=n), t, dt, rng)
        sigma = dense_sigma_t(toy1_obs.operator, toy1_obs.noise_std, t)
        s = t + dt
        mean_oracle = s * mu
        cov_oracle = s * s * sigma + (1 - s) ** 2 * np.eye(2)
        assert np.all(np.abs(nxt.mean(axis=0) - mean_oracle) <= 3 * mean_standard_errors(nxt))
        emp = np.cov(nxt.T, ddof=1)
        assert np.all(np.abs(emp - cov_oracle) <= 3 * covariance_standard_errors(nxt))


class FailsAtStep:
    """A zero field that raises, or returns NaN, at one step of an n-step run."""

    def __init__(self, step, n_steps, nan=False):
        self.bad_t = step / n_steps
        self.nan = nan

    def eval(self, x, t):
        if t != self.bad_t:
            return np.zeros_like(x)
        if self.nan:
            return np.full_like(x, np.nan)
        raise RuntimeError("synthetic failure")


def solve_samples(directory, **solver_keys):
    """flower_samples.csv of `flower-lab solve` on the first toy problem."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(MINI_TOY)
    parser["solver"].update({k: str(v) for k, v in solver_keys.items()})
    parser["baselines"] = {"exact_posterior_samples": "false"}
    directory.mkdir(exist_ok=True)
    path = directory / "solve.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    out = directory / "out"
    assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    rows = (out / "flower_samples.csv").read_text().splitlines()[3:]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows])


class TestRun:
    def test_single_step_schedule(self, toy_prior, toy1_obs):
        """N=1: estimate at t=0, refine, and land on the refinement."""
        field = AnalyticGmmField(toy_prior)
        cfg = FlowerConfig(n_steps=1, gamma=0, noise_std=0.25, seed=123)
        out = run_batch(field, toy1_obs, cfg, 3)
        x0 = np.random.default_rng(123).standard_normal((3, 2))
        xhat = destination_estimate(field, x0, 0.0)
        np.testing.assert_allclose(out, refine_mean(xhat, toy1_obs, 0.0), rtol=1e-12)

    def test_seed_determinism(self, toy_prior, toy1_obs):
        field = AnalyticGmmField(toy_prior)
        cfg = FlowerConfig(n_steps=20, gamma=1, noise_std=0.25, seed=7)
        np.testing.assert_array_equal(
            run_batch(field, toy1_obs, cfg, 4), run_batch(field, toy1_obs, cfg, 4)
        )
        other = FlowerConfig(n_steps=20, gamma=1, noise_std=0.25, seed=8)
        assert np.any(run_batch(field, toy1_obs, cfg, 4) != run_batch(field, toy1_obs, other, 4))

    def test_trajectory_record_shape_and_times(self, toy_prior, toy1_obs):
        field = AnalyticGmmField(toy_prior)
        cfg = FlowerConfig(n_steps=16, gamma=1, noise_std=0.25, seed=3, n_trajectories=3)
        x1, record = run_batch(field, toy1_obs, cfg, 5)
        assert len(record) == 16
        np.testing.assert_allclose(record.t, np.arange(16) / 16, rtol=0)
        for arr in (record.x_t, record.x1_hat, record.mu, record.x1_tilde):
            assert arr.shape == (16, 3, 2)
        # the record follows the first rows of the batch from their source noise
        np.testing.assert_array_equal(
            record.x_t[0], np.random.default_rng(3).standard_normal((5, 2))[:3]
        )
        # the last refinement is the returned sample (terminal step is exact)
        np.testing.assert_array_equal(record.x1_tilde[-1], x1[:3])
        # recording changes nothing in the samples
        plain = FlowerConfig(n_steps=16, gamma=1, noise_std=0.25, seed=3)
        np.testing.assert_array_equal(run_batch(field, toy1_obs, plain, 5), x1)
        with pytest.raises(ValueError, match="record"):
            run_batch(field, toy1_obs, cfg, 2)

    @pytest.mark.parametrize("noise_std", [1e-200, 1e-160, np.inf])
    def test_solver_noise_outside_the_float_range_fails_before_step_0(self, toy1_obs, noise_std):
        """run_batch solves with the observation at the solver's noise, which checks it."""
        cfg = FlowerConfig(n_steps=10, gamma=1, noise_std=noise_std, seed=1)
        with pytest.raises(ValueError, match="noise_std must be finite and > 0"):
            run_batch(FailsAtStep(0, 10), toy1_obs, cfg, 4)

    def test_component_errors_carry_step_index(self, toy1_obs):
        cfg = FlowerConfig(n_steps=10, gamma=0, noise_std=0.25, seed=1)
        with pytest.raises(FlowerRunError) as err:
            run_batch(FailsAtStep(3, 10), toy1_obs, cfg, 4)
        assert err.value.step == 3
        assert "step 3" in str(err.value)

    def test_non_finite_field_output_stops_at_its_step(self, toy1_obs):
        cfg = FlowerConfig(n_steps=10, gamma=1, noise_std=0.25, seed=1)
        with pytest.raises(FlowerRunError) as err:
            run_batch(FailsAtStep(3, 10, nan=True), toy1_obs, cfg, 4)
        assert err.value.step == 3
        assert "field" in str(err.value)

    def test_solver_noise_level_overrides_observation(self, toy_prior, toy1_obs):
        """cfg.noise_std is what the solver assumes in its refinement."""
        field = AnalyticGmmField(toy_prior)
        loose = FlowerConfig(n_steps=5, gamma=0, noise_std=5.0, seed=11)
        tight = FlowerConfig(n_steps=5, gamma=0, noise_std=0.25, seed=11)
        assert np.any(run_batch(field, toy1_obs, loose, 4) != run_batch(field, toy1_obs, tight, 4))


class TestRunAveraged:
    """n_avg > 1 is the reshape-mean solve applies to n_samples * n_avg runs."""

    def test_n_avg_one_equals_run(self, toy_prior, toy1_obs, tmp_path):
        samples = solve_samples(tmp_path, n_steps=12, seed=21, n_avg=1, n_samples=30)
        cfg = FlowerConfig(n_steps=12, gamma=1, noise_std=0.25, seed=21)
        np.testing.assert_array_equal(
            samples, run_batch(AnalyticGmmField(toy_prior), toy1_obs, cfg, 30)
        )

    def test_variance_scales_inversely_with_n_avg(self, tmp_path):
        singles = solve_samples(tmp_path / "1", seed=1000, n_avg=1, n_samples=400)
        averaged = solve_samples(tmp_path / "4", seed=5000, n_avg=4, n_samples=400)
        ratio = np.trace(np.cov(averaged.T)) / np.trace(np.cov(singles.T))
        assert 0.12 <= ratio <= 0.45  # ~1/4 up to Monte Carlo noise

    def test_averaging_improves_posterior_mean_estimate(self, toy_prior, toy1_obs, tmp_path):
        post_mean = posterior_linear_gaussian(toy_prior, toy1_obs).mean()
        keys = dict(n_steps=40, gamma=0, seed=9000, n_samples=100)
        single = solve_samples(tmp_path / "1", n_avg=1, **keys)
        averaged = solve_samples(tmp_path / "5", n_avg=5, **keys)
        assert np.sum((averaged - post_mean) ** 2) <= np.sum((single - post_mean) ** 2)


class TestRunBatch:
    def test_matches_single_run_distribution(self, toy_prior, toy1_obs):
        """A lockstep batch has the law of independent single-row runs."""
        field = AnalyticGmmField(toy_prior)
        cfg = FlowerConfig(n_steps=50, gamma=1, noise_std=0.25, seed=77)
        batch = run_batch(field, toy1_obs, cfg, n_runs=400)
        singles = np.concatenate(
            [
                run_batch(field, toy1_obs, cfg, 1, rng=np.random.default_rng([77, i]))
                for i in range(400)
            ]
        )
        se_m = mean_standard_errors(batch) + mean_standard_errors(singles)
        assert np.all(np.abs(batch.mean(0) - singles.mean(0)) <= 3 * se_m)
        se_c = covariance_standard_errors(batch) + covariance_standard_errors(singles)
        assert np.all(
            np.abs(np.cov(batch.T, ddof=1) - np.cov(singles.T, ddof=1)) <= 3 * se_c
        )

    def test_deterministic_given_seed(self, toy_prior, toy1_obs):
        field = AnalyticGmmField(toy_prior)
        cfg = FlowerConfig(n_steps=10, gamma=1, noise_std=0.25, seed=55)
        np.testing.assert_array_equal(
            run_batch(field, toy1_obs, cfg, 32), run_batch(field, toy1_obs, cfg, 32)
        )
