"""Mixture construction, exact posterior, path marginals and conditional means."""

import numpy as np
import pytest
from scipy.special import logsumexp

from flower_lab.gmm import (
    GaussianMixture,
    LinearGaussianObservation,
    _logsumexp,
    analytic_velocity,
    conditional_mean_x1,
    marginal_at_time,
    posterior_linear_gaussian,
)
from flower_lab.operators import (
    Circulant1DOperator,
    DenseOperator,
    MaskOperator,
    ScaledIdentityOperator,
)

from oracles import (
    conditional_mean_by_cholesky,
    conditional_mean_in_eigenbasis,
    conditional_mean_by_quadrature,
    covariance_standard_errors,
    mean_standard_errors,
    mixture_density,
    posterior_by_scipy_cholesky,
    posterior_product_on_grid,
)

from conftest import TOY_COV, TOY_MEANS, TOY_WEIGHTS, blur_kernel


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.4], [[0.0], [1.0]], 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.5, -0.5], [[0.0], [1.0]], 1.0)

    def test_singular_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0, 0.0]], np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "cov",
        [[[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]],
    )
    def test_indefinite_or_nonfinite_covariance_rejected(self, cov):
        with pytest.raises(ValueError, match="covariance"):
            GaussianMixture([1.0], [[0.0, 0.0]], cov)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 0.3], [0.0, 1.0]])

    def test_scalar_covariance_expands(self):
        g = GaussianMixture([1.0], [[0.0, 0.0]], 0.25)
        np.testing.assert_array_equal(g.covariance, 0.25 * np.eye(2))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[np.nan, 0.0]], 1.0)
        with pytest.raises(ValueError):
            GaussianMixture([np.inf], [[0.0, 0.0]], 1.0)


class TestObservation:
    @pytest.mark.parametrize("noise_std", [0.0, -0.1, np.nan, np.inf, 1e-160, 1e-200, 1e155])
    def test_noise_square_and_its_inverse_must_be_finite_and_nonzero(self, noise_std):
        """The prox and the posterior divide by s^2: 1e-160 squares to a subnormal whose
        inverse overflows, 1e-200 squares to 0 and 1e155 to inf."""
        with pytest.raises(ValueError, match="noise_std must be finite and > 0"):
            LinearGaussianObservation(DenseOperator([[1.0]]), noise_std, [0.0])

    @pytest.mark.parametrize("noise_std", [1e-150, 1e-3, 1, 1e150])
    def test_noise_inside_the_float_range_is_kept(self, noise_std):
        obs = LinearGaussianObservation(DenseOperator([[1.0]]), noise_std, [0.0])
        assert np.isfinite(obs.data_rhs).all() and obs.noise_std == noise_std


class TestLogDensity:
    def test_standard_normal_peak(self):
        g = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
        assert g.log_density(np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))

    def test_reflection_symmetry_of_toy_prior(self, toy_prior):
        """The second and third components are mirror images across y = x."""
        d2 = toy_prior.log_density(TOY_MEANS[1])
        d3 = toy_prior.log_density(TOY_MEANS[2])
        assert d2 == pytest.approx(d3, rel=1e-12)
        # and the density at those two means differs from the one at mu_1
        assert toy_prior.log_density(TOY_MEANS[0]) != pytest.approx(d2, rel=1e-6)

    def test_matches_direct_component_sum(self, toy_prior):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, size=(40, 2))
        direct = mixture_density(TOY_WEIGHTS, TOY_MEANS, TOY_COV, xs)
        np.testing.assert_allclose(
            np.exp(toy_prior.log_density(xs)), direct, rtol=1e-10
        )

    def test_dimension_mismatch(self, toy_prior):
        with pytest.raises(ValueError):
            toy_prior.log_density(np.zeros(3))


class TestLogSumExp:
    """The package's max-shifted log-sum-exp against scipy's."""

    def test_finite(self):
        a = 300.0 * np.random.default_rng(2).standard_normal((7, 5))
        np.testing.assert_allclose(_logsumexp(a), logsumexp(a, axis=-1), rtol=1e-14)
        assert _logsumexp(a[0]) == pytest.approx(logsumexp(a[0]), rel=1e-14)

    def test_minus_inf_entry_is_a_zero_weight(self):
        a = np.array([[np.log(0.25), -np.inf, np.log(0.5)], [-np.inf, 0.0, -800.0]])
        np.testing.assert_allclose(_logsumexp(a), logsumexp(a, axis=-1), rtol=1e-15)
        assert _logsumexp(a[0]) == pytest.approx(np.log(0.75), rel=1e-15)

    def test_all_minus_inf(self):
        a = np.full((2, 3), -np.inf)
        np.testing.assert_array_equal(_logsumexp(a), logsumexp(a, axis=-1))
        np.testing.assert_array_equal(_logsumexp(a), [-np.inf, -np.inf])

    def test_zero_weight_component_leaves_log_density(self, toy_prior):
        with_zero = GaussianMixture([0.5, 0.0, 0.5], TOY_MEANS, TOY_COV)
        without = GaussianMixture([0.5, 0.5], TOY_MEANS[[0, 2]], TOY_COV)
        x = np.random.default_rng(3).standard_normal((10, 2))
        np.testing.assert_allclose(with_zero.log_density(x), without.log_density(x), rtol=1e-14)


class TestSample:
    def test_degenerate_concentration(self):
        g = GaussianMixture([1.0], [[1.0, -2.0]], 1e-12)
        draws = g.sample(np.random.default_rng(0), 100)
        assert np.max(np.abs(draws - np.array([1.0, -2.0]))) < 1e-5

    def test_empirical_mean_matches_mixture_mean(self, toy_prior):
        draws = toy_prior.sample(np.random.default_rng(10), 100_000)
        expected = TOY_MEANS.mean(axis=0)
        np.testing.assert_allclose(expected, [-0.25 / 3, -0.25 / 3], rtol=1e-12)
        se = mean_standard_errors(draws)
        assert np.all(np.abs(draws.mean(axis=0) - expected) <= 3 * se)

    def test_empirical_covariance_matches_analytic(self, toy_prior):
        draws = toy_prior.sample(np.random.default_rng(11), 100_000)
        expected = toy_prior.full_covariance()
        # oracle: shared covariance plus spread of means about the mixture mean
        m = TOY_MEANS.mean(axis=0)
        spread = (TOY_MEANS - m).T @ (TOY_MEANS - m) / 3.0
        np.testing.assert_allclose(expected, TOY_COV * np.eye(2) + spread, rtol=1e-12)
        emp = np.cov(draws.T, ddof=1)
        se = covariance_standard_errors(draws)
        assert np.all(np.abs(emp - expected) <= 3 * se)

    def test_requires_positive_count(self, toy_prior):
        with pytest.raises(ValueError):
            toy_prior.sample(np.random.default_rng(0), 0)


class TestPosterior:
    def test_uninformative_measurement_recovers_prior(self, toy_prior):
        obs = LinearGaussianObservation(
            ScaledIdentityOperator(1.0, dim=2), noise_std=1e6, observation=[0.0, 0.0]
        )
        post = posterior_linear_gaussian(toy_prior, obs)
        np.testing.assert_allclose(post.weights, toy_prior.weights, atol=1e-6)
        np.testing.assert_allclose(post.means, toy_prior.means, atol=1e-6)

    def test_conjugate_gaussian_average(self):
        prior = GaussianMixture([1.0], [[2.0, -1.0]], 1.0)
        obs = LinearGaussianObservation(
            ScaledIdentityOperator(1.0, dim=2), noise_std=1.0, observation=[0.0, 3.0]
        )
        post = posterior_linear_gaussian(prior, obs)
        np.testing.assert_allclose(post.means[0], [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(post.covariance, 0.5 * np.eye(2), rtol=1e-12)

    def test_toy1_matches_grid_quadrature(self, toy_prior, toy1_obs):
        """Posterior density integrates to ~1 and matches prior x likelihood."""
        post = posterior_linear_gaussian(toy_prior, toy1_obs)
        n = 301
        axis = np.linspace(-1.5, 1.5, n)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)

        analytic = np.exp(post.log_density(pts))
        cell = (axis[1] - axis[0]) ** 2
        integral = analytic.sum() * cell  # rectangle rule on the open grid
        assert integral == pytest.approx(1.0, abs=5e-4)

        product = posterior_product_on_grid(
            TOY_WEIGHTS, TOY_MEANS, TOY_COV, [[1.5, 1.5]], 0.25, [1.0], pts
        )
        analytic_norm = analytic / analytic.sum()
        product_norm = product / product.sum()
        assert np.max(np.abs(analytic_norm - product_norm)) <= 1e-6 * product_norm.max()

    def test_weights_form_simplex_and_cov_spd(self, toy_prior, toy2_obs):
        post = posterior_linear_gaussian(toy_prior, toy2_obs)
        assert np.all(post.weights >= 0)
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.linalg.eigvalsh(post.covariance) > 0)

    def test_vanishing_noise_pins_means_to_observation(self, toy_prior):
        obs = LinearGaussianObservation(
            ScaledIdentityOperator(1.0, dim=2),
            noise_std=1e-6,
            observation=[0.3, -0.1],
        )
        post = posterior_linear_gaussian(toy_prior, obs)
        assert np.max(np.abs(post.means - np.array([0.3, -0.1]))) <= 1e-6

    def test_empty_measurement_returns_prior(self, toy_prior):
        obs = LinearGaussianObservation(
            MaskOperator(set(), dim=2), noise_std=0.5, observation=[]
        )
        post = posterior_linear_gaussian(toy_prior, obs)
        np.testing.assert_allclose(post.weights, toy_prior.weights, rtol=1e-12)
        np.testing.assert_allclose(post.means, toy_prior.means, rtol=1e-10)
        np.testing.assert_allclose(post.covariance, toy_prior.covariance, rtol=1e-10)

    @pytest.mark.parametrize("d", [2, 65, 128])
    def test_matches_scipy_cholesky(self, d):
        """The numpy posterior against the scipy Cholesky formula it replaced."""
        rng = np.random.default_rng(d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cov = (q * np.logspace(-3, 0, d)) @ q.T
        means = 0.1 * rng.standard_normal((3, d))
        prior = GaussianMixture([0.6, 0.3, 0.1], means, 0.5 * (cov + cov.T))
        op = Circulant1DOperator(blur_kernel(d)) if d > 2 else DenseOperator([[1.5, 1.5]])
        y = op.apply(prior.sample(rng, 1)[0]) + 0.05 * rng.standard_normal(op.out_dim)
        post = posterior_linear_gaussian(prior, LinearGaussianObservation(op, 0.05, y))
        weights, means_post, cov_post = posterior_by_scipy_cholesky(
            prior.weights, prior.means, prior.covariance, op.dense_matrix(), 0.05, y
        )
        assert weights.min() > 0.01  # every component keeps a visible share
        np.testing.assert_allclose(post.weights, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.means, means_post, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.covariance, cov_post, rtol=0, atol=1e-12)


class TestMarginalAtTime:
    def test_t0_is_standard_normal(self, toy_prior):
        g = marginal_at_time(toy_prior, 0.0)
        np.testing.assert_array_equal(g.means, np.zeros((3, 2)))
        np.testing.assert_array_equal(g.covariance, np.eye(2))

    def test_t1_is_the_prior(self, toy_prior):
        g = marginal_at_time(toy_prior, 1.0)
        np.testing.assert_array_equal(g.weights, toy_prior.weights)
        np.testing.assert_array_equal(g.means, toy_prior.means)
        np.testing.assert_array_equal(g.covariance, toy_prior.covariance)

    def test_midpoint_formula_and_sampling(self, toy_prior):
        g = marginal_at_time(toy_prior, 0.5)
        np.testing.assert_allclose(
            g.covariance, 0.25 * toy_prior.covariance + 0.25 * np.eye(2), rtol=1e-15
        )
        # cross-check by simulating x_t = 0.5 x0 + 0.5 x1
        rng = np.random.default_rng(21)
        x1 = toy_prior.sample(rng, 100_000)
        x0 = rng.standard_normal((100_000, 2))
        xt = 0.5 * x0 + 0.5 * x1
        se = covariance_standard_errors(xt)
        assert np.all(np.abs(np.cov(xt.T) - g.full_covariance()) <= 3 * se)

    def test_domain(self, toy_prior):
        with pytest.raises(ValueError):
            marginal_at_time(toy_prior, 1.5)


def ill_conditioned_prior(d, rng, weights=(0.6, 0.3, 0.1)):
    """Unequal weights (K = 3 by default) and a full covariance of condition number 1e5."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cov = (q * np.logspace(-5, 0, d)) @ q.T
    means = rng.standard_normal((len(weights), d))
    return GaussianMixture(weights, means, 0.5 * (cov + cov.T))


class TestConditionalMean:
    def test_t0_returns_mixture_mean_everywhere(self, toy_prior):
        rng = np.random.default_rng(31)
        mix_mean = toy_prior.mean()
        for x in rng.uniform(-2, 2, size=(5, 2)):
            np.testing.assert_allclose(
                conditional_mean_x1(toy_prior, x, 0.0), mix_mean, rtol=1e-12
            )

    def test_single_gaussian_matches_joint_regression(self):
        """K=1 reduces to the textbook Gaussian conditioning formula."""
        rng = np.random.default_rng(33)
        a = rng.standard_normal((2, 2))
        cov = a @ a.T + np.eye(2)
        mu = np.array([0.4, -0.7])
        prior = GaussianMixture([1.0], [mu], cov)
        t = 0.65
        # joint covariance of (Xt, X1) assembled explicitly
        cov_tt = t * t * cov + (1 - t) ** 2 * np.eye(2)
        cov_t1 = t * cov
        for x in rng.uniform(-2, 2, size=(5, 2)):
            oracle = mu + cov_t1 @ np.linalg.solve(cov_tt, x - t * mu)
            np.testing.assert_allclose(
                conditional_mean_x1(prior, x, t), oracle, rtol=1e-12
            )

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_matches_quadrature(self, toy_prior, t):
        points = [(-0.5, 0.25), (0.0, 0.0), (0.6, -0.4)]
        for x in points:
            oracle = conditional_mean_by_quadrature(
                TOY_WEIGHTS, TOY_MEANS, TOY_COV, x, t
            )
            # oracle self-check: result stable under grid refinement
            coarse = conditional_mean_by_quadrature(
                TOY_WEIGHTS, TOY_MEANS, TOY_COV, x, t, n_nodes=300
            )
            assert np.max(np.abs(oracle - coarse)) < 1e-9
            got = conditional_mean_x1(toy_prior, np.asarray(x, dtype=float), t)
            assert np.max(np.abs(got - oracle)) <= 1e-6

    def test_batched_matches_loop(self, toy_prior):
        rng = np.random.default_rng(35)
        xs = rng.uniform(-1, 1, size=(7, 2))
        batch = conditional_mean_x1(toy_prior, xs, 0.3)
        rows = np.stack([conditional_mean_x1(toy_prior, x, 0.3) for x in xs])
        np.testing.assert_allclose(batch, rows, rtol=1e-14)

    def test_tower_property_near_fixed_point(self, toy_prior):
        """Sample-level check: window-conditioned mean of X1 near x*."""
        rng = np.random.default_rng(37)
        n = 400_000
        t, x_star, radius = 0.5, np.array([0.0, 0.1]), 0.05
        x1 = toy_prior.sample(rng, n)
        x0 = rng.standard_normal((n, 2))
        xt = (1 - t) * x0 + t * x1
        window = np.linalg.norm(xt - x_star, axis=1) < radius
        assert window.sum() > 500
        hits = x1[window]
        se = mean_standard_errors(hits)
        target = conditional_mean_x1(toy_prior, x_star, t)
        assert np.all(np.abs(hits.mean(axis=0) - target) <= 3 * se)

    def test_rejects_t_at_one(self, toy_prior):
        with pytest.raises(ValueError):
            conditional_mean_x1(toy_prior, np.zeros(2), 1.0)

    @pytest.mark.parametrize("d", [2, 65, 128])
    def test_matches_cholesky_reference(self, d):
        """The eigenbasis field against a per-call Cholesky of the path covariance."""
        rng = np.random.default_rng(d)
        for weights in ([0.6, 0.3, 0.1], [1.0], np.arange(9, 0, -1) / 45):
            prior = ill_conditioned_prior(d, rng, weights)
            # midway between two scaled means the responsibilities follow the weights
            first, second = (idx[:3] for idx in np.triu_indices(len(weights), 1))
            for t in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
                on_path = (1 - t) * rng.standard_normal((30, d)) + t * prior.sample(rng, 30)
                between = t * (prior.means[first] + prior.means[second]) / 2
                x = np.vstack([on_path, between])
                oracle = conditional_mean_by_cholesky(
                    prior.weights, prior.means, prior.covariance, x, t
                )
                np.testing.assert_allclose(
                    conditional_mean_x1(prior, x, t), oracle, rtol=0, atol=1e-9
                )

    @pytest.mark.parametrize("t", [0.5, 1 - 1e-9])
    def test_rows_are_independent(self, t):
        """A far row changes no other row of its batch: the softmax shift is per row.

        Each row matches its own one-row evaluation and the Cholesky oracle to
        1e-9 relative to the row's scale (1 near the origin, 1e3 for the far row).
        """
        d = 65
        prior = ill_conditioned_prior(d, np.random.default_rng(67))
        near = 1e-3 * np.random.default_rng(68).standard_normal((2, d))
        x = np.vstack([near[0], np.full(d, 1e3), near[1]])
        batch = conditional_mean_x1(prior, x, t)
        oracle = conditional_mean_by_cholesky(
            prior.weights, prior.means, prior.covariance, x, t
        )
        for row, got, want in zip(x, batch, oracle):
            atol = 1e-9 * max(1.0, np.abs(row).max())
            alone = conditional_mean_x1(prior, row[None], t)[0]
            np.testing.assert_allclose(got, alone, rtol=0, atol=atol)
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    def test_vector_input_is_a_one_row_batch(self):
        prior = ill_conditioned_prior(65, np.random.default_rng(69))
        x = np.random.default_rng(70).standard_normal(65)
        for t in (0.0, 0.5, 1 - 1e-9):
            single = conditional_mean_x1(prior, x, t)
            assert single.shape == (65,)
            assert np.array_equal(single, conditional_mean_x1(prior, x[None], t)[0])


class TestIsotropicField:
    """A c I covariance skips the eigenbasis with the bits of U = I."""

    @pytest.mark.parametrize("d", [2, 16, 32, 1024])
    def test_bit_identical_to_the_eigenbasis_formula(self, d):
        rng = np.random.default_rng(80 + d)
        means = rng.standard_normal((3, d))
        x = rng.standard_normal((64, d))
        ts = (0.0, 0.3, 0.9, 1 - 1e-9)
        for c in (0.15**2, 2.5):
            for cov in (c, c * np.eye(d)):
                prior = GaussianMixture([0.5, 0.3, 0.2], means, cov)
                got = [conditional_mean_x1(prior, x, t) for t in ts]
                got.append(conditional_mean_x1(prior, x[0], 0.3))
                assert "covariance_eigh" not in vars(prior)
                lam, u, _ = prior.covariance_eigh
                assert np.array_equal(u, np.eye(d)) and np.all(lam == c)
                want = [conditional_mean_in_eigenbasis(prior, x, t) for t in ts]
                want.append(conditional_mean_in_eigenbasis(prior, x[0], 0.3))
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", [2, 65, 128])
    def test_matches_cholesky_reference(self, d):
        rng = np.random.default_rng(90 + d)
        means = rng.standard_normal((3, d))
        for cov in (0.15**2, 1.7 * np.eye(d)):
            prior = GaussianMixture([0.6, 0.3, 0.1], means, cov)
            for t in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
                x = (1 - t) * rng.standard_normal((30, d)) + t * prior.sample(rng, 30)
                oracle = conditional_mean_by_cholesky(
                    prior.weights, prior.means, prior.covariance, x, t
                )
                np.testing.assert_allclose(
                    conditional_mean_x1(prior, x, t), oracle, rtol=0, atol=1e-9
                )
            assert "covariance_eigh" not in vars(prior)

    def test_other_covariances_go_through_the_eigenbasis(self):
        d = 16
        rng = np.random.default_rng(97)
        near_isotropic = 0.5 * np.eye(d)
        near_isotropic[0, 1] = near_isotropic[1, 0] = 1e-14
        unequal_diagonal = np.diag(np.linspace(0.5, 1.5, d))
        for cov in (ill_conditioned_prior(d, rng).covariance, near_isotropic, unequal_diagonal):
            prior = GaussianMixture([0.6, 0.3, 0.1], rng.standard_normal((3, d)), cov)
            x = rng.standard_normal((20, d))
            got = conditional_mean_x1(prior, x, 0.5)
            assert "covariance_eigh" in vars(prior)
            assert got.tobytes() == conditional_mean_in_eigenbasis(prior, x, 0.5).tobytes()


class TestHighDimensionRobustness:
    D = 65

    @pytest.fixture
    def prior(self):
        return ill_conditioned_prior(self.D, np.random.default_rng(65))

    def test_zero_weight_component_is_ignored(self, prior):
        with_zero = GaussianMixture([0.7, 0.0, 0.3], prior.means, prior.covariance)
        without = GaussianMixture([0.7, 0.3], prior.means[[0, 2]], prior.covariance)
        x = np.random.default_rng(66).standard_normal((20, self.D))
        for t in (0.0, 0.5, 1 - 1e-9):
            np.testing.assert_allclose(
                conditional_mean_x1(with_zero, x, t),
                conditional_mean_x1(without, x, t),
                rtol=0,
                atol=1e-12,
            )

    def test_far_point_near_t1_is_finite(self, prior):
        x, t = np.full(self.D, 1e3), 1 - 1e-9
        got = conditional_mean_x1(prior, x, t)
        assert np.all(np.isfinite(got))
        oracle = conditional_mean_by_cholesky(
            prior.weights, prior.means, prior.covariance, x, t
        )
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9 * 1e3)

    def test_covariance_eigh_is_cached_and_read_only(self, prior):
        eigh = prior.covariance_eigh
        assert prior.covariance_eigh is eigh
        lam, u, means_u = eigh
        for arr in eigh:
            assert not arr.flags.writeable
        np.testing.assert_allclose((u * lam) @ u.T, prior.covariance, atol=1e-12)
        np.testing.assert_allclose(means_u @ u.T, prior.means, atol=1e-12)


class TestAnalyticVelocity:
    def test_consistency_with_conditional_mean(self, toy_prior):
        rng = np.random.default_rng(41)
        for t in (0.0, 0.25, 0.8, 0.999):
            x = rng.uniform(-1, 1, size=2)
            v = analytic_velocity(toy_prior, x, t)
            np.testing.assert_allclose(
                x + (1 - t) * v,
                conditional_mean_x1(toy_prior, x, t),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_single_gaussian_closed_form(self):
        """For the standard normal target, v(x, t) = x (2t-1)/(t^2+(1-t)^2)."""
        prior = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
        rng = np.random.default_rng(43)
        for t in (0.2, 0.5, 0.9):
            coeff = (2 * t - 1) / (t * t + (1 - t) ** 2)
            x = rng.uniform(-2, 2, size=2)
            np.testing.assert_allclose(
                analytic_velocity(prior, x, t), coeff * x, rtol=1e-12, atol=1e-15
            )
        np.testing.assert_allclose(
            analytic_velocity(prior, np.array([1.0, -1.0]), 0.5),
            np.zeros(2),
            atol=1e-15,
        )

    def test_rejects_t_at_one(self, toy_prior):
        with pytest.raises(ValueError):
            analytic_velocity(toy_prior, np.zeros(2), 1.0)
