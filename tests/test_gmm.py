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
    component_log_densities,
    conditional_mean_by_cholesky,
    conditional_mean_in_eigenbasis,
    conditional_mean_by_quadrature,
    covariance_standard_errors,
    mean_standard_errors,
    mixture_covariance,
    mixture_density,
    mixture_log_density,
    mixture_mean,
    posterior_by_scipy_cholesky,
    posterior_product_on_grid,
    sample_by_cholesky,
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
        """The prox multiplies through by s^2: 1e-160 squares to a subnormal whose
        inverse overflows, 1e-200 squares to 0 and 1e155 to inf."""
        with pytest.raises(ValueError, match="noise_std must be finite and > 0"):
            LinearGaussianObservation(DenseOperator([[1.0]]), noise_std, [0.0])

    @pytest.mark.parametrize("noise_std", [1e-150, 1e-3, 1, 1e150])
    def test_noise_inside_the_float_range_is_kept(self, noise_std):
        obs = LinearGaussianObservation(DenseOperator([[1.0]]), noise_std, [0.0])
        post = posterior_linear_gaussian(GaussianMixture([1.0], [[0.5]], 1.0), obs)
        assert np.isfinite(post.covariance).all() and obs.noise_std == noise_std


class TestLogDensity:
    def test_standard_normal_peak(self):
        g = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
        assert mixture_log_density(g, np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))

    def test_reflection_symmetry_of_toy_prior(self, toy_prior):
        """The second and third components are mirror images across y = x."""
        d2 = mixture_log_density(toy_prior, TOY_MEANS[1])
        d3 = mixture_log_density(toy_prior, TOY_MEANS[2])
        assert d2 == pytest.approx(d3, rel=1e-12)
        # and the density at those two means differs from the one at mu_1
        assert mixture_log_density(toy_prior, TOY_MEANS[0]) != pytest.approx(d2, rel=1e-6)

    def test_matches_direct_component_sum(self, toy_prior):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, size=(40, 2))
        direct = mixture_density(TOY_WEIGHTS, TOY_MEANS, TOY_COV, xs)
        np.testing.assert_allclose(
            np.exp(mixture_log_density(toy_prior, xs)), direct, rtol=1e-10
        )

    def test_dimension_mismatch(self, toy_prior):
        with pytest.raises(ValueError):
            mixture_log_density(toy_prior, np.zeros(3))

    def test_zero_variance_raises_instead_of_nan(self, toy_prior):
        """h = [1e200, 1e200] at s = 0.25: the variance along h, about 3e-402, is held as 0."""
        obs = LinearGaussianObservation(DenseOperator([[1e200, 1e200]]), 0.25, [1.0])
        post = posterior_linear_gaussian(toy_prior, obs)
        with pytest.raises(FloatingPointError, match="zero variance"):
            component_log_densities(post, post.means)


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
        np.testing.assert_allclose(
            mixture_log_density(with_zero, x), mixture_log_density(without, x), rtol=1e-14
        )


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
        expected = mixture_covariance(toy_prior)
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

        analytic = np.exp(mixture_log_density(post, pts))
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
        cov = 0.5 * (cov + cov.T)
        prior = GaussianMixture([0.6, 0.3, 0.1], means, cov)
        op = Circulant1DOperator(blur_kernel(d)) if d > 2 else DenseOperator([[1.5, 1.5]])
        x = sample_by_cholesky(prior.weights, means, cov, rng, 1)[0]
        y = op.apply(x) + 0.05 * rng.standard_normal(op.out_dim)
        post = posterior_linear_gaussian(prior, LinearGaussianObservation(op, 0.05, y))
        weights, means_post, cov_post = posterior_by_scipy_cholesky(
            prior.weights, prior.means, prior.covariance, op.dense_matrix(), 0.05, y
        )
        assert weights.min() > 0.01  # every component keeps a visible share
        np.testing.assert_allclose(post.weights, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.means, means_post, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.covariance, cov_post, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise_std", [1e-4, 1e-8, 1e-10, 1e-12, 1e-20])
    @pytest.mark.parametrize(
        "op",
        [DenseOperator([[1.0, 0.0]]), MaskOperator({0}, dim=2), ScaledIdentityOperator(1.0, 2)],
        ids=["dense_row", "mask", "identity"],
    )
    def test_small_noise_axis_rows(self, toy_prior, op, noise_std):
        """Rows along the axes at vanishing noise: the closed form, variance s^2 and all."""
        observed = np.flatnonzero(op.dense_matrix().any(axis=0))
        post = posterior_linear_gaussian(
            toy_prior, LinearGaussianObservation(op, noise_std, np.ones(op.out_dim))
        )
        var, s2 = TOY_COV, noise_std * noise_std
        gain = var / (var + s2)
        means = toy_prior.means.copy()
        means[:, observed] += gain * (1.0 - means[:, observed])
        cov = np.diag(np.full(2, var))
        cov[observed, observed] = var * s2 / (var + s2)
        np.testing.assert_allclose(post.means, means, rtol=0, atol=1e-12)
        assert np.all(np.diag(post.covariance)[observed] > 0)
        np.testing.assert_allclose(post.covariance, cov, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("noise_std", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("h", [[1.5, 1.3], [15.0, 15.0]])
    def test_small_noise_one_row(self, toy_prior, h, noise_std):
        """One row off the axes at small noise: the closed forms along h and across it.

        A dense Sigma_post holds a variance along h only to a few ulp of
        Sigma's scale, so that is the tolerance there.  Below about
        s = sqrt(eps) sigma |h| the variance along h falls under it, and
        whether the rounded Sigma_post still factors is left to rounding.
        """
        h = np.array(h)
        h_hat = h / np.linalg.norm(h)
        null = np.array([-h_hat[1], h_hat[0]])
        obs = LinearGaussianObservation(DenseOperator([h]), noise_std, [1.0])
        post = posterior_linear_gaussian(toy_prior, obs)
        var, s2 = TOY_COV, noise_std * noise_std
        h_mu = toy_prior.means @ h
        h_sigma_h = var * (h @ h)
        mean_along = (h_mu + h_sigma_h / (h_sigma_h + s2) * (1.0 - h_mu)) / np.linalg.norm(h)
        var_along = var * s2 / (h_sigma_h + s2)
        np.testing.assert_allclose(post.means @ h_hat, mean_along, rtol=0, atol=1e-12)
        tol = max(1e-6 * var_along, 4 * np.finfo(float).eps * var)
        assert h_hat @ post.covariance @ h_hat == pytest.approx(var_along, rel=0, abs=tol)
        assert null @ post.covariance @ null == pytest.approx(var, rel=0, abs=1e-12)

    @pytest.mark.parametrize("noise_std", [0.25, 1e-3, 1e-10, 1e-30])
    def test_repeated_row_is_one_row_at_lower_noise(self, toy_prior, noise_std):
        """m > rank H: a row measured twice at noise s is that row once at s / sqrt(2)."""
        h, y = [1.5, 1.3], 0.4
        twice = posterior_linear_gaussian(
            toy_prior, LinearGaussianObservation(DenseOperator([h, h]), noise_std, [y, y])
        )
        once = posterior_linear_gaussian(
            toy_prior,
            LinearGaussianObservation(DenseOperator([h]), noise_std / np.sqrt(2.0), [y]),
        )
        np.testing.assert_allclose(twice.weights, once.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(twice.means, once.means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(twice.covariance, once.covariance, rtol=0, atol=1e-12)


def one_row_means(means, h, y, var, noise_std):
    """Closed form for Sigma = var I and one row h: only the part along h moves."""
    h = np.asarray(h, dtype=float)
    gain = var * h / (var * (h @ h) + noise_std**2)
    return means + np.outer(y - means @ h, gain)


def mask_means(means, kept, y, var, noise_std):
    out = means.copy()
    out[:, kept] += var / (var + noise_std**2) * (y - means[:, kept])
    return out


def circulant_means(means, kernel, y, var, noise_std):
    """Closed form frequency by frequency; a zero of the kernel's spectrum keeps the prior."""
    k_hat = np.fft.fft(kernel)
    gain = var * np.conj(k_hat) / (var * np.abs(k_hat) ** 2 + noise_std**2)
    return means + np.fft.ifft(gain * (np.fft.fft(y) - k_hat * np.fft.fft(means))).real


# (operator, observation, closed-form means, squared singular values of H)
SWEEP = {
    "row": (
        DenseOperator([[1.5, 1.3]]),
        [1.0],
        lambda mu, var, s: one_row_means(mu, [1.5, 1.3], 1.0, var, s),
        [1.5**2 + 1.3**2, 0.0],
    ),
    "mask": (
        MaskOperator([0, 2], 4),
        [0.3, -0.1],
        lambda mu, var, s: mask_means(mu, [0, 2], [0.3, -0.1], var, s),
        [1.0, 1.0, 0.0, 0.0],
    ),
    "circulant": (
        Circulant1DOperator([0.5, 0.5, 0.0, 0.0]),
        [1.0, -0.5, 0.25, 0.8],
        lambda mu, var, s: circulant_means(mu, [0.5, 0.5, 0, 0], [1.0, -0.5, 0.25, 0.8], var, s),
        [1.0, 0.5, 0.5, 0.0],
    ),
    # a row measured twice at s is that row once at s / sqrt(2)
    "repeated_row": (
        DenseOperator([[1.5, 1.3], [1.5, 1.3]]),
        [0.4, 0.4],
        lambda mu, var, s: one_row_means(mu, [1.5, 1.3], 0.4, var, s / np.sqrt(2.0)),
        [2 * (1.5**2 + 1.3**2), 0.0],
    ),
}


class UnitSampler:
    """Stands in for a Generator in GaussianMixture.sample: component 0, then unit normals."""

    def choice(self, n_components, size, p):
        return np.zeros(size, dtype=int)

    def standard_normal(self, shape):
        return np.eye(*shape)


class TestNoiseSweep:
    """The posterior from s = 1e-1 to 1e-50 on rows off the axes, a mask and a singular blur."""

    @pytest.mark.parametrize("noise_std", [1e-1, 1e-4, 1e-8, 1e-12, 1e-20, 1e-50])
    @pytest.mark.parametrize("case", SWEEP)
    def test_closed_form_at_every_noise_level(self, case, noise_std):
        """Means to 1e-12; the covariance root's columns are sigma s / sqrt(sigma^2 S^2 + s^2).

        F = L V diag(c) has orthogonal columns of length sigma c for Sigma =
        sigma^2 I, so fed unit normals a zero-mean posterior returns them, and
        their lengths give the variance along each observed direction, and
        sigma along the null space, however far below sigma's last bit it lies.
        """
        op, y, closed_form, singular_squares = SWEEP[case]
        d, var = op.in_dim, TOY_COV
        means = np.random.default_rng(d).uniform(-0.5, 0.5, (3, d))
        prior = GaussianMixture(TOY_WEIGHTS, means, var)
        post = posterior_linear_gaussian(prior, LinearGaussianObservation(op, noise_std, y))
        expected = closed_form(means, var, noise_std)
        np.testing.assert_allclose(post.means, expected, rtol=0, atol=1e-12)
        assert np.all(post.weights > 0)
        centered = GaussianMixture([1.0], np.zeros((1, d)), var)
        zero = LinearGaussianObservation(op, noise_std, np.zeros(op.out_dim))
        columns = posterior_linear_gaussian(centered, zero).sample(UnitSampler(), d)
        lam = np.array(singular_squares)
        lengths = np.sqrt(var) * noise_std / np.sqrt(var * lam + noise_std**2)
        np.testing.assert_allclose(
            np.sort(np.linalg.norm(columns, axis=1)), np.sort(lengths), rtol=1e-12, atol=0
        )


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
        assert np.all(np.abs(np.cov(xt.T) - mixture_covariance(g)) <= 3 * se)

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
        mix_mean = mixture_mean(toy_prior)
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
    """A c I covariance is held as (c, None) and the field skips U with the bits of U = I."""

    @pytest.mark.parametrize("d", [2, 16, 32, 1024])
    def test_bit_identical_to_the_eigenbasis_formula(self, d):
        rng = np.random.default_rng(80 + d)
        means = rng.standard_normal((3, d))
        x = rng.standard_normal((64, d))
        ts = (0.0, 0.3, 0.9, 1 - 1e-9)
        weights = [0.5, 0.3, 0.2]
        for c in (0.15**2, 2.5):
            # eigh of c I returns U = I and lam = c exactly, so U None must match it bit for bit
            lam, u = np.linalg.eigh(c * np.eye(d))
            assert np.array_equal(u, np.eye(d)) and np.all(lam == c)
            for cov in (c, c * np.eye(d)):
                prior = GaussianMixture(weights, means, cov)
                assert prior._factor[:2] == (c, None)
                got = [conditional_mean_x1(prior, x, t) for t in ts]
                got.append(conditional_mean_x1(prior, x[0], 0.3))
                want = [conditional_mean_in_eigenbasis(weights, means, cov, x, t) for t in ts]
                want.append(conditional_mean_in_eigenbasis(weights, means, cov, x[0], 0.3))
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
            assert prior._factor[1] is None

    def test_other_covariances_go_through_the_eigenbasis(self):
        d = 16
        rng = np.random.default_rng(97)
        near_isotropic = 0.5 * np.eye(d)
        near_isotropic[0, 1] = near_isotropic[1, 0] = 1e-14
        unequal_diagonal = np.diag(np.linspace(0.5, 1.5, d))
        for cov in (ill_conditioned_prior(d, rng).covariance, near_isotropic, unequal_diagonal):
            weights, means = [0.6, 0.3, 0.1], rng.standard_normal((3, d))
            prior = GaussianMixture(weights, means, cov)
            x = rng.standard_normal((20, d))
            got = conditional_mean_x1(prior, x, 0.5)
            assert prior._factor[1] is not None
            want = conditional_mean_in_eigenbasis(weights, means, cov, x, 0.5)
            assert got.tobytes() == want.tobytes()


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

    def test_factor_is_read_only_and_reproduces_the_covariance(self):
        rng = np.random.default_rng(65)
        q, _ = np.linalg.qr(rng.standard_normal((self.D, self.D)))
        cov = (q * np.logspace(-5, 0, self.D)) @ q.T
        cov = 0.5 * (cov + cov.T)
        prior = GaussianMixture([0.6, 0.3, 0.1], rng.standard_normal((3, self.D)), cov)
        lam, u, means_u = prior._factor
        for arr in (lam, u, means_u, prior.weights, prior.means, prior.log_weights):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError):
            prior.covariance = cov
        np.testing.assert_allclose(u.T @ u, np.eye(self.D), rtol=0, atol=1e-12)
        np.testing.assert_allclose((u * lam) @ u.T, cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prior.covariance, cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(means_u @ u.T, prior.means, rtol=0, atol=1e-12)


def operator_zoo(d, rng):
    """One operator of each class on R^d; d = 2 gets a single row and one kept coordinate."""
    kept = [0] if d == 2 else range(0, d, 2)
    dense = [[1.5, 1.3]] if d == 2 else rng.standard_normal((d // 2, d)) / np.sqrt(d)
    return {
        "dense": DenseOperator(dense),
        "mask": MaskOperator(kept, d),
        "circulant": Circulant1DOperator([0.5, 0.5] if d == 2 else blur_kernel(d)),
        "scaled_identity": ScaledIdentityOperator(1.3, d),
    }


def no_factorization(monkeypatch):
    """Make numpy's eigh, cholesky, svd and slogdet raise for the rest of a test."""

    def refuse(*args, **kwargs):
        raise AssertionError("factored a matrix")

    for name in ("eigh", "cholesky", "svd", "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)


class TestOneFactor:
    """The path marginal rescales the factor, and an isotropic posterior reuses H's SVD."""

    @pytest.mark.parametrize("isotropic", [True, False])
    def test_marginal_and_its_field_factor_nothing_at_d1024(self, monkeypatch, isotropic):
        d = 1024
        rng = np.random.default_rng(1024)
        cov = 0.15**2 if isotropic else np.diag(np.linspace(0.01, 1.0, d))
        prior = GaussianMixture([0.5, 0.5], rng.standard_normal((2, d)), cov)
        x = rng.standard_normal((8, d))
        no_factorization(monkeypatch)
        for t in (0.0, 0.5, 1.0):
            marginal = marginal_at_time(prior, t)
            assert marginal._factor[1] is prior._factor[1]
            assert np.all(np.isfinite(conditional_mean_x1(marginal, x, 0.5)))

    @pytest.mark.parametrize("d", [2, 65, 128])
    @pytest.mark.parametrize("case", ["dense", "mask", "circulant", "scaled_identity"])
    def test_match_the_cholesky_oracles(self, monkeypatch, d, case):
        """The marginal's field and the isotropic posterior, factoring nothing, against scipy.

        With the operator's SVD cached, the posterior reads it: no ``_rank_svd``
        call and no numpy factorization.
        """
        import flower_lab.gmm as gmm

        rng = np.random.default_rng(d)
        var, ts = 0.15**2, (0.1, 0.5, 0.9)
        prior = GaussianMixture([0.6, 0.3, 0.1], 0.3 * rng.standard_normal((3, d)), var)
        op = operator_zoo(d, rng)[case]
        y = op.apply(prior.sample(rng, 1)[0]) + 0.05 * rng.standard_normal(op.out_dim)
        x = rng.standard_normal((20, d))
        weights, means, cov = posterior_by_scipy_cholesky(
            prior.weights, prior.means, var * np.eye(d), op.dense_matrix(), 0.05, y
        )
        on_marginal = [
            conditional_mean_by_cholesky(
                prior.weights, t * prior.means, (t * t * var + (1 - t) ** 2) * np.eye(d), x, 0.5
            )
            for t in ts
        ]
        on_post = [conditional_mean_by_cholesky(weights, means, cov, x, t) for t in ts]
        op.svd  # noqa: B018 -- the operator's own SVD, cached before numpy's is refused
        calls = []
        monkeypatch.setattr(gmm, "_rank_svd", lambda a: calls.append(a.shape))
        no_factorization(monkeypatch)
        post = posterior_linear_gaussian(prior, LinearGaussianObservation(op, 0.05, y))
        assert calls == [] and post._factor[1] is op.svd[2]
        np.testing.assert_allclose(post.weights, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.means, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.covariance, cov, rtol=0, atol=1e-12)
        for t, want_marginal, want_post in zip(ts, on_marginal, on_post):
            got = conditional_mean_x1(marginal_at_time(prior, t), x, 0.5)
            np.testing.assert_allclose(got, want_marginal, rtol=0, atol=1e-9)
            got = conditional_mean_x1(post, x, t)
            np.testing.assert_allclose(got, want_post, rtol=0, atol=1e-9)


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
