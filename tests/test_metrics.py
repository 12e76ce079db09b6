"""Wasserstein distances, moments and the metric report format."""

from itertools import permutations

import numpy as np
import pytest

from flower_lab.gmm import GaussianMixture
from flower_lab.metrics import covariance_logdet, empirical_moments, metric_report, sliced_w2
from oracles import exact_w2, wasserstein1d


def brute_force_w2_1d(a, b):
    """Minimum RMS pairing over all permutations (exact LP for tiny sets)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = np.inf
    for perm in permutations(range(len(b))):
        best = min(best, np.mean((a - b[list(perm)]) ** 2))
    return np.sqrt(best)


class TestWasserstein1d:
    def test_identical_sets(self):
        a = np.array([3.0, -1.0, 2.0])
        assert wasserstein1d(a, a) == 0.0

    def test_pure_shift(self):
        assert wasserstein1d([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_translated_normals(self):
        rng = np.random.default_rng(3)
        c = 0.7
        a = rng.standard_normal(100_000)
        b = rng.standard_normal(100_000) + c
        assert wasserstein1d(a, b) == pytest.approx(c, rel=0.02)

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 8):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            assert wasserstein1d(a, b) == pytest.approx(
                brute_force_w2_1d(a, b), rel=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein1d([1.0], [1.0, 2.0])


class TestSlicedW2:
    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 3))
        assert sliced_w2(a, a, rng=np.random.default_rng(0)) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 2))
        b = rng.standard_normal((64, 2)) + 0.5
        d_ab = sliced_w2(a, b, rng=np.random.default_rng(1))
        d_ba = sliced_w2(b, a, rng=np.random.default_rng(1))
        assert d_ab == pytest.approx(d_ba, rel=1e-12)

    def test_triangle_inequality_shared_directions(self):
        """With shared projections the RMS construction obeys the triangle
        inequality up to rounding; spot-check on three mixture draws."""
        rng = np.random.default_rng(13)
        sets = []
        for k in range(3):
            g = GaussianMixture(
                [0.5, 0.5], rng.uniform(-1, 1, size=(2, 2)), 0.2 + 0.1 * k
            )
            sets.append(g.sample(rng, 256))
        a, b, c = sets
        d = lambda u, v: sliced_w2(u, v, rng=np.random.default_rng(99))
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12

    def test_rotation_invariance_in_distribution(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20_000, 2))
        b = rng.standard_normal((20_000, 2))
        theta = 0.9
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        base = sliced_w2(a, b, rng=np.random.default_rng(2))
        rotated = sliced_w2(a @ rot.T, b @ rot.T, rng=np.random.default_rng(3))
        assert rotated == pytest.approx(base, rel=0.10)

    def test_noise_floor_is_positive(self, toy_prior):
        rng = np.random.default_rng(19)
        floor = sliced_w2(
            toy_prior.sample(rng, 5000),
            toy_prior.sample(rng, 5000),
            rng=np.random.default_rng(4),
        )
        assert floor > 0

    def test_deterministic_given_rng(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((128, 2))
        b = rng.standard_normal((128, 2))
        v1 = sliced_w2(a, b, rng=np.random.default_rng(5))
        v2 = sliced_w2(a, b, rng=np.random.default_rng(5))
        assert v1 == v2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliced_w2(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            sliced_w2(np.zeros((4, 2)), np.zeros((5, 2)))


class TestEmpiricalMoments:
    def test_constant_set(self):
        x = np.tile([2.0, -3.0], (10, 1))
        mean, cov = empirical_moments(x)
        np.testing.assert_array_equal(mean, [2.0, -3.0])
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    def test_standard_normal_mean_bound(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((100_000, 3))
        mean, _ = empirical_moments(x)
        assert np.all(np.abs(mean) <= 3 / np.sqrt(100_000))

    def test_matches_two_pass_formula(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((500, 4)) * 3 + 1
        mean, cov = empirical_moments(x)
        # independent two-pass oracle
        m = np.array([col.sum() / len(x) for col in x.T])
        c = np.zeros((4, 4))
        for row in x:
            c += np.outer(row - m, row - m)
        c /= len(x) - 1
        np.testing.assert_allclose(mean, m, atol=1e-12)
        np.testing.assert_allclose(cov, c, atol=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            empirical_moments(np.zeros((1, 2)))


class TestExactW2:
    def test_agrees_with_sorted_pairing_in_1d(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        assert exact_w2(a[:, None], b[:, None]) == pytest.approx(
            wasserstein1d(a, b), rel=1e-10
        )

    def test_sliced_tracks_exact_on_isotropic_shift(self):
        """Isotropic shifted Gaussians: both metrics see roughly the shift."""
        rng = np.random.default_rng(41)
        a = rng.standard_normal((1024, 2))
        b = rng.standard_normal((1024, 2)) + np.array([1.5, 0.0])
        ew = exact_w2(a, b)
        sw = sliced_w2(a, b, rng=np.random.default_rng(6))
        # sliced contracts by the mean projection factor; just demand same scale
        assert 0.3 * ew <= sw <= ew

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_w2(np.zeros((3000, 2)), np.zeros((3000, 2)))


class TestCovarianceLogdet:
    def test_orders_covariances_whose_determinants_underflow(self):
        """N(0, 0.01 I) against N(0, 0.02 I) in 200-D: det is 0 for both."""
        rng = np.random.default_rng(12)
        narrow = 0.1 * rng.standard_normal((1000, 200))
        wide = np.sqrt(0.02) * rng.standard_normal((1000, 200))
        assert np.linalg.det(empirical_moments(narrow)[1]) == 0.0
        assert np.linalg.det(empirical_moments(wide)[1]) == 0.0
        lo, hi = covariance_logdet(narrow), covariance_logdet(wide)
        assert lo < hi
        # log det of the sample covariance is within a few percent of 200 log(var)
        assert lo == pytest.approx(200 * np.log(0.01), rel=0.05)
        assert hi == pytest.approx(200 * np.log(0.02), rel=0.05)

    def test_fewer_samples_than_dimensions_is_singular(self):
        """16 samples in 128-D: slogdet's sign is rounding, not a determinant."""
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((16, 128))
            assert covariance_logdet(x) is None

    def test_constant_samples_are_singular(self):
        assert covariance_logdet(np.ones((10, 3))) is None


class TestMetricReport:
    def test_shape(self):
        rep = metric_report("sliced_w2", 0.125, 5000, 5000, 128, 42)
        assert rep == {
            "metric": "sliced_w2",
            "value": 0.125,
            "n_a": 5000,
            "n_b": 5000,
            "n_projections": 128,
            "seed": 42,
        }
