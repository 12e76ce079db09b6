"""Velocity fields, Euler integration, couplings and the CFM trainer."""

import numpy as np
import pytest

from flower_lab.flow import (
    AnalyticGmmField,
    IndependentCoupling,
    MinibatchOTCoupling,
    MlpField,
    TrainConfig,
    TrainingDivergedError,
    _squared_distances,
    euler_sample,
    pairing_cost,
    standard_normal_sampler,
    train_cfm,
)
from flower_lab.gmm import GaussianMixture, conditional_mean_x1
from flower_lab.metrics import sliced_w2
from flower_lab.mlp import Mlp

from oracles import (
    assignment_by_scipy,
    brute_force_min_pairing_cost,
    cfm_loss,
    squared_distance_matrix,
)


class ZeroField:
    dim = 2

    def eval(self, x, t):
        return np.zeros_like(np.asarray(x, dtype=float))


class ConstantField:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.dim = self.c.shape[0]

    def eval(self, x, t):
        return np.broadcast_to(self.c, np.asarray(x).shape).copy()


class TestAnalyticField:
    def test_destination_identity_against_conditional_mean(self, toy_prior):
        """x + (1-t) v(x, t) equals E[X1 | Xt = x] for all tested (x, t)."""
        field = AnalyticGmmField(toy_prior)
        grid = np.linspace(-1, 1, 9)
        xs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        for t in (0.0, 0.3, 0.9, 1.0 - 1e-6):
            lhs = xs + (1 - t) * field.eval(xs, t)
            rhs = conditional_mean_x1(toy_prior, xs, t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_eval_at_t1_is_finite(self, toy_prior):
        field = AnalyticGmmField(toy_prior)
        v = field.eval(np.array([0.3, -0.2]), 1.0)
        assert np.all(np.isfinite(v))


class TestEulerSample:
    def test_zero_field_returns_start(self):
        x1 = euler_sample(ZeroField(), np.array([1.0, -2.0]), n_steps=17)
        np.testing.assert_array_equal(x1, [1.0, -2.0])

    def test_constant_field_translates_exactly(self):
        c = np.array([0.5, -1.5])
        for n in (1, 7, 100):
            x1 = euler_sample(ConstantField(c), np.zeros(2), n_steps=n)
            np.testing.assert_allclose(x1, c, rtol=1e-12)

    def test_single_gaussian_endpoint_matches_closed_form(self):
        """For the standard-normal target the flow is x(t) = x0 sqrt(t^2+(1-t)^2)."""
        prior = GaussianMixture([1.0], [[0.0, 0.0]], 1.0)
        field = AnalyticGmmField(prior)
        x0 = np.array([1.3, -0.4])
        x1 = euler_sample(field, x0, n_steps=1000)
        np.testing.assert_allclose(x1, x0, atol=1e-2)  # endpoint x(1) = x0

    def test_reproduces_prior_distribution(self, toy_prior):
        """Euler with the exact field matches direct prior draws in sliced W2."""
        rng = np.random.default_rng(101)
        n = 10_000
        field = AnalyticGmmField(toy_prior)
        flowed = euler_sample(field, rng.standard_normal((n, 2)), n_steps=1000)
        ref = toy_prior.sample(rng, n)
        floor = sliced_w2(
            toy_prior.sample(rng, n), toy_prior.sample(rng, n),
            rng=np.random.default_rng(7),
        )
        dist = sliced_w2(flowed, ref, rng=np.random.default_rng(7))
        assert dist <= 3 * floor

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            euler_sample(ZeroField(), np.zeros(2), 0)


class TestCouplings:
    def test_singleton_batch(self):
        x0 = np.array([[1.0, 2.0]])
        x1 = np.array([[3.0, 4.0]])
        for coupling in (IndependentCoupling(), MinibatchOTCoupling()):
            a, b = coupling.pair(x0, x1)
            np.testing.assert_array_equal(a, x0)
            np.testing.assert_array_equal(b, x1)

    def test_identical_points_give_zero_cost_identity(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((12, 2))
        perm = MinibatchOTCoupling.assignment(pts, pts)
        np.testing.assert_array_equal(perm, np.arange(12))
        _, paired = MinibatchOTCoupling().pair(pts, pts)
        assert pairing_cost(pts, paired) == pytest.approx(0.0, abs=1e-12)

    def test_assignment_is_permutation(self):
        rng = np.random.default_rng(5)
        perm = MinibatchOTCoupling.assignment(
            rng.standard_normal((40, 3)), rng.standard_normal((40, 3))
        )
        assert sorted(perm) == list(range(40))

    def test_matches_brute_force_on_batches_of_eight(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x0 = rng.standard_normal((8, 2))
            x1 = rng.standard_normal((8, 2))
            _, paired = MinibatchOTCoupling().pair(x0, x1)
            assert pairing_cost(x0, paired) == pytest.approx(
                brute_force_min_pairing_cost(x0, x1), rel=1e-12
            )

    def test_ot_never_beats_by_independent(self):
        rng = np.random.default_rng(11)
        for n in (4, 32, 256):
            x0 = rng.standard_normal((n, 2))
            x1 = rng.standard_normal((n, 2))
            _, paired = MinibatchOTCoupling().pair(x0, x1)
            assert pairing_cost(x0, paired) <= pairing_cost(x0, x1) + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_warm_start_equals_one_cold_scipy_call(self, d):
        """Every level boundary: up to 128 is solved cold, 129 starts from 65."""
        rng = np.random.default_rng(20 + d)
        for n in (1, 2, 127, 128, 129, 255, 256, 257, 513, 1000, 2048):
            x0 = rng.standard_normal((n, d))
            x1 = 0.5 * rng.standard_normal((n, d)) + 0.25
            np.testing.assert_array_equal(
                MinibatchOTCoupling.assignment(x0, x1), assignment_by_scipy(x0, x1)
            )

    @pytest.mark.parametrize("case", ["identical", "x1_rows_equal", "duplicated", "sorted"])
    def test_tie_heavy_batches_get_an_optimal_permutation(self, case):
        rng = np.random.default_rng(29)
        n = 600
        x0 = rng.standard_normal((n, 2))
        x1 = rng.standard_normal((n, 2))
        if case == "identical":
            x1 = x0.copy()
        elif case == "x1_rows_equal":
            x1[:] = x1[0]
        elif case == "duplicated":
            x0 = x0[rng.integers(0, n // 8, n)]
            x1 = x1[rng.integers(0, n // 8, n)]
        else:
            x0 = x0[np.argsort(x0[:, 0])]
            x1 = x1[np.argsort(x1[:, 0])]
        perm = MinibatchOTCoupling.assignment(x0, x1)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        if case == "identical":
            np.testing.assert_array_equal(perm, np.arange(n))
        best = pairing_cost(x0, x1[assignment_by_scipy(x0, x1)])
        assert pairing_cost(x0, x1[perm]) == pytest.approx(best, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    def test_cost_buffer_is_the_broadcast_expression_bitwise(self, d):
        rng = np.random.default_rng(40 + d)
        for n in (1, 127, 128, 300):
            x0 = rng.standard_normal((n, d))
            x1 = rng.standard_normal((n, d))
            np.testing.assert_array_equal(
                _squared_distances(x0, x1), squared_distance_matrix(x0, x1)
            )

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError):
            IndependentCoupling().pair(np.zeros((3, 2)), np.zeros((4, 2)))


class TestCfmLoss:
    def test_exact_residual_single_pair_gives_zero(self):
        """A constant network equal to x1 - x0 nails a single pair."""
        x0 = np.array([[0.5, -1.0]])
        x1 = np.array([[1.0, 2.0]])
        residual = (x1 - x0)[0]
        mlp = Mlp(
            [np.zeros((3, 8)), np.zeros((8, 2))],
            [np.zeros(8), residual.copy()],
        )
        loss, _ = cfm_loss(mlp, x0, x1, [0.3])
        assert loss == pytest.approx(0.0, abs=1e-30)

    def test_zero_network_zero_target(self):
        mlp = Mlp([np.zeros((3, 8)), np.zeros((8, 2))], [np.zeros(8), np.zeros(2)])
        x = np.array([[0.7, 0.7]])
        loss, grads = cfm_loss(mlp, x, x, [0.5])
        assert loss == 0.0
        assert all(np.all(g == 0) for gw, gb in grads for g in (gw, gb))

    def test_gradient_matches_finite_differences(self):
        """Analytic backprop vs central differences on a 2->8->8->2 net."""
        rng = np.random.default_rng(13)
        mlp = Mlp.initialize([3, 8, 8, 2], rng, dtype=np.float64)
        x0 = rng.standard_normal((16, 2))
        x1 = rng.standard_normal((16, 2))
        ts = rng.random(16)
        _, grads = cfm_loss(mlp, x0, x1, ts)

        h = 1e-5
        fd_flat, an_flat = [], []
        params = mlp.weights + mlp.biases
        grad_arrays = [gw for gw, _ in grads] + [gb for _, gb in grads]
        for p, g in zip(params, grad_arrays):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up, _ = cfm_loss(mlp, x0, x1, ts)
                p[idx] = orig - h
                down, _ = cfm_loss(mlp, x0, x1, ts)
                p[idx] = orig
                fd_flat.append((up - down) / (2 * h))
                an_flat.append(g[idx])
        fd = np.array(fd_flat)
        an = np.array(an_flat)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) <= 1e-4

    def test_rejects_times_outside_unit_interval(self):
        mlp = Mlp([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)])
        with pytest.raises(ValueError):
            cfm_loss(mlp, np.zeros((1, 2)), np.zeros((1, 2)), [1.5])


class TestMlpField:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        field = MlpField(Mlp.initialize([3, 16, 16, 2], rng))
        xs = rng.standard_normal((6, 2))
        batch = field.eval(xs, 0.4)
        rows = np.stack([field.eval(x, 0.4) for x in xs])
        np.testing.assert_allclose(batch, rows, rtol=1e-14)

    def test_shape_validation(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError):
            MlpField(Mlp.initialize([3, 8, 3], rng))


class TestTrainCfm:
    def small_cfg(self, **kw):
        defaults = dict(
            batch_size=128, steps=200, hidden_sizes=(32, 32), seed=5, dtype="float64"
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_deterministic_given_seed(self, toy_prior):
        cfg = self.small_cfg(steps=40)
        runs = [
            train_cfm(toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg)
            for _ in range(2)
        ]
        (f1, l1), (f2, l2) = runs
        np.testing.assert_array_equal(l1, l2)
        for w1, w2 in zip(f1.mlp.weights, f2.mlp.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_loss_decreases(self, toy_prior):
        cfg = self.small_cfg(steps=300)
        _, losses = train_cfm(
            toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg
        )
        assert losses.shape == (300,)
        assert losses[-50:].mean() < losses[:20].mean()

    @pytest.mark.parametrize(
        "learning_rate",
        [0.0, -1e-3, float("nan"), float("inf"), 10**400],
        ids=["zero", "negative", "nan", "inf", "int_past_the_double_range"],
    )
    def test_learning_rate_must_be_finite_and_positive(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            self.small_cfg(learning_rate=learning_rate)

    def test_divergence_raises_with_step(self, toy_prior):
        cfg = self.small_cfg(steps=200, learning_rate=1e12, dtype="float32")
        with pytest.raises(TrainingDivergedError) as err:
            train_cfm(
                toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg
            )
        assert 0 <= err.value.step < 200

    def test_returned_field_is_float64(self, toy_prior):
        cfg = self.small_cfg(steps=10, dtype="float32")
        field, _ = train_cfm(
            toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg
        )
        assert field.mlp.dtype == np.float64
