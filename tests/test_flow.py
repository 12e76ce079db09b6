"""Velocity fields, Euler integration, couplings and the CFM trainer."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from flower_lab.mlp import Mlp, MlpWorkspace, load_checkpoint, save_checkpoint

from oracles import (
    adam_trained_mlp,
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
        """Every level boundary: up to 64 is solved cold, 65 starts from 33."""
        rng = np.random.default_rng(20 + d)
        for n in (1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 513, 1000, 2048):
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
        """Also the contract that lets each warm-start level rebuild the last one's cost.

        n = 1000 runs in 32-row blocks with an 8-row tail; one d covers it.
        """
        rng = np.random.default_rng(40 + d)
        for n in (1, 127, 128, 300) + ((1000,) if d == 2 else ()):
            x0 = rng.standard_normal((n, d))
            x1 = rng.standard_normal((n, d))
            np.testing.assert_array_equal(
                _squared_distances(x0, x1, np.sum(x0 * x0, axis=1), np.sum(x1 * x1, axis=1)),
                squared_distance_matrix(x0, x1),
            )

    def test_batch_size_mismatch(self):
        for coupling in (IndependentCoupling(), MinibatchOTCoupling()):
            with pytest.raises(ValueError, match=r"batch shapes differ: \(3, 2\) vs \(4, 2\)"):
                coupling.pair(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_assignment_holds_one_cost_buffer_at_a_time(self):
        """Peak traced allocation at n = 1024: the n x n float64 cost plus at most 1 MiB."""
        n = 1024
        rng = np.random.default_rng(43)
        x0 = rng.standard_normal((n, 2))
        x1 = rng.standard_normal((n, 2))
        MinibatchOTCoupling.assignment(x0[:8], x1[:8])  # loads the solver untraced
        tracemalloc.start()
        try:
            MinibatchOTCoupling.assignment(x0, x1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 2**20

    @pytest.mark.skipif(
        not os.path.isfile("/proc/self/status")
        or "VmHWM:" not in Path("/proc/self/status").read_text(),
        reason="no VmHWM in /proc/self/status",
    )
    def test_repeated_assignments_keep_the_process_peak(self):
        """A second call at n = 2048 raises a fresh process's VmHWM by at most 2 MiB.

        VmHWM is the child's own high-water mark, where ru_maxrss would start
        from the spawning test process's.
        """
        script = """
import numpy as np
from flower_lab.flow import MinibatchOTCoupling
rng = np.random.default_rng(2)
x0, x1 = rng.standard_normal((2, 2048, 2))
peaks = []
for _ in range(2):
    MinibatchOTCoupling.assignment(x0, x1)
    with open("/proc/self/status") as status:
        peaks += [int(ln.split()[1]) for ln in status if ln.startswith("VmHWM:")]
print(peaks)
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        first_kib, second_kib = ast.literal_eval(done.stdout.splitlines()[-1])
        assert second_kib - first_kib <= 2048


def mlp_of(*layers):
    """The network of its layers W0, b0, W1, b1, ..., concatenated in checkpoint order."""
    sizes = [len(layers[0])] + [len(b) for b in layers[1::2]]
    return Mlp(np.concatenate([np.ravel(a) for a in layers]), sizes)


class TestCfmLoss:
    def test_exact_residual_single_pair_gives_zero(self):
        """A constant network equal to x1 - x0 nails a single pair."""
        x0 = np.array([[0.5, -1.0]])
        x1 = np.array([[1.0, 2.0]])
        residual = (x1 - x0)[0]
        mlp = mlp_of(np.zeros((3, 8)), np.zeros(8), np.zeros((8, 2)), residual)
        loss, _ = cfm_loss(mlp, x0, x1, [0.3])
        assert loss == pytest.approx(0.0, abs=1e-30)

    def test_zero_network_zero_target(self):
        mlp = mlp_of(np.zeros((3, 8)), np.zeros(8), np.zeros((8, 2)), np.zeros(2))
        x = np.array([[0.7, 0.7]])
        loss, grads = cfm_loss(mlp, x, x, [0.5])
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

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
                fd_flat.append((up - down) / (2 * h))
                an_flat.append(g[idx])
        fd = np.array(fd_flat)
        an = np.array(an_flat)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) <= 1e-4

    def test_rejects_times_outside_unit_interval(self):
        mlp = mlp_of(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            cfm_loss(mlp, np.zeros((1, 2)), np.zeros((1, 2)), [1.5])


class TestMlp:
    def test_layers_are_views_of_the_parameter_vector(self):
        mlp = Mlp.initialize([3, 8, 8, 2], np.random.default_rng(53), dtype=np.float32)
        assert [a.shape for a in mlp.layers] == [(4, 8), (9, 8), (9, 2)]
        assert mlp.params.dtype == np.float32
        np.testing.assert_array_equal(mlp.params, np.concatenate([a.ravel() for a in mlp.layers]))
        assert all(np.shares_memory(a, mlp.params) for a in mlp.layers)
        ws = MlpWorkspace(mlp, 4)
        assert ws.grads.shape == mlp.params.shape
        assert [g.shape for g in ws.grad_layers] == [a.shape for a in mlp.layers]
        assert all(np.shares_memory(g, ws.grads) for g in ws.grad_layers)

    def test_network_is_its_vector_and_takes_its_dtype(self):
        vec = np.random.default_rng(59).standard_normal(26).astype(np.float32)
        mlp = Mlp(vec, [3, 4, 2])
        assert mlp.params is vec and mlp.dtype == np.float32
        assert (mlp.in_dim, mlp.out_dim, mlp.layer_sizes) == (3, 2, [3, 4, 2])
        copy = mlp.astype(np.float64)
        assert copy.dtype == np.float64 and copy.layer_sizes == [3, 4, 2]
        assert not np.shares_memory(copy.params, vec)
        np.testing.assert_array_equal(copy.params, vec.astype(np.float64))
        strided = Mlp(np.zeros(52)[::2], [3, 4, 2])  # made contiguous, so the layers are views
        assert all(np.shares_memory(a, strided.params) for a in strided.layers)

    def test_forward_is_the_textbook_network_of_the_checkpoint_order(self, tmp_path):
        """The checkpoint's format and meaning: W_i, b_i sliced in order (W0, b0, W1, b1, ...).

        The workspace gives silu(h @ W + b) layer by layer at two batch sizes,
        on two calls each with its buffers filled with NaN in between, so each
        call writes its own ones columns; a save/load round trip gives each
        layer block [W; b] back as those slices.
        """
        sizes = [3, 8, 8, 2]
        rng = np.random.default_rng(61)
        mlp = Mlp.initialize(sizes, rng, dtype=np.float64)
        slices, at = [], 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w = mlp.params[at : at + fan_in * fan_out].reshape(fan_in, fan_out)
            at += fan_in * fan_out
            slices.append((w, mlp.params[at : at + fan_out]))
            at += fan_out
        assert at == len(mlp.params)

        def textbook(h):
            for w, b in slices[:-1]:
                z = h @ w + b
                h = z / (1.0 + np.exp(-z))
            w, b = slices[-1]
            return h @ w + b

        for n in (1, 33):
            ws = MlpWorkspace(mlp, n)
            for _ in range(2):
                inp = rng.standard_normal((n, 3))
                np.testing.assert_allclose(ws.forward(inp), textbook(inp), rtol=0, atol=1e-12)
                for buf in ws.h:
                    buf.fill(np.nan)

        save_checkpoint(mlp, tmp_path / "net.flw")
        loaded, _ = load_checkpoint(tmp_path / "net.flw")
        assert len(loaded.layers) == len(slices)
        for layer, (w, b) in zip(loaded.layers, slices):
            np.testing.assert_array_equal(layer[:-1], w)
            np.testing.assert_array_equal(layer[-1], b)

    @pytest.mark.parametrize(
        "inp",
        [np.zeros((5, 3)), np.zeros((4, 3), np.float32), np.zeros((5, 2), np.float32)],
        ids=["float64", "rows", "columns"],
    )
    def test_forward_refuses_an_input_not_of_its_shape_and_dtype(self, inp):
        mlp = Mlp.initialize([3, 4, 2], np.random.default_rng(67), dtype=np.float32)
        with pytest.raises(ValueError, match=r"expected float32 \(5, 3\)"):
            MlpWorkspace(mlp, 5).forward(inp)

    @pytest.mark.parametrize(
        "params, sizes",
        [
            ([[0.0, 0.0], [0.0]], [3, 4, 2]),
            (np.zeros(25), [3, 4, 2]),
            (np.zeros(27), [3, 4, 2]),
            (np.zeros(26), [3, 5, 2]),
            (np.zeros((26, 1)), [3, 4, 2]),
            (np.zeros(26, dtype=int), [3, 4, 2]),
            (np.r_[np.zeros(25), np.nan], [3, 4, 2]),
            (np.r_[np.inf, np.zeros(25)], [3, 4, 2]),
            (["0.5"] * 26, [3, 4, 2]),
            (np.zeros(26), [3, 4.0, 2]),
            (np.zeros(26), [3, True, 2]),
            (np.zeros(2), [3, 0, 2]),
            (np.zeros(0), [3]),
            (np.zeros(26), "342"),
        ],
        ids=[
            "ragged", "wrong_bias_length", "trailing", "width_mismatch", "not_a_vector",
            "integer_dtype", "nan", "inf", "not_a_number", "fractional_size", "bool_size",
            "zero_size", "one_size", "sizes_not_a_list",
        ],
    )
    def test_malformed_layers_raise_value_error(self, params, sizes):
        """A 3-4-2 network takes 26 parameters; each case breaks one rule."""
        Mlp(np.zeros(26), [3, 4, 2])  # the well-formed network
        with pytest.raises(ValueError):
            Mlp(params, sizes)


class TestMlpField:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        field = MlpField(Mlp.initialize([3, 16, 16, 2], rng))
        xs = rng.standard_normal((6, 2))
        batch = field.eval(xs, 0.4)
        rows = np.stack([field.eval(x, 0.4) for x in xs])
        np.testing.assert_allclose(batch, rows, rtol=1e-14)
        # a single point is row 0 of its one-row batch, bit for bit
        assert rows.shape == (6, 2)
        assert rows[0].tobytes() == field.eval(xs[:1], 0.4)[0].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_the_workspace_pass(self, dtype):
        """Each eval, at a batch size new to the field or not, equals a fresh workspace's."""
        rng = np.random.default_rng(37)
        mlp = Mlp.initialize([3, 32, 32, 2], rng, dtype=dtype)
        field = MlpField(mlp)
        for n in (50, 7, 7, 50):
            xs = rng.standard_normal((n, 2))
            inp = np.concatenate([xs, np.full((n, 1), 0.3)], axis=1).astype(dtype)
            out = MlpWorkspace(mlp, n).forward(inp)
            assert out.dtype == dtype
            assert field.eval(xs, 0.3).tobytes() == out.tobytes()

    def test_eval_returns_a_copy_the_next_call_leaves_alone(self):
        rng = np.random.default_rng(47)
        field = MlpField(Mlp.initialize([3, 16, 16, 2], rng))
        xs = rng.standard_normal((9, 2))
        first = field.eval(xs, 0.2)
        kept = first.copy()
        second = field.eval(xs, 0.7)
        assert first.tobytes() == kept.tobytes()
        assert not np.array_equal(first, second)

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
        assert f1.mlp.params.tobytes() == f2.mlp.params.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_adam_matches_the_per_tensor_oracle(self, toy_prior, dtype):
        cfg = self.small_cfg(steps=5, batch_size=64, dtype=dtype)
        args = (toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg)
        field, _ = train_cfm(*args)
        oracle = adam_trained_mlp(*args)
        assert oracle.dtype == np.dtype(dtype)
        assert field.mlp.params.tobytes() == oracle.astype(np.float64).params.tobytes()

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
