"""Forward/adjoint/Gram consistency for every operator variant, plus SPD solves."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from flower_lab.operators import (
    Circulant1DOperator,
    DenseOperator,
    MaskOperator,
    ScaledIdentityOperator,
    SpdSolveError,
    _rank_svd,
    solve_spd,
)


def make_variants(rng, d=6):
    """One instance of each operator variant on R^d."""
    return [
        DenseOperator(rng.standard_normal((4, d))),
        DenseOperator([rng.standard_normal(d)]),
        MaskOperator([0, 2, d - 1], dim=d),
        Circulant1DOperator(rng.standard_normal(d)),
        ScaledIdentityOperator(1.7, dim=d),
    ]


class TestApply:
    def test_scaled_identity_passthrough(self):
        op = ScaledIdentityOperator(1.0, dim=2)
        np.testing.assert_array_equal(op.apply([3.0, 4.0]), [3.0, 4.0])

    def test_row_vector_symmetry_cancellation(self):
        op = DenseOperator([[1.5, 1.5]])
        np.testing.assert_array_equal(op.apply([1.0, -1.0]), [0.0])

    def test_mask_selects_kept_indices(self):
        op = MaskOperator({0, 2}, dim=3)
        np.testing.assert_array_equal(op.apply([5.0, 6.0, 7.0]), [5.0, 7.0])

    def test_batch_rows_match_loop(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((5, 6))
        for op in make_variants(rng):
            batch = op.apply(xs)
            rows = np.stack([op.apply(x) for x in xs])
            np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        op = MaskOperator({0}, dim=3)
        with pytest.raises(ValueError):
            op.apply([1.0, 2.0])
        with pytest.raises(ValueError):
            op.apply_adjoint([1.0, 2.0])


class TestAdjoint:
    def test_row_vector_scalar_times_vector(self):
        op = DenseOperator([[1.5, 1.5]])
        np.testing.assert_array_equal(op.apply_adjoint([2.0]), [3.0, 3.0])

    def test_mask_zero_fills(self):
        """Zero-fill adjoint of selection, cross-checked against dense H^T u."""
        op = MaskOperator({0, 2}, dim=3)
        u = np.array([5.0, 7.0])
        np.testing.assert_array_equal(op.apply_adjoint(u), [5.0, 0.0, 7.0])
        np.testing.assert_array_equal(op.apply_adjoint(u), op.dense_matrix().T @ u)

    def test_dense_adjoint_is_transpose(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        op = DenseOperator(a)
        u = rng.standard_normal(4)
        np.testing.assert_allclose(op.apply_adjoint(u), a.T @ u, rtol=1e-14)

    def test_pairing_identity_all_variants(self):
        """<Hx, u> == <x, H^T u> within 1e-10 relative for random vectors."""
        rng = np.random.default_rng(11)
        for op in make_variants(rng):
            for _ in range(20):
                x = rng.standard_normal(op.in_dim)
                u = rng.standard_normal(op.out_dim)
                lhs = float(op.apply(x) @ u)
                rhs = float(x @ op.apply_adjoint(u))
                scale = max(1.0, abs(lhs), abs(rhs))
                assert abs(lhs - rhs) <= 1e-10 * scale, type(op).__name__


class TestGram:
    def test_mask_projector_idempotent(self):
        op = MaskOperator({0}, dim=2)
        np.testing.assert_array_equal(op.gram_apply([2.0, 9.0]), [2.0, 0.0])

    def test_scaled_identity_squares_scale(self):
        op = ScaledIdentityOperator(1.7, dim=3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(op.gram_apply(x), 1.7**2 * x, rtol=1e-15)

    def test_row_vector_matches_dense_gram(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal(5)
        op = DenseOperator([h])
        dense_gram = np.outer(h, h)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(op.gram_apply(x), dense_gram @ x, rtol=1e-13)

    def test_gram_equals_adjoint_of_apply(self):
        rng = np.random.default_rng(17)
        for op in make_variants(rng):
            x = rng.standard_normal(op.in_dim)
            direct = op.gram_apply(x)
            composed = op.apply_adjoint(op.apply(x))
            np.testing.assert_allclose(direct, composed, rtol=1e-12, atol=1e-14)

    def test_gram_matrix_matches_dense(self):
        rng = np.random.default_rng(19)
        for op in make_variants(rng):
            a = op.dense_matrix()
            np.testing.assert_allclose(op.gram_matrix(), a.T @ a, atol=1e-12)


class TestCirculant:
    def test_apply_matches_dense_circulant(self):
        """Structured FFT path agrees with the explicit matrix for d <= 32."""
        rng = np.random.default_rng(23)
        for d in (3, 8, 17, 32):
            op = Circulant1DOperator(rng.standard_normal(d))
            dense = op.dense_matrix()
            # the dense matrix really is circulant: column j is kernel rolled by j
            np.testing.assert_allclose(dense[:, 0], op.kernel, rtol=0)
            x = rng.standard_normal(d)
            np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)
            u = rng.standard_normal(d)
            np.testing.assert_allclose(op.apply_adjoint(u), dense.T @ u, atol=1e-12)


class TestSolveSpd:
    def test_identity_system(self):
        x = solve_spd(lambda v: v, np.array([1.0, 2.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-12)

    def test_diagonal_solve(self):
        diag = np.array([2.0, 4.0])
        x = solve_spd(lambda v: diag * v, np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-12)

    def test_zero_rhs(self):
        x = solve_spd(lambda v: 3.0 * v, np.zeros(4))
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_random_spd_matches_cholesky(self):
        """CG solution agrees with a dense Cholesky oracle to 1e-8."""
        rng = np.random.default_rng(29)
        a = rng.standard_normal((8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        b = rng.standard_normal(8)
        oracle = np.linalg.solve(spd, b)
        x = solve_spd(lambda v: spd @ v, b)
        np.testing.assert_allclose(x, oracle, rtol=1e-8)

    def test_cg_matches_scipy_cholesky(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((12, 12))
        spd = a @ a.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        via_cg = solve_spd(lambda v: spd @ v, b)
        via_chol = cho_solve(cho_factor(spd), b)
        np.testing.assert_allclose(via_cg, via_chol, rtol=1e-8)

    def test_solve_then_matvec_is_identity(self):
        """Round trip within 1e-8 relative on conditioned systems."""
        rng = np.random.default_rng(37)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
            eigs = np.exp(rng.uniform(0, np.log(1e6), size=10))
            spd = (q * eigs) @ q.T
            x_true = rng.standard_normal(10)
            b = spd @ x_true
            x = solve_spd(lambda v: spd @ v, b, rel_tolerance=1e-12)
            assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true) * 10

    def test_nonconvergence_raises_with_residual(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((30, 30))
        spd = a @ a.T + 1e-9 * np.eye(30)
        b = rng.standard_normal(30)
        # no float64 residual meets 1e-30, so CG runs out its 10*d iterations
        with pytest.raises(SpdSolveError, match="stalled") as err:
            solve_spd(lambda v: spd @ v, b, rel_tolerance=1e-30)
        assert err.value.residual > 0 and err.value.iterations == 300
        # a non-symmetric matrix is outside CG's contract: it must not pass as solved
        with pytest.raises(SpdSolveError):
            solve_spd(lambda v: a @ v, b)

    @pytest.mark.parametrize("value", [np.nan, 0.0])
    def test_broken_matvec_raises(self, value):
        """A NaN (which compares False with the tolerance) or zero curvature p.Ap is no solve."""
        with pytest.raises(SpdSolveError, match="curvature"):
            solve_spd(lambda v: np.full_like(v, value), np.ones(4))

    def test_options_validation(self):
        for tolerance in (0.0, -1e-10, np.nan):
            with pytest.raises(ValueError, match="rel_tolerance"):
                solve_spd(lambda v: v, np.ones(2), rel_tolerance=tolerance)


class TestConstruction:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Circulant1DOperator([1.0, np.nan])
        with pytest.raises(ValueError):
            DenseOperator([[np.inf, 0.0]])

    def test_non_finite_matrix_is_not_factored(self):
        """LAPACK's SVD of this 3 x 8 matrix with a row of inf never returns."""
        a = np.ones((3, 8))
        a[0] = np.inf
        with pytest.raises(FloatingPointError, match="not finite"):
            _rank_svd(a)

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            MaskOperator({3}, dim=3)

    @pytest.mark.parametrize("kept", [[0, 2.7], [0, 2.0], [True, 2], [np.bool_(True)], 3])
    def test_mask_indices_must_be_integers(self, kept):
        with pytest.raises(ValueError, match="integers"):
            MaskOperator(kept, dim=4)

    def test_mask_accepts_numpy_integers_and_ranges(self):
        for kept in (np.array([0, 2]), [np.int32(0), np.int64(2)], range(0, 4, 2)):
            np.testing.assert_array_equal(MaskOperator(kept, dim=4).kept, [0, 2])

    def test_empty_mask_is_zero_operator(self):
        op = MaskOperator(set(), dim=3)
        assert op.out_dim == 0
        assert op.apply([1.0, 2.0, 3.0]).shape == (0,)
        np.testing.assert_array_equal(op.gram_apply([1.0, 2.0, 3.0]), np.zeros(3))
