"""Linear forward operators with exact adjoints and SPD solves.

Every operator maps R^d -> R^M and codes ``apply`` (Hx) and ``apply_adjoint``
(H^T u) by hand, so ``<Hx, u> == <x, H^T u>`` holds to rounding for all
variants; ``gram_apply`` (H^T H x) composes the two.  All actions accept a
single vector ``(d,)`` or a row-wise batch ``(n, d)``.  A single measurement
row h^T is the one-row ``DenseOperator([h])``.

Every Gaussian solve in H reads one factorization, ``svd``: H = W diag(S) V^T
from ``dense_matrix``, once per operator, so the proximal system
(a I + H^T H) z = r is the diagonal a + S^2 in V's basis.  Every operator
has a dense matrix: by default it is built column by column from ``apply``.

Operators are immutable after construction and safe to share across
threads; every action is a pure function of its inputs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "MaskOperator",
    "Circulant1DOperator",
    "ScaledIdentityOperator",
    "SpdSolveError",
    "as_vector",
    "solve_spd",
]

def as_vector(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {dim}")
    return arr


def _check_last_dim(x, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[-1] != dim:
        raise ValueError(
            f"{name} has trailing dimension {arr.shape[-1]}, expected {dim}"
        )
    return arr


def _rank_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, S, V), read-only, with a = W diag(S) V^T for an (m, d) matrix a.

    S (d,) descends, V is square and W (m, d) is 0 past column min(m, d).  A
    singular value at or below max(S) max(m, d) eps (numpy's matrix_rank
    rule) is exactly 0, so a's null space is where S is 0.
    """
    m, d = a.shape
    w, sv, vt = np.linalg.svd(a, full_matrices=m < d)
    sv[sv <= sv.max(initial=0.0) * max(m, d) * np.finfo(float).eps] = 0.0
    factors = np.pad(w, ((0, 0), (0, d - sv.size))), np.pad(sv, (0, d - sv.size)), vt.T
    for arr in factors:
        arr.flags.writeable = False
    return factors


class LinearOperator:
    """Base class: a linear map H: R^in_dim -> R^out_dim with exact adjoint."""

    in_dim: int
    out_dim: int

    def apply(self, x) -> np.ndarray:
        """Return Hx; batched row-wise for 2-D input."""
        x = _check_last_dim(x, self.in_dim, "x")
        return self._apply(x)

    def apply_adjoint(self, u) -> np.ndarray:
        """Return H^T u; batched row-wise for 2-D input."""
        u = _check_last_dim(u, self.out_dim, "u")
        return self._apply_adjoint(u)

    def gram_apply(self, x) -> np.ndarray:
        """Return H^T H x as the adjoint of the forward action."""
        x = _check_last_dim(x, self.in_dim, "x")
        return self._apply_adjoint(self._apply(x))

    def dense_matrix(self) -> np.ndarray:
        """Materialize H as a C-contiguous (out_dim, in_dim) array; column j is H e_j."""
        return np.ascontiguousarray(self.apply(np.eye(self.in_dim)).T)

    def gram_matrix(self) -> np.ndarray:
        """Materialize H^T H as an (in_dim, in_dim) array."""
        a = self.dense_matrix()
        return a.T @ a

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_rank_svd`` of ``dense_matrix``, once."""
        return _rank_svd(self.dense_matrix())

    # subclass hooks, inputs already validated
    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, u):
        raise NotImplementedError


class DenseOperator(LinearOperator):
    """Explicit matrix operator."""

    def __init__(self, matrix):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains NaN or Inf")
        a.flags.writeable = False
        self.matrix = a
        self.out_dim, self.in_dim = a.shape

    def _apply(self, x):
        return x @ self.matrix.T

    def _apply_adjoint(self, u):
        return u @ self.matrix

    def dense_matrix(self):
        return np.array(self.matrix)


class MaskOperator(LinearOperator):
    """Coordinate selection: keeps the listed indices, drops the rest.

    The adjoint zero-fills removed coordinates, and H^T H is the 0/1
    diagonal projector onto the kept set.  An empty kept set is allowed
    and yields the zero operator (no data term).
    """

    def __init__(self, kept, dim: int):
        try:
            kept = list(kept)
        except TypeError:
            raise ValueError(f"kept must be a collection of integers, got {kept!r}") from None
        bad = [k for k in kept if isinstance(k, bool) or not isinstance(k, (int, np.integer))]
        if bad:
            raise ValueError(f"kept indices must be integers, got {bad[0]!r}")
        kept_arr = np.asarray(sorted(set(int(k) for k in kept)), dtype=int)
        if kept_arr.size and (kept_arr[0] < 0 or kept_arr[-1] >= dim):
            raise ValueError(f"kept indices must lie in [0, {dim})")
        self.kept = kept_arr
        self.kept.flags.writeable = False
        self.in_dim = int(dim)
        self.out_dim = int(kept_arr.size)

    def _apply(self, x):
        return x[..., self.kept]

    def _apply_adjoint(self, u):
        out = np.zeros(u.shape[:-1] + (self.in_dim,))
        out[..., self.kept] = u
        return out


class Circulant1DOperator(LinearOperator):
    """Circular convolution with a fixed kernel (periodic boundary).

    Column j of the dense matrix is the kernel cyclically shifted by j, so
    apply and its adjoint are coordinate-wise products in Fourier space.
    """

    def __init__(self, kernel):
        self.kernel = as_vector(kernel, name="kernel")
        self.kernel.flags.writeable = False
        self.in_dim = self.out_dim = self.kernel.shape[0]
        self._spectrum = np.fft.rfft(self.kernel)
        self._spectrum.flags.writeable = False

    def _apply(self, x):
        return np.fft.irfft(np.fft.rfft(x) * self._spectrum, n=self.in_dim)

    def _apply_adjoint(self, u):
        return np.fft.irfft(np.fft.rfft(u) * self._spectrum.conj(), n=self.in_dim)

    def dense_matrix(self):
        d = self.in_dim
        return np.column_stack([np.roll(self.kernel, j) for j in range(d)])


class ScaledIdentityOperator(LinearOperator):
    """c * I on R^d."""

    def __init__(self, scale: float, dim: int):
        if not np.isfinite(scale):
            raise ValueError("scale must be finite")
        self.scale = float(scale)
        self.in_dim = self.out_dim = int(dim)

    def _apply(self, x):
        return self.scale * x

    def _apply_adjoint(self, u):
        return self.scale * u


class SpdSolveError(RuntimeError):
    """CG failed: the residual missed its target, or the matvec is not SPD."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def solve_spd(
    matvec: Callable[[np.ndarray], np.ndarray],
    b,
    rel_tolerance: float = 1e-10,
) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A given by ``matvec``.

    Uses conjugate gradients from a zero start, for systems known only by
    their action, with at most 10*d iterations.  The returned x satisfies
    ``||matvec(x) - b|| <= rel_tolerance * ||b||``.

    Raises:
        ValueError: rel_tolerance is not > 0.
        SpdSolveError: CG did not converge within 10*d iterations, or a
            curvature p.Ap was not a positive finite number (the error
            carries the residual norm at that point).
    """
    if not rel_tolerance > 0:
        raise ValueError("rel_tolerance must be > 0")
    b = as_vector(b, name="b")
    d = b.shape[0]
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(d)
    max_iter = 10 * d
    tol = rel_tolerance * b_norm

    x = np.zeros(d)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for it in range(1, max_iter + 1):
        if np.sqrt(rs) <= tol:
            break
        ap = matvec(p)
        curvature = float(p @ ap)
        if not 0.0 < curvature < np.inf:
            raise SpdSolveError(
                f"CG met curvature p.Ap = {curvature:.3e} at iteration {it}; "
                "the matvec is not symmetric positive definite",
                residual=float(np.sqrt(rs)),
                iterations=it,
            )
        alpha = rs / curvature
        x += alpha * p
        if it % 50 == 0:
            # refresh the true residual; the recurrence drifts over long runs
            r = b - matvec(x)
        else:
            r -= alpha * ap
        rs_new = float(r @ r)
        p *= rs_new / rs
        p += r
        rs = rs_new
    # recompute the true residual: the recurrence drifts over many iterations
    residual = float(np.linalg.norm(matvec(x) - b))
    if not residual <= tol:
        raise SpdSolveError(
            f"CG stalled at residual {residual:.3e} (target {tol:.3e}) "
            f"after {max_iter} iterations",
            residual=residual,
            iterations=max_iter,
        )
    return x

