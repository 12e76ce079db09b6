"""The three-step posterior-sampling iteration for linear inverse problems.

One iteration at time t = k/N:

  1. destination estimate   x1_hat = x_t + (1 - t) v(x_t, t)
  2. refinement             x1_tilde = mu_t + gamma * kappa_t, where mu_t
     solves (nu_t^-2 I + s^-2 H^T H) mu = nu_t^-2 x1_hat + s^-2 H^T y
     (the proximal step of the quadratic data term, scaled by nu_t^2) and
     kappa_t ~ N(0, Sigma_t) with Sigma_t the inverse of that same matrix
  3. time progression       x_{t+dt} = (1 - t - dt) eps + (t + dt) x1_tilde

The schedule runs k = 0..N-1, so the refinement never sees t = 1 and the
final progression lands on t = 1 exactly, returning x1_tilde unchanged.

Step 2 has two public halves, ``refine_mean`` (mu_t) and ``sample_kappa``
(kappa_t), and both work in V's basis, H = W diag(S) V^T being the SVD
factored once per operator.  Multiplied through by s^2, the system there is
diag(a + S^2) with a = s^2 nu_t^-2, and its data term S W^T y is exactly 0
on H's null space however small s is.  So the mean is a scaling, and kappa
is (xi s / sqrt(a + S^2)) V^T for xi ~ N(0, I_d).  Both halves read their
setup from one place, ``_step2_scales``: the check 0 <= t < 1, the SVD,
s / nu_t and r = sqrt(a + S^2) = hypot(s / nu_t, S).  Every operator has
that SVD, so this is the one way step 2 is solved.

The step functions accept a single state ``(d,)`` or a lockstep batch
``(n, d)``.  ``run_batch`` is the one driver and the one place that
composes step 2, drawing kappa only for gamma = 1.  It calls those step
functions on a batch of ``n`` trajectories in lockstep from one stream, and
hands every step's stages to an optional observer.  A non-finite state stops
it at the step and stage where it appears: the stage's FloatingPointError
and any other error of a step come out as a FlowerRunError of that step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flow import VelocityField
from .gmm import LinearGaussianObservation
from .operators import solve_spd  # noqa: F401 - perfbench/tracer.py wraps it by name

__all__ = [
    "FlowerConfig",
    "FlowerRunError",
    "nu",
    "destination_estimate",
    "refine_mean",
    "sample_kappa",
    "time_progress",
    "run_batch",
]


def nu(t: float) -> float:
    """Destination-uncertainty schedule (1-t)/sqrt(t^2 + (1-t)^2).

    Decreases monotonically from 1 at t=0 to 0 at t=1.
    """
    return (1.0 - t) / np.sqrt(t * t + (1.0 - t) ** 2)


@dataclass(frozen=True)
class FlowerConfig:
    """Solver settings; the step size 1/n_steps is always derived."""

    n_steps: int
    gamma: int
    noise_std: float
    seed: int = 0
    n_avg: int = 1

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.gamma not in (0, 1):
            raise ValueError("gamma must be 0 or 1")
        if not self.noise_std > 0:
            raise ValueError("noise_std must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_avg < 1:
            raise ValueError("n_avg must be >= 1")


class FlowerRunError(RuntimeError):
    """A step of the iteration failed; carries the step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step


def _by_columns(ufunc, z: np.ndarray, row: np.ndarray) -> np.ndarray:
    """ufunc(z, row), in place for a contiguous z, for a (d,) row and a 1-D or (n, d) z.

    Applied flat against the tiled row, since a (d,) row broadcast over
    (n, d) takes numpy's row-by-row short-axis path at small d; the
    results, and so the bits, are the same.
    """
    flat = z.reshape(-1)
    ufunc(flat, np.tile(row, flat.size // row.size), out=flat)
    return flat.reshape(z.shape)


def destination_estimate(field: VelocityField, x_t, t: float) -> np.ndarray:
    """Step 1: the flow-consistent destination x_t + (1 - t) v(x_t, t)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"destination estimate requires 0 <= t <= 1, got {t}")
    x_t = np.asarray(x_t, dtype=float)
    if t == 1.0:
        return x_t.copy()
    step = (1.0 - t) * field.eval(x_t, t)
    # summed into step, unless a float32 field's step would round the float64 sum
    return np.add(x_t, step, out=step if step.dtype == x_t.dtype else None)


def _step2_scales(obs: LinearGaussianObservation, t: float):
    """Step 2's setup: H's SVD (W, S, V), s / nu_t and r = hypot(s / nu_t, S)."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"step 2 requires 0 <= t < 1 (nu_t > 0), got {t}")
    w, sv, v = obs.operator.svd
    s_nu = obs.noise_std / nu(t)
    return w, sv, v, s_nu, np.hypot(s_nu, sv)


def refine_mean(x1_hat, obs: LinearGaussianObservation, t: float) -> np.ndarray:
    """Step 2 mean: the proximal point balancing x1_hat against the data.

    Solves (a I + H^T H) mu = a x1_hat + H^T y with a = s^2 nu_t^-2: in V's
    basis mu = (a x1_hat + S W^T y) / r^2 with r = sqrt(a + S^2), for every t
    and the whole batch, scaled by a / r^2 and S / r^2, which cannot overflow.
    """
    w, sv, v, s_nu, r = _step2_scales(obs, t)
    z = _by_columns(np.multiply, np.asarray(x1_hat, dtype=float) @ v, (s_nu / r) ** 2)
    return _by_columns(np.add, z, sv / r / r * (obs.observation @ w)) @ v.T


def sample_kappa(
    obs: LinearGaussianObservation,
    t: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw kappa_t ~ N(0, Sigma_t) in V's basis.

    With Sigma_t = s^2 (a I + H^T H)^-1 = V diag(s^2 / r^2) V^T, a and r as
    in ``refine_mean``, kappa_t = (xi s / r) V^T for xi ~ N(0, I_d): d
    normals per draw, no adjoint and no solve.
    """
    _, _, v, _, r = _step2_scales(obs, t)
    shape = () if size is None else (size,)
    xi = rng.standard_normal(shape + (obs.operator.in_dim,))
    return _by_columns(np.multiply, xi, obs.noise_std / r) @ v.T


def time_progress(x1_tilde, t: float, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Step 3: re-project onto the flow path with fresh source noise.

    Returns (1 - t - dt) eps + (t + dt) x1_tilde; when t + dt is exactly 1
    the noise coefficient is exactly zero and the refinement passes through
    bit-for-bit (the draw is still consumed to keep the stream uniform).
    """
    x1_tilde = np.asarray(x1_tilde, dtype=float)
    s = t + dt
    if not (t >= 0.0 and dt > 0.0 and s <= 1.0):
        raise ValueError(f"progression needs 0 <= t, dt > 0 and t + dt <= 1, got {t}, {dt}")
    eps = rng.standard_normal(x1_tilde.shape)
    eps *= 1.0 - s
    return np.add(eps, s * x1_tilde, out=eps)


def _require_finite(arr: np.ndarray, stage: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite {stage} output")
    return arr


def run_batch(
    field: VelocityField,
    obs: LinearGaussianObservation,
    cfg: FlowerConfig,
    n_runs: int,
    rng: np.random.Generator | None = None,
    observe=None,
) -> np.ndarray:
    """n_runs lockstep trajectories from fresh source noise to posterior draws.

    Rows share the operator's factorization and draw from one stream (by
    default ``default_rng(cfg.seed)``: x0, then per step the d normals of
    the kappa draw when gamma = 1 and the progression noise), so the output
    is deterministic given (cfg.seed, n_runs).  The solver assumes
    cfg.noise_std, whatever the observation's.  Each step k at t = k/N calls
    the public step functions once each: ``destination_estimate``,
    ``refine_mean``, ``sample_kappa`` (gamma = 1 only) and ``time_progress``.
    Returns x1 of shape (n_runs, d).

    ``observe(k, t, x_t, x1_hat, mu, x1_tilde)``, if given, is called once
    per step k after its finiteness checks, with the live batch arrays of
    that step: it must copy whatever it keeps.  An error it raises
    propagates as itself.

    Raises:
        FlowerRunError: a step failed or produced a non-finite state; its
            cause is the step's error, a FloatingPointError naming the
            stage for a non-finite one.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if cfg.noise_std != obs.noise_std:
        obs = replace(obs, noise_std=cfg.noise_std)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n_runs, obs.operator.in_dim))
    for k in range(cfg.n_steps):
        t = k / cfg.n_steps
        dt = (k + 1) / cfg.n_steps - t
        x_t = x
        try:
            x1_hat = _require_finite(destination_estimate(field, x_t, t), "field (x1_hat)")
            mu = refine_mean(x1_hat, obs, t)
            x1_tilde = mu + sample_kappa(obs, t, rng, n_runs) if cfg.gamma == 1 else mu
            _require_finite(x1_tilde, "prox (x1_tilde)")
            x = _require_finite(time_progress(x1_tilde, t, dt, rng), "progression (x_t)")
        except Exception as exc:
            raise FlowerRunError(k, exc) from exc
        if observe is not None:
            observe(k, t, x_t, x1_hat, mu, x1_tilde)
    return x
