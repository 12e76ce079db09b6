"""Velocity fields, Euler sampling, couplings and conditional flow-matching.

The two field implementations share one interface: ``eval(x, t)`` returns
the drift at scalar time t for a single point ``(d,)`` or a batch
``(n, d)``.  Training regresses the network onto the straight-line residual
x1 - x0 at uniformly random times; the trainer is deterministic given its
seed (fixed draw order, single-threaded reductions).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .gmm import GaussianMixture, analytic_velocity
from .mlp import Mlp, MlpWorkspace

__all__ = [
    "VelocityField",
    "AnalyticGmmField",
    "MlpField",
    "euler_sample",
    "IndependentCoupling",
    "MinibatchOTCoupling",
    "TrainConfig",
    "TrainingDivergedError",
    "train_cfm",
    "standard_normal_sampler",
]

# the exact field has a removable singularity at t = 1; evaluation clamps here
_T_CLAMP = 1.0 - 1e-9
# Adam's moment decays and denominator guard, at the usual values
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class VelocityField:
    """Interface: a time-dependent drift on R^d."""

    dim: int

    def eval(self, x, t: float) -> np.ndarray:
        raise NotImplementedError


class AnalyticGmmField(VelocityField):
    """The exact CFM-optimal field for a Gaussian-mixture target.

    Evaluation at t = 1 is defined by continuity as evaluation at
    1 - 1e-9, which is all the samplers ever need.
    """

    def __init__(self, prior: GaussianMixture):
        self.prior = prior
        self.dim = prior.dim

    def eval(self, x, t: float) -> np.ndarray:
        return analytic_velocity(self.prior, x, min(float(t), _T_CLAMP))


class MlpField(VelocityField):
    """A trained network viewed as a velocity field; time is the last input.

    It keeps the ``MlpWorkspace`` of its last batch size, so a solve builds the
    layers' buffers once; ``eval`` returns a copy of the workspace's output.
    """

    def __init__(self, mlp: Mlp):
        if mlp.in_dim != mlp.out_dim + 1:
            raise ValueError(
                f"network maps {mlp.in_dim} -> {mlp.out_dim}; expected d+1 -> d"
            )
        self.mlp = mlp
        self.dim = mlp.out_dim
        self._workspace = None

    def eval(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=self.mlp.dtype)
        tcol = np.full(x.shape[:-1] + (1,), t, dtype=self.mlp.dtype)
        inp = np.concatenate([x, tcol], axis=-1)
        batch = inp.reshape(-1, inp.shape[-1])
        if self._workspace is None or self._workspace.batch_size != len(batch):
            self._workspace = MlpWorkspace(self.mlp, len(batch))
        return self._workspace.forward(batch).reshape(x.shape).copy()


def euler_sample(field: VelocityField, x0, n_steps: int):
    """Integrate dx/dt = v(x, t) from t=0 to t=1 with fixed-step Euler.

    Accepts a single start point ``(d,)`` or a batch ``(n, d)``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.array(x0, dtype=float)
    for k in range(n_steps):
        t = k / n_steps
        dt = (k + 1) / n_steps - t
        x += dt * field.eval(x, t)
    return x


def _as_pair(x0s, x1s):
    """The two batches of a coupling as float arrays, checked to have one shape."""
    x0s = np.asarray(x0s, dtype=float)
    x1s = np.asarray(x1s, dtype=float)
    if x0s.shape != x1s.shape:
        raise ValueError(f"batch shapes differ: {x0s.shape} vs {x1s.shape}")
    return x0s, x1s


class IndependentCoupling:
    """Keep the two independently drawn batches paired as given."""

    def pair(self, x0s, x1s, rng=None):
        return _as_pair(x0s, x1s)


# exact OT: the largest sub-batch solved cold, and the cap on the
# Bellman-Ford sweeps that recover a solved sub-batch's duals
_OT_COLD_SIZE = 64
_OT_DUAL_SWEEPS = 10
# bytes per temporary of a pass over a cost matrix, in whole rows: 128 rows
# at batch 256, 16 at batch 2048, so the temporaries stay small beside it
_OT_BLOCK_BYTES = 256 * 1024


def _row_block(n_cols: int) -> int:
    return max(1, _OT_BLOCK_BYTES // (8 * max(n_cols, 1)))


def _squared_distances(x0s, x1s, out=None) -> np.ndarray:
    """The (n, n) cost |x0_i - x1_j|^2 as (sq0 + sq1) - 2 x0s x1s^T, in one buffer (out)."""
    sq0 = np.sum(x0s * x0s, axis=1)[:, None]
    sq1 = np.sum(x1s * x1s, axis=1)[None, :]
    cost = np.matmul(x0s, x1s.T, out=out)
    step = _row_block(cost.shape[1])
    for lo in range(0, len(cost), step):
        rows = cost[lo : lo + step]
        rows *= 2.0
        np.subtract(sq0[lo : lo + step] + sq1, rows, out=rows)
    return cost


def _c_transform(cost, u) -> np.ndarray:
    """v_j = min_i (cost_ij - u_i)."""
    v = np.full(cost.shape[1], np.inf)
    step = _row_block(cost.shape[1])
    for lo in range(0, len(cost), step):
        rows = cost[lo : lo + step] - u[lo : lo + step, None]
        np.minimum(v, rows.min(axis=0), out=v)
    return v


def _row_duals(cost, perm) -> np.ndarray:
    """Row duals u_i = c_i,perm(i) - v_perm(i) of an optimal assignment.

    The column duals v come from at most _OT_DUAL_SWEEPS Bellman-Ford
    sweeps v_j <- min(v_j, min_i v_perm(i) + c_ij - c_i,perm(i)) from
    v = 0, stopped once v no longer changes.
    """
    matched = cost[np.arange(len(perm)), perm]
    v = np.zeros(len(perm))
    for _ in range(_OT_DUAL_SWEEPS):
        swept = np.minimum(v, _c_transform(cost, matched - v[perm]))
        if np.array_equal(swept, v):
            break
        v = swept
    return matched - v[perm]


def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, without importing ``scipy.optimize``.

    The package's ``__init__`` loads all of scipy's optimizers (about 0.4 s
    and 40 MB per process) to re-export this one function from the compiled
    extension ``scipy.optimize._lsap``.  The extension is loaded on its own
    and registered under its name in ``sys.modules``, so a later
    ``import scipy.optimize`` re-exports the very same function.  A scipy
    whose solver is not such an extension takes the public import.
    """
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        optimize_dir = os.path.join(scipy.__path__[0], "optimize")
        spec = importlib.machinery.PathFinder.find_spec(name, [optimize_dir])
        if spec is None or not isinstance(
            spec.loader, importlib.machinery.ExtensionFileLoader
        ):
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.linear_sum_assignment


class MinibatchOTCoupling:
    """Pair the batch by an exact minimum-cost matching under squared distance.

    Exact assignment replaces the entropically regularized plan: it is
    deterministic and verifiable against brute force at small batch sizes.
    scipy's ``linear_sum_assignment`` solves it, warm-started: the leading
    sub-batch of at most 64 rows and columns is solved cold, then the
    sub-batch doubles up to n, each level starting from the duals of the
    level before, extended to the new columns by the c-transform.  Every
    level builds its cost in the head of one flat n**2 float64 buffer,
    allocated once per call, so the working set is that buffer plus O(n)
    and repeated calls do not grow the heap.  The duals of the level before
    come from the new cost's leading block, which equals that level's cost
    bit for bit.  The cost is then shifted in place, column j by its dual
    v_j, and handed to scipy.  That adds the same constant -sum(v) to the
    cost of every permutation, so the optimal permutations are those of the
    unshifted cost and every level is still solved exactly; the duals only
    shorten scipy's augmenting paths (batch 2048 on one CPU core: about
    1 s, against 3-4 s for one cold call).  The solver is scipy's compiled
    extension alone, loaded on first use without the rest of
    ``scipy.optimize`` (see ``_linear_sum_assignment``).
    """

    def pair(self, x0s, x1s, rng=None):
        x0s, x1s = _as_pair(x0s, x1s)
        return x0s, x1s[self.assignment(x0s, x1s)]

    @staticmethod
    def assignment(x0s, x1s) -> np.ndarray:
        """The optimal permutation: row i of x0s pairs with x1s[perm[i]]."""
        # loaded here so that only exact-OT training loads scipy
        linear_sum_assignment = _linear_sum_assignment()
        sizes = [len(x0s)]
        while sizes[-1] > _OT_COLD_SIZE:
            sizes.append((sizes[-1] + 1) // 2)
        flat = np.empty(len(x0s) ** 2)  # every level's cost is carved from it
        m = 0
        for size in reversed(sizes):
            cost = flat[: size * size].reshape(size, size)
            _squared_distances(x0s[:size], x1s[:size], out=cost)
            if m:  # its leading m x m block is, bit for bit, the last level's cost
                v = _c_transform(cost[:m], _row_duals(cost[:m, :m], cols))
                np.subtract(cost, v, out=cost)
            _, cols = linear_sum_assignment(cost)
            m = size
        return cols


def pairing_cost(x0s, x1s) -> float:
    """Total squared distance of a pairing, row i against row i."""
    diff = np.asarray(x1s, dtype=float) - np.asarray(x0s, dtype=float)
    return float(np.sum(diff * diff))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the CFM trainer."""

    batch_size: int = 2048
    steps: int = 20000
    learning_rate: float = 1e-3
    seed: int = 0
    hidden_sizes: tuple = (256, 256)
    # float32 keeps the full-scale run inside its time budget; checkpoints
    # and returned fields are always float64
    dtype: str = "float32"

    def __post_init__(self):
        if min(self.batch_size, self.steps) < 1:
            raise ValueError("batch_size and steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        sizes = self.hidden_sizes
        if not isinstance(sizes, (tuple, list)) or not all(
            type(n) is int and n >= 1 for n in sizes
        ):
            raise ValueError(f"hidden_sizes must be positive integers, got {sizes!r}")
        object.__setattr__(self, "hidden_sizes", tuple(sizes))
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


def standard_normal_sampler(dim: int):
    """Sampler closure for the standard-normal source on R^dim."""

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, dim))

    return sample


def train_cfm(target_sampler, source_sampler, coupling, cfg: TrainConfig, dim: int = 2):
    """Train the velocity network with Adam on the CFM objective.

    Per step, in this fixed order: draw the target batch, the source batch
    and the times from one generator seeded by ``cfg.seed``, pair the batch
    through ``coupling``, then take one Adam step.  Returns
    ``(MlpField, losses)`` where the field holds float64 parameters and
    losses has one entry per step.

    Raises:
        TrainingDivergedError: the loss became NaN/Inf (step index attached).
    """
    rng = np.random.default_rng(cfg.seed)
    dt = np.dtype(cfg.dtype)
    sizes = [dim + 1, *cfg.hidden_sizes, dim]
    mlp = Mlp.initialize(sizes, rng, dtype=dt)
    ws = MlpWorkspace(mlp, cfg.batch_size)

    params, grads = mlp.params, ws.grads
    m, v, u = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)

    n, d = cfg.batch_size, dim
    inp = np.empty((n, d + 1), dt)
    target = np.empty((n, d), dt)
    losses = np.empty(cfg.steps)

    one = np.float64(1.0)
    # a diverging run overflows inside the network before its loss turns
    # non-finite; the loss check below reports it, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            x1 = target_sampler(rng, n)
            x0 = source_sampler(rng, n)
            ts = rng.random(n)
            x0, x1 = coupling.pair(x0, x1, rng)

            tcol = ts[:, None]
            np.multiply(x0, one - tcol, out=inp[:, :d], casting="unsafe")
            inp[:, :d] += tcol * x1
            inp[:, d] = ts
            np.subtract(x1, x0, out=target, casting="unsafe")

            loss = ws.loss_and_grad(inp, target)
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            losses[step] = loss

            # Adam with bias correction
            b1t = 1.0 - _BETA1 ** (step + 1)
            b2t = 1.0 - _BETA2 ** (step + 1)
            scale = cfg.learning_rate / b1t
            m *= _BETA1
            m += (1.0 - _BETA1) * grads
            v *= _BETA2
            np.multiply(grads, grads, out=u)
            v += (1.0 - _BETA2) * u
            np.sqrt(v, out=u)
            u /= np.sqrt(b2t)
            u += _EPSILON
            np.divide(m, u, out=u)
            u *= scale
            params -= u

    return MlpField(mlp.astype(np.float64)), losses
