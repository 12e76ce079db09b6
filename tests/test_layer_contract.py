"""What a tracing harness relies on: wrapping changes no sample, and its hooks exist.

A tracer times each layer by wrapping an operator's public actions and by
replacing module-level names the CLI calls.  The wrapper here forwards only
the five public actions of an operator, as such a tracer does, so a solve
path that reached past them would show up as a changed sample.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from flower_lab import cli, flower, mlp
from flower_lab.flow import AnalyticGmmField
from flower_lab.flower import FlowerConfig, run_batch
from flower_lab.gmm import GaussianMixture, LinearGaussianObservation
from flower_lab.operators import Circulant1DOperator, LinearOperator, MaskOperator

from conftest import blur_kernel

PUBLIC_ACTIONS = ("apply", "apply_adjoint", "gram_apply", "gram_matrix", "dense_matrix")


class ForwardingOperator(LinearOperator):
    """Forwards the five public actions of an operator, counting the calls."""

    def __init__(self, inner):
        self.in_dim, self.out_dim = inner.in_dim, inner.out_dim
        self.calls = Counter()
        for action in PUBLIC_ACTIONS:
            setattr(self, action, self._counted(action, getattr(inner, action)))

    def _counted(self, action, fn):
        def forward(*args, **kwargs):
            self.calls[action] += 1
            return fn(*args, **kwargs)

        return forward


def circulant(d):
    return Circulant1DOperator(blur_kernel(d))


def every_third(d):
    return MaskOperator(range(0, d, 3), d)


@pytest.mark.parametrize("make_operator", [circulant, every_third])
def test_wrapped_operator_gives_byte_identical_samples(make_operator):
    d = 128
    rng = np.random.default_rng(17)
    prior = GaussianMixture([0.5, 0.5], 0.5 * rng.standard_normal((2, d)), 0.15**2)
    op = make_operator(d)
    y = op.apply(prior.sample(rng, 1)[0]) + 0.05 * rng.standard_normal(op.out_dim)
    obs = LinearGaussianObservation(op, 0.05, y)
    field = AnalyticGmmField(prior)
    cfg = FlowerConfig(n_steps=20, gamma=1, noise_std=0.05, seed=4)
    bare = run_batch(field, obs, cfg, 8)
    wrapped = ForwardingOperator(op)
    traced = run_batch(field, replace(obs, operator=wrapped), cfg, 8)
    assert traced.tobytes() == bare.tobytes()
    # one factorization for the whole run, no Gram action per step
    assert wrapped.calls["gram_matrix"] == 1
    assert wrapped.calls["gram_apply"] == 0


@pytest.mark.parametrize(
    "owner, name",
    [
        (flower, "solve_spd"),
        (cli, "run_batch"),
        (cli, "train_cfm"),
        (cli, "load_config"),
        (cli, "posterior_linear_gaussian"),
        (cli, "sliced_w2"),
        (cli, "write_samples_csv"),
        (mlp.MlpWorkspace, "loss_and_grad"),
    ],
)
def test_traced_entry_points_exist(owner, name):
    assert callable(getattr(owner, name))
