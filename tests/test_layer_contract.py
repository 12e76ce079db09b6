"""What a tracing harness relies on: wrapping changes no sample, and its hooks exist.

A tracer times each layer by wrapping an operator's public actions and by
replacing module-level names the CLI calls.  The wrapper here forwards only
the five public actions of an operator, as such a tracer does, so a solve
path that reached past them would show up as a changed sample.  A tracer
also times the solver's steps by replaying a run through the public step
functions, so the driver must run those same functions, and its stand-in
for ``cli.run_batch`` takes only ``(field, obs, cfg, n_runs, rng=None)``.
The last test runs the benchmark's own tracer, ``perfbench/tracer.py``,
against this checkout.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flower_lab import cli, flower, mlp
from flower_lab.flow import AnalyticGmmField
from flower_lab.flower import (
    FlowerConfig,
    destination_estimate,
    refine_mean,
    run_batch,
    sample_kappa,
    time_progress,
)
from flower_lab.gmm import GaussianMixture, LinearGaussianObservation
from flower_lab.operators import (
    Circulant1DOperator,
    DenseOperator,
    LinearOperator,
    MaskOperator,
)

from conftest import MINI_TOY, blur_kernel

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


def single_row(d):
    """One scalar measurement, as in the toy configs."""
    return DenseOperator([np.full(d, 1.5)])


def problem(make_operator, seed, d=128):
    """A two-mode prior on R^d observed through make_operator(d) at noise 0.05."""
    rng = np.random.default_rng(seed)
    prior = GaussianMixture([0.5, 0.5], 0.5 * rng.standard_normal((2, d)), 0.15**2)
    op = make_operator(d)
    y = op.apply(prior.sample(rng, 1)[0]) + 0.05 * rng.standard_normal(op.out_dim)
    return AnalyticGmmField(prior), LinearGaussianObservation(op, 0.05, y)


@pytest.mark.parametrize("make_operator", [circulant, every_third, single_row])
def test_wrapped_operator_gives_byte_identical_samples(make_operator):
    field, obs = problem(make_operator, 17)
    cfg = FlowerConfig(n_steps=20, gamma=1, noise_std=0.05, seed=4)
    bare = run_batch(field, obs, cfg, 8)
    wrapped = ForwardingOperator(obs.operator)
    traced = run_batch(field, replace(obs, operator=wrapped), cfg, 8)
    assert traced.tobytes() == bare.tobytes()
    # one factorization (the SVD of the forwarded dense matrix) for the whole run,
    # no Gram action per step
    assert wrapped.calls["dense_matrix"] == 1
    assert wrapped.calls["gram_matrix"] == wrapped.calls["gram_apply"] == 0


def replay(field, obs, cfg, n_runs):
    """run_batch's iteration spelled out with the public step functions."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n_runs, obs.operator.in_dim))
    for k in range(cfg.n_steps):
        t = k / cfg.n_steps
        dt = (k + 1) / cfg.n_steps - t
        x1_hat = destination_estimate(field, x, t)
        x1_tilde = refine_mean(x1_hat, obs, t)
        if cfg.gamma == 1:
            x1_tilde = x1_tilde + sample_kappa(obs, t, rng, size=n_runs)
        x = time_progress(x1_tilde, t, dt, rng)
    return x


@pytest.mark.parametrize("make_operator, gamma", [(circulant, 1), (every_third, 0)])
def test_driver_runs_the_public_steps(monkeypatch, make_operator, gamma):
    """run_batch equals a replay through the public steps bit for bit, by calling them."""
    field, obs = problem(make_operator, 23)
    n_runs = 8
    cfg = FlowerConfig(n_steps=20, gamma=gamma, noise_std=0.05, seed=6)
    replayed = replay(field, obs, cfg, n_runs)
    calls = Counter()

    def counted(name, fn):
        def step(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return step

    for name in ("refine_mean", "sample_kappa"):
        monkeypatch.setattr(flower, name, counted(name, getattr(flower, name)))
    assert run_batch(field, obs, cfg, n_runs).tobytes() == replayed.tobytes()
    assert calls == Counter(refine_mean=cfg.n_steps, sample_kappa=gamma * cfg.n_steps)


@pytest.mark.parametrize(
    "owner, name",
    [
        (flower, "solve_spd"),
        (flower, "destination_estimate"),
        (flower, "refine_mean"),
        (flower, "sample_kappa"),
        (flower, "time_progress"),
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


def test_solve_calls_run_batch_as_a_tracer_forwards_it(monkeypatch, tmp_path):
    """A solve that records nothing passes run_batch no argument past rng."""
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_TOY)

    def solve(out):
        return cli.main(["solve", "--config", str(path), "--out", str(tmp_path / out), "--quiet"])

    assert solve("bare") == 0
    inner = cli.run_batch

    def forwarder(field, obs, cfg, n_runs, rng=None):
        return inner(field, obs, cfg, n_runs, rng)

    monkeypatch.setattr(cli, "run_batch", forwarder)
    assert solve("traced") == 0
    bare, traced = (sorted((tmp_path / d).iterdir()) for d in ("bare", "traced"))
    assert [p.name for p in traced] == [p.name for p in bare]
    assert [p.read_bytes() for p in traced] == [p.read_bytes() for p in bare]


def test_benchmark_tracer_runs_on_this_checkout(tmp_path):
    """perfbench's tracer solves a small config, replays it once and matches it bit for bit."""
    root = Path(__file__).resolve().parents[1]
    config = tmp_path / "mini.cfg"
    config.write_text(MINI_TOY)
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans),
         "solve", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    checks = json.loads(spans.read_text())["checks"]
    assert (checks["replays"], checks["replay_mismatches"]) == (1, 0)
