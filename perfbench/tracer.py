"""Run one flower-lab command with spans recorded around each layer's calls.

    python3 perfbench/tracer.py SPANS.json solve --config ... --seed ...

The arguments after SPANS.json go to `flower_lab.cli.main` unchanged.  Before
calling it, the tracer wraps the public functions the CLI calls into each
layer (config, flower, gmm, metrics, cli output, the trainer), passes
`run_batch` a timing velocity field and a counting operator, and hands the
trainer timing samplers and a checking coupling.  Spans (name, start, end,
parent) stay in memory and are written to SPANS.json when the command ends,
together with the results of the checks made along the way.

After each traced `run_batch` the iteration is replayed through the public
step functions (destination_estimate, refine_mean, sample_kappa,
time_progress), which times those steps and checks that the replay gives the
same samples bit for bit.  Nothing under src/ is edited.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import numpy as np

from flower_lab import cli, flower, mlp
from flower_lab.flow import MinibatchOTCoupling, VelocityField
from flower_lab.operators import LinearOperator


class Tracer:
    """Spans kept in memory as (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return traced


class TimingField(VelocityField):
    def __init__(self, inner, tracer):
        self.dim = inner.dim
        self.eval = tracer.wrap("flow.field_eval", inner.eval)


class CountingOperator(LinearOperator):
    """Delegates every public action of an operator, one span per call."""

    def __init__(self, inner, tracer):
        self.in_dim, self.out_dim = inner.in_dim, inner.out_dim
        for action in ("apply", "apply_adjoint", "gram_apply", "gram_matrix", "dense_matrix"):
            setattr(self, action, tracer.wrap(f"operators.{action}", getattr(inner, action)))


class CheckedCoupling:
    """Times `pair`; for exact OT, checks the result is an improving permutation (A11b)."""

    def __init__(self, inner, tracer, checks):
        self.pair_traced = tracer.wrap("flow.coupling", inner.pair)
        self.check = tracer.wrap("bench.check", self._check)
        self.is_ot = isinstance(inner, MinibatchOTCoupling)
        self.checks = checks

    def pair(self, x0s, x1s, rng=None):
        out0, out1 = self.pair_traced(x0s, x1s, rng)
        if self.is_ot:
            self.check(x0s, x1s, out0, out1)
        return out0, out1

    def _check(self, x0s, x1s, out0, out1):
        x0s, x1s = np.asarray(x0s, dtype=float), np.asarray(x1s, dtype=float)

        def rows_sorted(a):
            return a[np.lexsort(a.T[::-1])]

        def cost(a, b):
            return float(np.sum((b - a) ** 2))

        ok = (
            np.array_equal(out0, x0s)
            and np.array_equal(rows_sorted(out1), rows_sorted(x1s))
            and cost(out0, out1) <= cost(x0s, x1s)
        )
        self.checks["ot_pairs"] += 1
        self.checks["ot_pair_failures"] += int(not ok)


def replay(field, obs, cfg, n_runs, tracer):
    """run_batch's iteration through the public step functions, one span per step."""
    if cfg.noise_std != obs.noise_std:
        obs = dataclasses.replace(obs, noise_std=cfg.noise_std)
    destination = tracer.wrap("flower.destination_estimate", flower.destination_estimate)
    refine_mean = tracer.wrap("flower.refine_mean", flower.refine_mean)
    sample_kappa = tracer.wrap("flower.sample_kappa", flower.sample_kappa)
    time_progress = tracer.wrap("flower.time_progress", flower.time_progress)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n_runs, obs.operator.in_dim))
    for k in range(cfg.n_steps):
        t = k / cfg.n_steps
        dt = (k + 1) / cfg.n_steps - t
        x1_hat = destination(field, x, t)
        x1_tilde = refine_mean(x1_hat, obs, t)
        if cfg.gamma == 1:
            x1_tilde = x1_tilde + sample_kappa(obs, t, rng, size=n_runs)
        x = time_progress(x1_tilde, t, dt, rng)
    return x


def install(tracer, checks):
    """Wrap the layer entry points the CLI calls."""
    wrap = tracer.wrap
    cli.load_config = wrap("config.load_config", cli.load_config)
    cli.posterior_linear_gaussian = wrap("gmm.posterior", cli.posterior_linear_gaussian)
    cli.sliced_w2 = wrap("metrics.sliced_w2", cli.sliced_w2)
    flower.solve_spd = wrap("operators.solve_spd", flower.solve_spd)
    mlp.MlpWorkspace.loss_and_grad = wrap("mlp.loss_and_grad", mlp.MlpWorkspace.loss_and_grad)

    write_samples = wrap("cli.write_samples_csv", cli.write_samples_csv)

    def write_samples_csv(path, samples, cfg, seed):
        write_samples(path, samples, cfg, seed)
        checks["samples_csv_bytes"] += os.path.getsize(path)

    cli.write_samples_csv = write_samples_csv

    run_batch = wrap("flower.run_batch", cli.run_batch)
    replay_traced = wrap("bench.replay", replay)

    def traced_run_batch(field, obs, cfg, n_runs, rng=None):
        counted = dataclasses.replace(obs, operator=CountingOperator(obs.operator, tracer))
        out = run_batch(TimingField(field, tracer), counted, cfg, n_runs, rng)
        if rng is None:
            replayed = replay_traced(field, obs, cfg, n_runs, tracer)
            checks["replays"] += 1
            checks["replay_mismatches"] += int(not np.array_equal(replayed, out))
        return out

    cli.run_batch = traced_run_batch

    train_cfm = wrap("flow.train_cfm", cli.train_cfm)

    def traced_train_cfm(target_sampler, source_sampler, coupling, cfg, dim=2):
        checks["train_steps"] += cfg.steps
        return train_cfm(
            wrap("flow.train_sample", target_sampler),
            wrap("flow.train_sample", source_sampler),
            CheckedCoupling(coupling, tracer, checks),
            cfg,
            dim=dim,
        )

    cli.train_cfm = traced_train_cfm


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    checks = dict.fromkeys(
        ("ot_pairs", "ot_pair_failures", "replays", "replay_mismatches",
         "train_steps", "samples_csv_bytes"),
        0,
    )
    install(tracer, checks)
    code = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "checks": checks}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
