"""Command-line harness: train, solve, posterior-exact, sample-prior, invariants.

Output contracts, fixed for regression testing:
  * CSVs use 17-significant-digit floats with a decimal point and LF line
    endings; the first two lines are comments embedding the config hash
    and the seed.
  * solve writes into the target directory atomically: files land in a
    scratch subdirectory and move into place only after everything
    succeeded, metrics last.
  * exit codes: 0 success, 1 invariant failure, 2 config error,
    3 numerical failure.

solve draws every sample in one lockstep batch; with record_trajectory the
first n_trajectories rows of that batch (raw runs, before n_avg averaging)
are written out stage by stage.  Everything but the solver draws from a
SeedSequence child k of the seed, so no stream is shared with the solver:
k = 1 the exact posterior samples (solve and posterior-exact write the same
file), 2 the sliced-W2 projections, 3 the unconditional baseline, 5
sample-prior; 4 is reserved.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .flow import (
    AnalyticGmmField,
    MlpField,
    TrainingDivergedError,
    euler_sample,
    standard_normal_sampler,
    train_cfm,
)
from .flower import FlowerRunError, run_batch
from .gmm import posterior_linear_gaussian
from .invariants import run_all
from .metrics import covariance_logdet, empirical_moments, metric_report, sliced_w2
from .mlp import load_checkpoint, save_checkpoint
from .operators import SpdSolveError

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TRAJECTORY_STAGES = ("xt", "xhat1", "mu", "xtilde1")


def fmt_float(x: float) -> str:
    """17 significant digits, always with a decimal point or exponent."""
    s = f"{float(x):.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _open_lf(path):
    return open(path, "w", newline="\n")


def _header_lines(fh, cfg: ExperimentConfig, seed: int):
    fh.write(f"# config_sha256={cfg.sha256}\n")
    fh.write(f"# seed={seed}\n")


def write_samples_csv(path, samples, cfg, seed):
    samples = np.atleast_2d(samples)
    with _open_lf(path) as fh:
        _header_lines(fh, cfg, seed)
        dims = ",".join(f"dim_{j}" for j in range(samples.shape[1]))
        fh.write(f"run_id,{dims}\n")
        # Python floats: formatting numpy scalars one by one is about 1.5x slower
        for i, row in enumerate(samples.tolist()):
            fh.write(f"{i}," + ",".join(fmt_float(v) for v in row) + "\n")


def write_trajectory_csv(path, record, row, cfg, seed):
    """The stages of trajectory `row` of a TrajectoryRecord, step by step."""
    with _open_lf(path) as fh:
        _header_lines(fh, cfg, seed)
        d = record.x_t.shape[2]
        dims = ",".join(f"dim_{j}" for j in range(d))
        fh.write(f"step,t,stage,{dims}\n")
        stage_arrays = (record.x_t, record.x1_hat, record.mu, record.x1_tilde)
        for k in range(len(record)):
            t_str = fmt_float(record.t[k])
            for stage, arr in zip(TRAJECTORY_STAGES, stage_arrays):
                vals = ",".join(fmt_float(v) for v in arr[k, row])
                fh.write(f"{k},{t_str},{stage},{vals}\n")


def write_loss_csv(path, losses, cfg, seed):
    with _open_lf(path) as fh:
        _header_lines(fh, cfg, seed)
        fh.write("step,loss\n")
        for i, v in enumerate(losses):
            fh.write(f"{i},{fmt_float(v)}\n")


def _say(args, message):
    if not args.quiet:
        print(message)


def _train_into(cfg: ExperimentConfig, train_cfg, directory: Path):
    """Train the configured field; write checkpoint.flw and loss.csv into directory."""
    field, losses = train_cfm(
        cfg.prior.sample,
        standard_normal_sampler(cfg.prior.dim),
        cfg.coupling(),
        train_cfg,
        dim=cfg.prior.dim,
    )
    save_checkpoint(field.mlp, directory / "checkpoint.flw", extra={"config_sha256": cfg.sha256})
    write_loss_csv(directory / "loss.csv", losses, cfg, train_cfg.seed)
    return field, losses


def _load_field(cfg: ExperimentConfig, workdir: Path):
    """Materialize the velocity field named by the config."""
    if cfg.field_kind == "analytic":
        return AnalyticGmmField(cfg.prior)
    if cfg.field_kind == "mlp":
        try:
            field = MlpField(load_checkpoint(cfg.checkpoint)[0])
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{cfg.path}: [field] unusable checkpoint: {exc}") from exc
        if field.dim != cfg.prior.dim:
            raise ConfigError(
                f"{cfg.path}: [field] checkpoint holds a field on R^{field.dim}, "
                f"but the prior lives on R^{cfg.prior.dim}"
            )
        return field
    # field_kind == "train": train in-process, persist next to the samples
    return _train_into(cfg, cfg.train, workdir)[0]


@contextlib.contextmanager
def _output_dir(directory: Path):
    """Create directory; on leaving, remove it if this run created it and left it empty."""
    created = not directory.exists()
    directory.mkdir(parents=True, exist_ok=True)
    try:
        yield
    finally:
        if created and not any(directory.iterdir()):  # empty: the run failed
            directory.rmdir()


def cmd_train(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    if cfg.train is None:
        raise ConfigError(f"{cfg.path}: train requires a [train] section")
    train_cfg = cfg.train
    _say(args, f"training {train_cfg.steps} steps (batch {train_cfg.batch_size}) ...")
    with _output_dir(cfg.output_dir):
        _, losses = _train_into(cfg, train_cfg, cfg.output_dir)
    _say(args, f"wrote {cfg.output_dir / 'checkpoint.flw'} (final loss {losses[-1]:.6f})")
    return EXIT_OK


def _baseline_rng(seed: int, k: int) -> np.random.Generator:
    """Stream k: a SeedSequence child of seed, apart from the solver's default_rng(seed)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def cmd_solve(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    solver = cfg.solver
    obs = cfg.observation
    with _output_dir(cfg.output_dir), tempfile.TemporaryDirectory(
        prefix=".solve-", dir=cfg.output_dir, ignore_cleanup_errors=True
    ) as tmp:
        scratch = Path(tmp)
        field = _load_field(cfg, scratch)
        _say(
            args,
            f"flower: N={solver.n_steps} gamma={solver.gamma} "
            f"n_samples={cfg.n_samples} n_avg={solver.n_avg}",
        )
        raw = run_batch(field, obs, solver, cfg.n_samples * solver.n_avg)
        if solver.n_trajectories:
            raw, record = raw
            for i in range(solver.n_trajectories):
                write_trajectory_csv(
                    scratch / f"trajectory_run_{i:03d}.csv", record, i, cfg, solver.seed
                )
        if solver.n_avg > 1:
            samples = raw.reshape(cfg.n_samples, solver.n_avg, -1).mean(axis=1)
        else:
            samples = raw
        write_samples_csv(scratch / "flower_samples.csv", samples, cfg, solver.seed)

        reports = []
        extras = {}
        mean, cov = empirical_moments(samples)
        extras["moments"] = {
            "mean": [float(v) for v in mean],
            "covariance": [[float(v) for v in row] for row in cov],
        }
        if obs.operator.out_dim > 0:
            resid = obs.operator.apply(samples) - obs.observation
            extras["residual_linf"] = float(np.max(np.abs(resid)))

        if cfg.baseline_exact_posterior:
            post = posterior_linear_gaussian(cfg.prior, obs)
            rng = _baseline_rng(solver.seed, 1)
            exact = post.sample(rng, cfg.n_samples)
            write_samples_csv(scratch / "exact_posterior_samples.csv", exact, cfg, solver.seed)
            # both distances project on the same directions, from stream 2
            dist = sliced_w2(samples, exact, rng=_baseline_rng(solver.seed, 2))
            floor = sliced_w2(
                post.sample(rng, cfg.n_samples),
                post.sample(rng, cfg.n_samples),
                rng=_baseline_rng(solver.seed, 2),
            )
            reports.append(
                metric_report(
                    "sliced_w2_flower_vs_exact_posterior", dist,
                    cfg.n_samples, cfg.n_samples, 128, solver.seed,
                )
            )
            reports.append(
                metric_report(
                    "sliced_w2_noise_floor", floor,
                    cfg.n_samples, cfg.n_samples, 128, solver.seed,
                )
            )
            logdet_flower = covariance_logdet(samples)
            logdet_exact = covariance_logdet(exact)
            singular = logdet_flower is None or logdet_exact is None
            extras["covariance_log_determinant"] = {
                "flower": logdet_flower,
                "exact_posterior": logdet_exact,
                "tail_shrinkage": None if singular else logdet_flower < logdet_exact,
            }
        if cfg.baseline_unconditional:
            rng = _baseline_rng(solver.seed, 3)
            uncond = euler_sample(
                field, rng.standard_normal((cfg.n_samples, cfg.prior.dim)),
                solver.n_steps,
            )
            write_samples_csv(scratch / "unconditional_samples.csv", uncond, cfg, solver.seed)

        metrics_doc = {
            "config_sha256": cfg.sha256,
            "seed": solver.seed,
            "n_samples": cfg.n_samples,
            "n_avg": solver.n_avg,
            "gamma": solver.gamma,
            "n_steps": solver.n_steps,
            "reports": reports,
            **extras,
        }
        with _open_lf(scratch / "metrics.json") as fh:
            json.dump(metrics_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

        # everything succeeded: move into place, metrics.json last
        names = sorted(p.name for p in scratch.iterdir())
        names.remove("metrics.json")
        for name in names + ["metrics.json"]:
            os.replace(scratch / name, cfg.output_dir / name)
    _say(args, f"wrote {cfg.output_dir}/flower_samples.csv and metrics.json")
    return EXIT_OK


def cmd_posterior_exact(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    post = posterior_linear_gaussian(cfg.prior, cfg.observation)
    samples = post.sample(_baseline_rng(cfg.solver.seed, 1), cfg.n_samples)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "exact_posterior_samples.csv"
    write_samples_csv(out, samples, cfg, cfg.solver.seed)
    _say(args, f"wrote {out}")
    return EXIT_OK


def cmd_sample_prior(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    samples = cfg.prior.sample(_baseline_rng(cfg.solver.seed, 5), cfg.n_samples)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "prior_samples.csv"
    write_samples_csv(out, samples, cfg, cfg.solver.seed)
    _say(args, f"wrote {out}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    results = run_all(seed=0 if args.seed is None else int(args.seed))
    width = max(len(r.name) for r in results)
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not args.quiet or not r.passed:
            print(f"{r.name:<{width}}  value={r.value:<12.4g} bound={r.bound:<10.4g} {status}")
        if not r.passed:
            failures.append(r.name)
    if failures:
        print(f"{len(failures)} invariant(s) failed: {', '.join(failures)}")
        return EXIT_INVARIANT
    if not args.quiet:
        print(f"all {len(results)} invariants passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flower-lab",
        description="Flow-matching posterior-sampling laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config file")
            p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)
        return p

    add("train", cmd_train)
    add("solve", cmd_solve)
    add("posterior-exact", cmd_posterior_exact)
    add("sample-prior", cmd_sample_prior)
    add("invariants", cmd_invariants, needs_config=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpdSolveError, TrainingDivergedError, FlowerRunError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
