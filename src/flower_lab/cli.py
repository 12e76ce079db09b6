"""Command-line harness: train, solve, posterior-exact, sample-prior, invariants.

Output contracts, fixed for regression testing:
  * CSVs use 17-significant-digit floats with a decimal point and LF line
    endings; the first two lines are comments embedding the config hash
    and the seed.
  * train, solve, posterior-exact and sample-prior write into the target
    directory atomically: files move from a scratch subdirectory into
    place only after everything succeeded, metrics last.  A failed run
    leaves existing directories unchanged and removes the empty ones it made.
  * exit codes: 0 success, 1 invariant failure, 2 config error (an
    unreadable config or checkpoint included), 3 numerical failure of a
    solver step, the trainer, the exact posterior or the metrics (NaN or
    infinity never reaches metrics.json), 4 an OSError while writing output.

solve draws every sample in one lockstep batch; with record_trajectory a
run_batch observer copies the first n_trajectories rows of that batch (raw
runs, before n_avg averaging) at every step, written out stage by stage.
Everything but the solver draws from a SeedSequence child k of the seed, so
no stream is shared with the solver:
k = 1 the exact posterior samples (solve and posterior-exact write the same
file), 2 the sliced-W2 projections, 3 the unconditional baseline, 5
sample-prior; 4 is reserved.
posterior-exact and sample-prior are one draw command: n_samples draws, of the
exact posterior from k = 1 or of the prior from k = 5, into one CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .flow import TrainingDivergedError, euler_sample, standard_normal_sampler, train_cfm
from .flower import FlowerRunError, run_batch
from .gmm import posterior_linear_gaussian
from .invariants import run_all
from .metrics import covariance_logdet, empirical_moments, sliced_w2
from .mlp import save_checkpoint

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4

TRAJECTORY_STAGES = ("xt", "xhat1", "mu", "xtilde1")
# random directions each sliced-W2 distance in metrics.json projects on
SLICED_W2_PROJECTIONS = 128


def fmt_float(x: float) -> str:
    """17 significant digits, always with a decimal point or exponent."""
    s = f"{float(x):.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _write_csv(path, cfg: ExperimentConfig, seed: int, columns, rows):
    """The config hash and seed as comments, the column names, then one line a row.

    Each row is (leading cells, float values); the values go through fmt_float.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_sha256={cfg.sha256}\n# seed={seed}\n")
        fh.write(",".join(columns) + "\n")
        for lead, values in rows:
            fh.write(",".join([*lead, *map(fmt_float, values)]) + "\n")


def _dims(d: int) -> list[str]:
    return [f"dim_{j}" for j in range(d)]


def write_samples_csv(path, samples, cfg, seed):
    samples = np.atleast_2d(samples)
    # Python floats: formatting numpy scalars one by one is about 1.5x slower
    rows = (((str(i),), row) for i, row in enumerate(samples.tolist()))
    _write_csv(path, cfg, seed, ["run_id", *_dims(samples.shape[1])], rows)


def write_trajectory_csv(path, steps, row, cfg, seed):
    """The stages of trajectory `row`, from one (t, x_t, x1_hat, mu, x1_tilde) a step."""
    rows = (
        ((str(k), fmt_float(t), stage), arr[row])
        for k, (t, *stages) in enumerate(steps)
        for stage, arr in zip(TRAJECTORY_STAGES, stages)
    )
    _write_csv(path, cfg, seed, ["step", "t", "stage", *_dims(steps[0][1].shape[1])], rows)


def write_loss_csv(path, losses, cfg, seed):
    rows = (((str(i),), (v,)) for i, v in enumerate(losses))
    _write_csv(path, cfg, seed, ["step", "loss"], rows)


def _say(args, message):
    if not args.quiet:
        print(message)


class _OutputFailure(Exception):
    """An OSError while a command created or wrote its output directory."""


@contextlib.contextmanager
def _staged(directory: Path):
    """Yield a scratch directory inside directory; publish its files only on success.

    On success every file moves into place, metrics.json last, once no target
    is found to be a directory.  On failure the scratch directory goes, and so
    does each directory this run created that is still empty: files another run
    placed there meanwhile stay.  An OSError comes out as an _OutputFailure that
    names directory.
    """
    created = [p for p in [directory, *directory.parents] if not p.exists()]
    scratch = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=".staged-", dir=directory))
        yield scratch
        files = sorted(scratch.iterdir(), key=lambda p: (p.name == "metrics.json", p.name))
        for target in (directory / path.name for path in files):  # before the first move
            if target.is_dir() and not target.is_symlink():  # os.replace replaces a link
                raise IsADirectoryError(f"{target} is a directory")
        for path in files:
            os.replace(path, directory / path.name)
        scratch.rmdir()
    except BaseException as exc:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # innermost first; stop at one that is not empty
            for path in created:
                path.rmdir()
        if isinstance(exc, OSError):
            raise _OutputFailure(f"{directory}: {exc}") from exc
        raise


def _exact_posterior(cfg: ExperimentConfig):
    try:
        return posterior_linear_gaussian(cfg.prior, cfg.observation)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        # a result that is not finite, or an SVD that did not converge; other errors are faults
        raise FloatingPointError(f"exact posterior: {exc}") from exc


def _write_metrics(path: Path, doc: dict):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"metrics: {exc}") from exc
    path.write_text(text + "\n", newline="\n")


def cmd_train(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    if cfg.train is None:
        raise ConfigError(f"{cfg.path}: train requires a [train] section")
    _say(args, f"training {cfg.train.steps} steps (batch {cfg.train.batch_size}) ...")
    with _staged(cfg.output_dir) as scratch:
        field, losses = train_cfm(
            cfg.prior.sample,
            standard_normal_sampler(cfg.prior.dim),
            cfg.coupling,
            cfg.train,
            dim=cfg.prior.dim,
        )
        save_checkpoint(field.mlp, scratch / "checkpoint.flw", extra={"config_sha256": cfg.sha256})
        write_loss_csv(scratch / "loss.csv", losses, cfg, cfg.train.seed)
    _say(args, f"wrote {cfg.output_dir / 'checkpoint.flw'} (final loss {losses[-1]:.6f})")
    return EXIT_OK


def _baseline_rng(seed: int, k: int) -> np.random.Generator:
    """Stream k: a SeedSequence child of seed, apart from the solver's default_rng(seed)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def cmd_solve(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    solver = cfg.solver
    obs = cfg.observation
    field = cfg.field
    n = cfg.n_samples
    with _staged(cfg.output_dir) as scratch:
        _say(
            args,
            f"flower: N={solver.n_steps} gamma={solver.gamma} "
            f"n_samples={n} n_avg={solver.n_avg}",
        )
        n_rec, steps = cfg.n_trajectories, []

        def record(k, t, *stages):  # copies: run_batch passes its live arrays
            steps.append((t, *(a[:n_rec].copy() for a in stages)))

        # observe= only when recording: perfbench's run_batch wrapper takes no more arguments
        if n_rec:
            raw = run_batch(field, obs, solver, n * solver.n_avg, observe=record)
        else:
            raw = run_batch(field, obs, solver, n * solver.n_avg)
        for i in range(n_rec):
            path = scratch / f"trajectory_run_{i:03d}.csv"
            write_trajectory_csv(path, steps, i, cfg, solver.seed)
        samples = raw.reshape(n, solver.n_avg, -1).mean(axis=1)
        write_samples_csv(scratch / "flower_samples.csv", samples, cfg, solver.seed)
        if cfg.baseline_exact_posterior:
            post = _exact_posterior(cfg)
            rng = _baseline_rng(solver.seed, 1)
            exact = post.sample(rng, n)
            write_samples_csv(scratch / "exact_posterior_samples.csv", exact, cfg, solver.seed)
            floor_a = post.sample(rng, n)
            floor_b = post.sample(rng, n)
        if cfg.baseline_unconditional:
            rng = _baseline_rng(solver.seed, 3)
            uncond = euler_sample(field, rng.standard_normal((n, cfg.prior.dim)), solver.n_steps)
            write_samples_csv(scratch / "unconditional_samples.csv", uncond, cfg, solver.seed)

        doc = {
            "config_sha256": cfg.sha256,
            "seed": solver.seed,
            "n_samples": n,
            "n_avg": solver.n_avg,
            "gamma": solver.gamma,
            "n_steps": solver.n_steps,
            "reports": [],
        }
        # no overflow warnings: _write_metrics refuses a non-finite value and names the layer
        with np.errstate(over="ignore", invalid="ignore"):
            mean, cov = empirical_moments(samples)
            doc["moments"] = {"mean": mean.tolist(), "covariance": cov.tolist()}
            if obs.operator.out_dim > 0:
                resid = obs.operator.apply(samples) - obs.observation
                doc["residual_linf"] = float(np.max(np.abs(resid)))
            if cfg.baseline_exact_posterior:
                # both distances project on the same k directions, from stream 2
                k = SLICED_W2_PROJECTIONS
                for name, a, b in (
                    ("sliced_w2_flower_vs_exact_posterior", samples, exact),
                    ("sliced_w2_noise_floor", floor_a, floor_b),
                ):
                    dist = sliced_w2(a, b, k, rng=_baseline_rng(solver.seed, 2))
                    doc["reports"].append({"metric": name, "value": dist, "n_a": n, "n_b": n,
                                           "n_projections": k, "seed": solver.seed})
                logdet_flower = covariance_logdet(samples)
                logdet_exact = covariance_logdet(exact)
                singular = logdet_flower is None or logdet_exact is None
                doc["covariance_log_determinant"] = {
                    "flower": logdet_flower,
                    "exact_posterior": logdet_exact,
                    "tail_shrinkage": None if singular else logdet_flower < logdet_exact,
                }
        _write_metrics(scratch / "metrics.json", doc)
    _say(args, f"wrote {cfg.output_dir}/flower_samples.csv and metrics.json")
    return EXIT_OK


def _draw_command(filename: str, mixture, k: int):
    """The command that writes n_samples draws of mixture(cfg), from stream k, to filename."""

    def cmd(args) -> int:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        samples = mixture(cfg).sample(_baseline_rng(cfg.solver.seed, k), cfg.n_samples)
        with _staged(cfg.output_dir) as scratch:
            write_samples_csv(scratch / filename, samples, cfg, cfg.solver.seed)
        _say(args, f"wrote {cfg.output_dir / filename}")
        return EXIT_OK

    return cmd


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
    add("posterior-exact", _draw_command("exact_posterior_samples.csv", _exact_posterior, 1))
    add("sample-prior", _draw_command("prior_samples.csv", lambda cfg: cfg.prior, 5))
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
    except (TrainingDivergedError, FlowerRunError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _OutputFailure as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
