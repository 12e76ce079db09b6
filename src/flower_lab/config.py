"""Declarative experiment configs: one INI-style file per experiment.

Sections describe the prior, the measurement, the velocity field, the
solver and the outputs; array values use Python literal syntax.  Parsing
builds real objects (mixtures, operators, observations) and validates all
cross-section dimension constraints up front, so a config that parses is a
config that runs.
"""

from __future__ import annotations

import ast
import configparser
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

from .flow import IndependentCoupling, MinibatchOTCoupling, TrainConfig
from .flower import FlowerConfig
from .gmm import GaussianMixture, LinearGaussianObservation
from .operators import (
    Circulant1DOperator,
    DenseOperator,
    MaskOperator,
    ScaledIdentityOperator,
    as_vector,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

# the largest exact-OT batch: its float64 cost matrix is then 512 MiB
_OT_MAX_BATCH = 8192


class ConfigError(ValueError):
    """A config file is missing, malformed or inconsistent."""


@dataclass
class ExperimentConfig:
    """Everything a harness command needs, already constructed."""

    path: Path
    sha256: str
    prior: GaussianMixture
    observation: LinearGaussianObservation
    field_kind: str  # analytic | mlp | train
    checkpoint: Path | None
    train: TrainConfig | None
    coupling_name: str
    solver: FlowerConfig
    n_samples: int
    baseline_exact_posterior: bool
    baseline_unconditional: bool
    output_dir: Path

    def coupling(self):
        if self.coupling_name == "minibatch_ot":
            return MinibatchOTCoupling()
        return IndependentCoupling()


def _contains_bool(val):
    if isinstance(val, bool):
        return True
    return isinstance(val, (list, tuple, set)) and any(_contains_bool(v) for v in val)


class _Section:
    def __init__(self, cfg_path, name, mapping):
        self.cfg_path = cfg_path
        self.name = name
        self.mapping = mapping

    def _fail(self, key, why):
        raise ConfigError(f"{self.cfg_path}: [{self.name}] {key}: {why}")

    def literal(self, key, default=None, required=False):
        if key not in self.mapping:
            if required:
                self._fail(key, "missing required key")
            return default
        text = self.mapping[key]
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            self._fail(key, f"cannot parse value {text!r}")

    def array(self, key):
        """A required number or nested list of numbers; booleans are rejected."""
        val = self.literal(key, required=True)
        if _contains_bool(val):
            self._fail(key, "expected numbers, found a boolean")
        return val

    def number(self, key, default=None, required=False):
        val = self.literal(key, default=default, required=required)
        if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))):
            self._fail(key, f"expected a number, got {val!r}")
        return val

    def integer(self, key, default=None, required=False):
        val = self.literal(key, default=default, required=required)
        if val is not None and (isinstance(val, bool) or not isinstance(val, int)):
            self._fail(key, f"expected an integer, got {val!r}")
        return val

    def flag(self, key, default=False):
        if key not in self.mapping:
            return default
        text = self.mapping[key].strip().lower()
        if text in ("true", "yes", "1", "on"):
            return True
        if text in ("false", "no", "0", "off"):
            return False
        self._fail(key, f"expected a boolean, got {text!r}")

    def string(self, key, default=None, required=False):
        if key not in self.mapping:
            if required:
                self._fail(key, "missing required key")
            return default
        return self.mapping[key].strip()


def _build_operator(sec: _Section):
    kind = sec.string("operator", required=True)
    if kind == "row_vector":
        return DenseOperator([as_vector(sec.array("h"), name="h")])
    if kind == "dense":
        return DenseOperator(sec.array("matrix"))
    if kind == "mask":
        return MaskOperator(sec.array("kept"), dim=sec.integer("dim", required=True))
    if kind == "circulant1d":
        return Circulant1DOperator(sec.array("kernel"))
    if kind == "scaled_identity":
        return ScaledIdentityOperator(
            sec.number("scale", required=True), dim=sec.integer("dim", required=True)
        )
    sec._fail("operator", f"unknown operator kind {kind!r}")


def load_config(path, seed_override: int | None = None, out_override=None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    ``seed_override`` replaces the solver seed and the [train] seed, if any.

    Raises:
        ConfigError: the file is missing or any section is invalid.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw_bytes = path.read_bytes()
    sha256 = hashlib.sha256(raw_bytes).hexdigest()

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(raw_bytes.decode())
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def section(name, required=True):
        if not parser.has_section(name):
            if required:
                raise ConfigError(f"{path}: missing [{name}] section")
            return None
        return _Section(path, name, dict(parser.items(name)))

    prior_sec = section("prior")
    arrays = [prior_sec.array(key) for key in ("weights", "means", "covariance")]
    try:
        prior = GaussianMixture(*arrays)
    except ValueError as exc:
        raise ConfigError(f"{path}: [prior] {exc}") from exc

    obs_sec = section("observation")
    try:
        operator = _build_operator(obs_sec)
        observation = LinearGaussianObservation(
            operator,
            obs_sec.number("noise_std", required=True),
            obs_sec.array("y"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: [observation] {exc}") from exc
    if operator.in_dim != prior.dim:
        raise ConfigError(
            f"{path}: operator acts on R^{operator.in_dim} "
            f"but the prior lives on R^{prior.dim}"
        )

    field_sec = section("field")
    field_kind = field_sec.string("kind", required=True)
    if field_kind not in ("analytic", "mlp", "train"):
        raise ConfigError(f"{path}: [field] unknown kind {field_kind!r}")
    checkpoint = None
    if field_kind == "mlp":
        checkpoint = Path(field_sec.string("checkpoint", required=True))
        if not checkpoint.is_absolute():
            checkpoint = path.parent / checkpoint
        if not checkpoint.is_file():
            raise ConfigError(f"{path}: [field] checkpoint not found: {checkpoint}")

    train_sec = section("train", required=False)
    train = None
    coupling_name = "independent"
    if train_sec is not None:
        coupling_name = train_sec.string("coupling", default="independent")
        if coupling_name not in ("independent", "minibatch_ot"):
            raise ConfigError(
                f"{path}: [train] unknown coupling {coupling_name!r}"
            )
        try:
            train = TrainConfig(
                batch_size=train_sec.integer("batch_size", default=2048),
                steps=train_sec.integer("steps", default=20000),
                learning_rate=train_sec.number("learning_rate", default=1e-3),
                beta1=train_sec.number("beta1", default=0.9),
                beta2=train_sec.number("beta2", default=0.999),
                epsilon=train_sec.number("epsilon", default=1e-8),
                seed=train_sec.integer("seed", default=0),
                hidden_sizes=train_sec.literal("hidden_sizes", default=(256, 256)),
                dtype=train_sec.string("dtype", default="float32"),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: [train] {exc}") from exc
        if coupling_name == "minibatch_ot" and train.batch_size > _OT_MAX_BATCH:
            mib = train.batch_size**2 * 8 / 2**20
            raise ConfigError(
                f"{path}: [train] batch_size = {train.batch_size} with coupling = "
                f"minibatch_ot needs a {mib:,.1f} MiB cost matrix; exact OT allows "
                f"at most {_OT_MAX_BATCH}"
            )
    if train is not None and seed_override is not None:
        train = replace(train, seed=int(seed_override))
    if field_kind == "train" and train is None:
        raise ConfigError(f"{path}: field kind 'train' requires a [train] section")

    solver_sec = section("solver")
    try:
        solver = FlowerConfig(
            n_steps=solver_sec.integer("n_steps", required=True),
            gamma=solver_sec.integer("gamma", required=True),
            noise_std=solver_sec.number("noise_std", default=observation.noise_std),
            seed=solver_sec.integer("seed", default=0),
            n_avg=solver_sec.integer("n_avg", default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [solver] {exc}") from exc
    n_samples = solver_sec.integer("n_samples", default=1000)
    if n_samples < 2:
        # the reported moments need a sample covariance
        raise ConfigError(f"{path}: [solver] n_samples must be >= 2")
    if solver_sec.flag("record_trajectory", default=False):
        # the recorded trajectories are the first rows of the sampled batch
        n_trajectories = solver_sec.integer("n_trajectories", default=8)
        n_runs = n_samples * solver.n_avg
        if not 1 <= n_trajectories <= n_runs:
            raise ConfigError(
                f"{path}: [solver] n_trajectories must be in 1..{n_runs} "
                f"(n_samples * n_avg), got {n_trajectories}"
            )
        solver = replace(solver, n_trajectories=n_trajectories)
    if seed_override is not None:
        solver = replace(solver, seed=int(seed_override))

    base_sec = section("baselines", required=False)
    baseline_exact = base_sec.flag("exact_posterior_samples") if base_sec else False
    baseline_uncond = base_sec.flag("unconditional_samples") if base_sec else False

    out_sec = section("outputs")
    out_dir = Path(out_override) if out_override else Path(
        out_sec.string("directory", required=True)
    )
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise ConfigError(f"{path}: output directory {out_dir} is a file or lies under one")

    return ExperimentConfig(
        path=path,
        sha256=sha256,
        prior=prior,
        observation=observation,
        field_kind=field_kind,
        checkpoint=checkpoint,
        train=train,
        coupling_name=coupling_name,
        solver=solver,
        n_samples=n_samples,
        baseline_exact_posterior=baseline_exact,
        baseline_unconditional=baseline_uncond,
        output_dir=out_dir,
    )
