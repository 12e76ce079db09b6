"""Declarative experiment configs: one INI-style file per experiment.

Sections describe the prior, the measurement, the velocity field, the
solver and the outputs; array values use Python literal syntax.  The
[train] and [solver] keys are ``TrainConfig``'s and ``FlowerConfig``'s
fields, read by field type, with the dataclass defaults for keys left out.
Parsing builds real objects (mixtures, operators, observations, the
velocity field and the trainer's coupling) and validates all cross-section
dimension constraints up front, a checkpoint's included, and a key or
section nothing reads is an error, so a config that parses runs as written.
"""

from __future__ import annotations

import ast
import configparser
import hashlib
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .flow import (
    AnalyticGmmField,
    IndependentCoupling,
    MinibatchOTCoupling,
    MlpField,
    TrainConfig,
)
from .flower import FlowerConfig
from .gmm import GaussianMixture, LinearGaussianObservation
from .mlp import load_checkpoint
from .operators import (
    Circulant1DOperator,
    DenseOperator,
    MaskOperator,
    ScaledIdentityOperator,
    as_vector,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

# the largest exact-OT batch: the coupling's whole working set, one float64
# cost matrix plus O(n), is then 512 MiB
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
    field: AnalyticGmmField | MlpField  # an MlpField is loaded from the checkpoint
    train: TrainConfig | None
    coupling: IndependentCoupling | MinibatchOTCoupling
    solver: FlowerConfig
    n_samples: int
    n_trajectories: int  # the recorded rows; 0 without record_trajectory
    baseline_exact_posterior: bool
    baseline_unconditional: bool
    output_dir: Path


def _contains_bool(val):
    if isinstance(val, bool):
        return True
    return isinstance(val, (list, tuple, set)) and any(_contains_bool(v) for v in val)


class _Section:
    def __init__(self, cfg_path, name, mapping):
        self.cfg_path = cfg_path
        self.name = name
        self.mapping = mapping
        self.unread = dict.fromkeys(mapping)

    def _fail(self, key, why):
        raise ConfigError(f"{self.cfg_path}: [{self.name}] {key}: {why}")

    def _text(self, key, required):
        """The raw text of key, which now counts as read; None if it is absent."""
        self.unread.pop(key, None)
        if required and key not in self.mapping:
            self._fail(key, "missing required key")
        return self.mapping.get(key)

    def literal(self, key, default=None, required=False):
        text = self._text(key, required)
        if text is None:
            return default
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
        text = self.string(key, default=str(default)).lower()
        if text not in configparser.ConfigParser.BOOLEAN_STATES:
            self._fail(key, f"expected a boolean, got {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text]

    def string(self, key, default=None, required=False):
        text = self._text(key, required)
        return default if text is None else text.strip()


def _build(cls, sec: _Section, reseed: dict, **given):
    """A cls from the fields sec sets, read by type, then ``reseed`` and ``given``."""
    read = {"int": sec.integer, "float": sec.number, "str": sec.string, "tuple": sec.literal}
    values = {
        f.name: read[f.type](f.name, required=True)
        for f in fields(cls)
        if f.name not in given and (f.name in sec.mapping or f.default is MISSING)
    }
    try:
        return cls(**{**values, **reseed}, **given)
    except ValueError as exc:
        raise ConfigError(f"{sec.cfg_path}: [{sec.name}] {exc}") from exc


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

    ``seed_override`` replaces the solver seed and the [train] seed, if any;
    ``out_override``, relative to the working directory, the output directory.

    Raises:
        ConfigError: the file or the checkpoint is missing or unusable, any
            section is invalid, a key or section is one that nothing reads, or
            ``out_override`` is empty.
    """
    if out_override == "":
        raise ConfigError("--out: empty output directory")
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    sha256 = hashlib.sha256(raw_bytes).hexdigest()

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(raw_bytes.decode())
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for key in parser.defaults():
        raise ConfigError(f"{path}: [DEFAULT] {key}: unknown key (copied into every section)")
    sections = {}
    reseed = {} if seed_override is None else {"seed": int(seed_override)}

    def section(name, required=True):
        if not parser.has_section(name):
            if required:
                raise ConfigError(f"{path}: missing [{name}] section")
            return None
        sections[name] = _Section(path, name, dict(parser.items(name)))
        return sections[name]

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
    if field_kind == "analytic":
        field = AnalyticGmmField(prior)
    elif field_kind == "mlp":
        checkpoint = path.parent / field_sec.string("checkpoint", required=True)
        if not checkpoint.is_file():
            raise ConfigError(f"{path}: [field] checkpoint not found: {checkpoint}")
        try:
            field = MlpField(load_checkpoint(checkpoint)[0])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: [field] unusable checkpoint: {exc}") from exc
        if field.dim != prior.dim:
            raise ConfigError(
                f"{path}: [field] checkpoint holds a field on R^{field.dim}, "
                f"but the prior lives on R^{prior.dim}"
            )
    else:
        raise ConfigError(f"{path}: [field] unknown kind {field_kind!r}")

    train_sec = section("train", required=False)
    train = None
    coupling = IndependentCoupling()
    if train_sec is not None:
        coupling_name = train_sec.string("coupling", default="independent")
        if coupling_name == "minibatch_ot":
            coupling = MinibatchOTCoupling()
        elif coupling_name != "independent":
            raise ConfigError(f"{path}: [train] unknown coupling {coupling_name!r}")
        train = _build(TrainConfig, train_sec, reseed)
        if coupling_name == "minibatch_ot" and train.batch_size > _OT_MAX_BATCH:
            mib = train.batch_size**2 * 8 / 2**20
            raise ConfigError(
                f"{path}: [train] batch_size = {train.batch_size} with coupling = "
                f"minibatch_ot needs a {mib:,.1f} MiB cost matrix; exact OT allows "
                f"at most {_OT_MAX_BATCH}"
            )

    solver_sec = section("solver")
    noise_std = solver_sec.number("noise_std", default=observation.noise_std)
    try:
        # run_batch solves with the observation at the solver's noise level
        replace(observation, noise_std=noise_std)
    except ValueError as exc:
        raise ConfigError(f"{path}: [solver] {exc}") from exc
    n_samples = solver_sec.integer("n_samples", default=1000)
    if n_samples < 2:
        # the reported moments need a sample covariance
        raise ConfigError(f"{path}: [solver] n_samples must be >= 2")
    record = solver_sec.flag("record_trajectory")
    n_trajectories = solver_sec.integer("n_trajectories", default=8)
    solver = _build(FlowerConfig, solver_sec, reseed, noise_std=noise_std)
    # the recorded trajectories are the first rows of the sampled batch
    n_runs = n_samples * solver.n_avg
    if record and not 1 <= n_trajectories <= n_runs:
        raise ConfigError(
            f"{path}: [solver] n_trajectories must be in 1..{n_runs} "
            f"(n_samples * n_avg), got {n_trajectories}"
        )

    base_sec = section("baselines", required=False)
    baseline_exact = base_sec.flag("exact_posterior_samples") if base_sec else False
    baseline_uncond = base_sec.flag("unconditional_samples") if base_sec else False

    out_sec = section("outputs")
    directory = out_sec.string("directory", required=not out_override)
    out_dir = Path(out_override) if out_override else path.parent / directory
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise ConfigError(f"{path}: output directory {out_dir} is a file or lies under one")

    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"{path}: [{name}]: unknown section")
        for key in sections[name].unread:
            sections[name]._fail(key, "unknown key")

    return ExperimentConfig(
        path=path,
        sha256=sha256,
        prior=prior,
        observation=observation,
        field=field,
        train=train,
        coupling=coupling,
        solver=solver,
        n_samples=n_samples,
        n_trajectories=n_trajectories if record else 0,
        baseline_exact_posterior=baseline_exact,
        baseline_unconditional=baseline_uncond,
        output_dir=out_dir,
    )
