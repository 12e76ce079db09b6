"""CLI verbs, file formats, exit codes and output determinism."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from flower_lab import cli, config, flower
from flower_lab.cli import fmt_float, main
from flower_lab.config import ConfigError, load_config
from flower_lab.flow import (
    AnalyticGmmField,
    IndependentCoupling,
    MinibatchOTCoupling,
    TrainConfig,
    standard_normal_sampler,
    train_cfm,
)
from flower_lab.flower import run_batch
from flower_lab.mlp import Mlp, load_checkpoint, save_checkpoint
from flower_lab.operators import DenseOperator

from conftest import MINI_TOY
from oracles import mixture_mean

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_INPUTS = CONFIGS_DIR.parent / "perfbench" / "inputs.py"


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_TOY)
    return path


def read_csv_body(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("# seed=")
    return lines


class TestFloatFormat:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200):
            assert float(fmt_float(x)) == x

    def test_always_has_decimal_point_or_exponent(self):
        for x in (1.0, -3.0, 0.5, 1e30, 7.0):
            s = fmt_float(x)
            assert "." in s or "e" in s

    def test_samples_csv_formats_as_per_numpy_scalar(self, tmp_path):
        """The samples file holds fmt_float of each numpy scalar, byte for byte."""
        special = np.array([[-0.0, 1.0], [123456.0, 1e20], [5e-324, -2.5e-7]])
        samples = np.vstack([special, np.random.default_rng(2).standard_normal((200, 2))])
        cfg = SimpleNamespace(sha256="ab" * 32)
        cli.write_samples_csv(tmp_path / "samples.csv", samples, cfg, 7)
        rows = [f"{i}," + ",".join(fmt_float(v) for v in row) for i, row in enumerate(samples)]
        header = [f"# config_sha256={cfg.sha256}", "# seed=7", "run_id,dim_0,dim_1"]
        expected = "\n".join(header + rows) + "\n"
        assert (tmp_path / "samples.csv").read_bytes() == expected.encode()
        assert rows[:3] == [
            "0,-0.0,1.0",
            "1,123456.0,1e+20",
            "2,4.9406564584124654e-324,-2.4999999999999999e-07",
        ]


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["toy1", "toy2", "inpaint16", "blur32"])
    def test_parses_and_is_consistent(self, name):
        cfg = load_config(CONFIGS_DIR / f"{name}.cfg")
        assert cfg.observation.operator.in_dim == cfg.prior.dim
        assert cfg.solver.noise_std == cfg.observation.noise_std


TOY1_TRAIN = dict(
    batch_size=2048, steps=20000, learning_rate=0.001, seed=7, hidden_sizes=(256, 256),
    dtype="float32",
)
SHORT_TRAIN = {**TOY1_TRAIN, "batch_size": 256, "steps": 20}
SAMPLED = (True, False)  # exact-posterior baseline only
# what each config loads to: [train], coupling, [solver] (n_steps, gamma, noise_std,
# seed, n_avg), n_samples, n_trajectories, both baselines and the output directory
LOADED = {
    "toy1": (TOY1_TRAIN, "independent", (1000, 1, 0.25, 42, 1), 5000, 0, SAMPLED, "out/toy1"),
    "toy2": (None, "independent", (1000, 1, 0.75, 43, 1), 5000, 0, SAMPLED, "out/toy2"),
    "inpaint16": (None, "independent", (1000, 0, 0.001, 11, 1), 64, 0, SAMPLED, "out/inpaint16"),
    "blur32": (None, "independent", (500, 1, 0.05, 17, 1), 128, 0, SAMPLED, "out/blur32"),
    "mini": (
        dict(batch_size=64, steps=40, learning_rate=0.001, seed=3, hidden_sizes=(16, 16),
             dtype="float64"),
        "independent", (25, 1, 0.25, 5, 1), 40, 0, (True, True), "out",
    ),
    "blur128": (None, "independent", (100, 1, 0.05, 1, 1), 16, 0, SAMPLED, "out/blur128"),
    "toy1_small": (TOY1_TRAIN, "independent", (1000, 1, 0.25, 42, 1), 64, 0, SAMPLED, "out/toy1"),
    "train_independent": (
        SHORT_TRAIN, "independent", (1000, 1, 0.25, 42, 1), 5000, 0, SAMPLED, "out/toy1"
    ),
    "train_minibatch_ot": (
        SHORT_TRAIN, "minibatch_ot", (1000, 1, 0.25, 42, 1), 5000, 0, SAMPLED, "out/toy1"
    ),
}


def config_file(name, directory):
    """A shipped config, the tests' MINI_TOY, or one the benchmark writes from its seed."""
    if name in ("toy1", "toy2", "inpaint16", "blur32"):
        return CONFIGS_DIR / f"{name}.cfg"
    path = directory / f"{name}.cfg"
    if name == "mini":
        path.write_text(MINI_TOY)
        return path
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    toy1 = CONFIGS_DIR / "toy1.cfg"
    if name == "blur128":
        return inputs.blur128_config(1, path)
    if name == "toy1_small":
        return inputs.solver_config(toy1, path, 64)
    return inputs.train_config(toy1, path, name.removeprefix("train_"), 20, 256)


@pytest.mark.parametrize("name", sorted(LOADED))
def test_configs_load_the_same_settings(name, tmp_path):
    """Reading [train] and [solver] by field type gives each config the values it always had."""
    path = config_file(name, tmp_path)
    cfg = load_config(path)
    train, coupling, solver, n_samples, n_trajectories, baselines, out = LOADED[name]
    assert type(cfg.field) is AnalyticGmmField
    assert cfg.field.prior is cfg.prior
    assert (cfg.train and dataclasses.asdict(cfg.train)) == train
    couplings = {"independent": IndependentCoupling, "minibatch_ot": MinibatchOTCoupling}
    assert type(cfg.coupling) is couplings[coupling]
    assert dataclasses.astuple(cfg.solver) == solver
    assert cfg.n_samples == n_samples
    assert cfg.n_trajectories == n_trajectories
    assert (cfg.baseline_exact_posterior, cfg.baseline_unconditional) == baselines
    assert cfg.output_dir == path.parent / out
    reseeded = load_config(path, seed_override=9)
    assert reseeded.solver == dataclasses.replace(cfg.solver, seed=9)
    assert reseeded.train == (cfg.train and dataclasses.replace(cfg.train, seed=9))


class TestConfigErrors:
    def test_missing_file_exits_2_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["solve", "--config", str(missing)]) == cli.EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    def test_unreadable_config_is_config_error(self, mini_config, capsys, monkeypatch):
        monkeypatch.setattr(Path, "read_bytes", io_error)
        assert main(["solve", "--config", str(mini_config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: cannot read config file {mini_config}: Input/output error\n"

    def test_module_entry_point_reports_one_line(self, tmp_path):
        """python -m flower_lab, in a fresh interpreter: exit 2, one line, no traceback."""
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "flower_lab", "solve", "--config", "missing.cfg"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert done.returncode == cli.EXIT_CONFIG
        assert [ln.startswith("config error: ") for ln in done.stderr.splitlines()] == [True]
        assert "Traceback" not in done.stderr

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        bad = MINI_TOY.replace("h = [1.5, 1.5]", "h = [1.5, 1.5, 0.0]")
        path = tmp_path / "bad.cfg"
        path.write_text(bad)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_TOY.replace("gamma = 1", "gamma = maybe"))
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    @pytest.mark.parametrize("n_trajectories, fits", [(0, False), (1, True), (80, True), (81, False)])
    def test_n_trajectories_must_fit_the_batch(self, tmp_path, n_trajectories, fits):
        """Recorded rows come from the n_samples * n_avg = 80 sampled runs."""
        text = MINI_TOY.replace("record_trajectory = false", "record_trajectory = true\nn_avg = 2")
        path = tmp_path / "traj.cfg"
        path.write_text(text.replace("n_trajectories = 2", f"n_trajectories = {n_trajectories}"))
        if fits:
            assert load_config(path).n_trajectories == n_trajectories
            return
        with pytest.raises(ConfigError, match="n_trajectories"):
            load_config(path)
        assert main(["solve", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("n_samples, runs", [(1, False), (2, True)])
    def test_n_samples_needs_a_sample_covariance(self, tmp_path, n_samples, runs):
        """The reported moments need two samples: one is a config error, not a traceback."""
        path = tmp_path / "few.cfg"
        path.write_text(MINI_TOY.replace("n_samples = 40", f"n_samples = {n_samples}"))
        out = tmp_path / "out"
        code = main(["solve", "--config", str(path), "--out", str(out), "--quiet"])
        if runs:
            assert code == 0
            assert len(read_csv_body(out / "flower_samples.csv")) == 3 + n_samples
            return
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, old, new",
        [
            ("n_steps", "n_steps = 25", "n_steps = True"),
            ("gamma", "gamma = 1", "gamma = True"),
            ("noise_std", "[solver]", "[solver]\nnoise_std = True"),
            ("seed", "seed = 5", "seed = False"),
            ("weights", "weights = [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]",
             "weights = [True, 0, 0]"),
            ("means", "[0.25, -0.25]]", "[0.25, False]]"),
            ("covariance", "covariance = 0.0625", "covariance = True"),
            ("h", "h = [1.5, 1.5]", "h = [True, 1.5]"),
            ("y", "y = [1.0]", "y = [True]"),
            ("matrix", "operator = row_vector\nh = [1.5, 1.5]",
             "operator = dense\nmatrix = [[1.5, False]]"),
            ("kernel", "row_vector\nh = [1.5, 1.5]\nnoise_std = 0.25\ny = [1.0]",
             "circulant1d\nkernel = [True, 0.5]\nnoise_std = 0.25\ny = [1.0, 1.0]"),
            ("kept", "operator = row_vector\nh = [1.5, 1.5]", "operator = mask\ndim = 2\nkept = [True]"),
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, key, old, new):
        """True parses as a Python literal, but it is no step count, noise level or array entry."""
        path = tmp_path / "bool.cfg"
        path.write_text(MINI_TOY.replace(old, new))
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        out = tmp_path / "out"
        code = main(["solve", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, old, new",
        [
            ("hidden_sizes", "hidden_sizes = (16, 16)", "hidden_sizes = 64"),
            ("hidden_sizes", "hidden_sizes = (16, 16)", "hidden_sizes = [0]"),
            ("hidden_sizes", "hidden_sizes = (16, 16)", "hidden_sizes = (16, True)"),
            ("dtype", "dtype = float64", "dtype = foo"),
            ("learning_rate", "learning_rate = 0.001", "learning_rate = 1e400"),
            pytest.param(
                "learning_rate", "learning_rate = 0.001", f"learning_rate = {10**400}",
                id="learning_rate-int_past_the_double_range",
            ),
        ],
    )
    def test_train_network_is_validated(self, tmp_path, key, old, new):
        """A [train] value the trainer cannot use is a config error, not a failure mid-training."""
        path = tmp_path / "net.cfg"
        path.write_text(MINI_TOY.replace(old, new))
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        out = tmp_path / "out"
        code = main(["train", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "coupling, batch, fits",
        [("minibatch_ot", 8192, True), ("minibatch_ot", 8193, False), ("independent", 100_000, True)],
    )
    def test_exact_ot_batch_is_capped(self, tmp_path, capsys, coupling, batch, fits):
        """An exact-OT batch past 8192 would need a cost matrix over 512 MiB; parsing stops it."""
        path = tmp_path / "batch.cfg"
        path.write_text(MINI_TOY.replace(
            "batch_size = 64", f"coupling = {coupling}\nbatch_size = {batch}"
        ))
        if fits:
            assert load_config(path).train.batch_size == batch
            return
        why = r"\[train\] batch_size = 8193 with coupling = minibatch_ot needs a 512.1 MiB"
        with pytest.raises(ConfigError, match=why):
            load_config(path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert "exact OT allows at most 8192" in capsys.readouterr().err
        assert not out.exists()

    def test_mask_indices_are_integers(self, tmp_path):
        """A fractional index would be truncated to a coordinate nobody asked for."""
        path = tmp_path / "mask.cfg"
        path.write_text(MINI_TOY.replace(
            "operator = row_vector\nh = [1.5, 1.5]", "operator = mask\ndim = 2\nkept = [2.7]"
        ))
        with pytest.raises(ConfigError, match=r"\[observation\] kept indices must be integers"):
            load_config(path)

    def test_row_vector_is_a_one_row_dense_matrix(self, mini_config):
        op = load_config(mini_config).observation.operator
        assert type(op) is DenseOperator
        np.testing.assert_array_equal(op.matrix, [[1.5, 1.5]])

    @pytest.mark.parametrize("h", ["1.5", "[[1.5, 1.5]]"])
    def test_row_vector_h_is_a_flat_list(self, tmp_path, h):
        path = tmp_path / "h.cfg"
        path.write_text(MINI_TOY.replace("h = [1.5, 1.5]", f"h = {h}"))
        with pytest.raises(ConfigError, match=r"\[observation\] h must be 1-D"):
            load_config(path)

    @pytest.mark.parametrize("verb", ["train", "solve", "posterior-exact", "sample-prior", "invariants"])
    def test_negative_seed_option_exits_2(self, mini_config, tmp_path, capsys, verb):
        """numpy rejects a negative seed with a traceback; it is the caller's input."""
        out = tmp_path / "out"
        argv = [verb, "--seed", "-1", "--quiet"]
        if verb != "invariants":
            argv += ["--config", str(mini_config), "--out", str(out)]
        assert main(argv) == cli.EXIT_CONFIG
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train", "solve", "posterior-exact", "sample-prior"])
    @pytest.mark.parametrize("section, old", [("solver", "seed = 5"), ("train", "seed = 3")])
    def test_negative_config_seed_exits_2(self, tmp_path, capsys, verb, section, old):
        path = tmp_path / "seed.cfg"
        path.write_text(MINI_TOY.replace(old, "seed = -7"))
        with pytest.raises(ConfigError, match=rf"\[{section}\] seed must be >= 0, got -7"):
            load_config(path)
        out = tmp_path / "out"
        assert main([verb, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert f"[{section}] seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train", "solve", "posterior-exact", "sample-prior"])
    def test_output_path_under_a_file_exits_2(self, mini_config, tmp_path, capsys, verb):
        taken = tmp_path / "taken"
        taken.write_text("an earlier run's file\n")
        for out in (taken, taken / "sub"):
            argv = [verb, "--config", str(mini_config), "--out", str(out), "--quiet"]
            assert main(argv) == cli.EXIT_CONFIG
            assert f"output directory {out} is a file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["mini.cfg", "taken"]
        assert taken.read_text() == "an earlier run's file\n"

    @pytest.mark.parametrize("verb", ["train", "solve", "posterior-exact", "sample-prior"])
    def test_empty_out_option_exits_2(self, mini_config, tmp_path, capsys, verb):
        """An empty --out is refused, not read as absent: the config's directory stays unmade."""
        argv = [verb, "--config", str(mini_config), "--out", "", "--quiet"]
        assert main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --out: empty output directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["mini.cfg"]

    @pytest.mark.parametrize("verb", ["solve", "posterior-exact"])
    @pytest.mark.parametrize("section", ["observation", "solver"])
    @pytest.mark.parametrize("noise_std", ["1e-200", "1e-160", "1e400"])
    def test_noise_whose_square_leaves_the_float_range_exits_2(
        self, tmp_path, capsys, verb, section, noise_std
    ):
        """Every prox and posterior formula divides by s^2; 0 or inf there is refused up front."""
        if section == "observation":
            text = MINI_TOY.replace("noise_std = 0.25", f"noise_std = {noise_std}")
        else:
            text = MINI_TOY.replace("[solver]\n", f"[solver]\nnoise_std = {noise_std}\n")
        path = tmp_path / "noise.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([verb, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert f"[{section}] noise_std must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_must_exist_for_mlp_field(self, tmp_path):
        text = MINI_TOY.replace(
            "kind = analytic", "kind = mlp\ncheckpoint = missing.flw"
        )
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="checkpoint"):
            load_config(path)


class TestUnreadKeys:
    """A key or section nothing reads is a config error, not a silently ignored setting."""

    @pytest.mark.parametrize(
        "section, line",
        [
            ("prior", "weight = [1.0]"),
            ("observation", "kernal = [1.0, 0.5]"),
            ("observation", "matrix = [[1.5, 1.5]]"),
            ("field", "checkpoint = model.flw"),
            ("train", "beta1 = 0.9"),
            ("train", "beta2 = 0.999"),
            ("train", "epsilon = 1e-8"),
            ("solver", "n_sample = 50"),
            ("baselines", "exact_posterior_sample = true"),
            ("outputs", "directry = elsewhere"),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, section, line):
        path = tmp_path / "key.cfg"
        path.write_text(MINI_TOY.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert f"[{section}] {key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_section_exits_2(self, tmp_path):
        path = tmp_path / "section.cfg"
        path.write_text(MINI_TOY + "\n[solvr]\nn_steps = 50\n")
        with pytest.raises(ConfigError, match=r"\[solvr\]: unknown section"):
            load_config(path)
        assert main(["solve", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG

    def test_default_key_is_named_as_such(self, tmp_path):
        """configparser copies a [DEFAULT] key into every section; no section reads them all."""
        path = tmp_path / "default.cfg"
        path.write_text("[DEFAULT]\nseed = 9\n\n" + MINI_TOY)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\] seed: unknown key"):
            load_config(path)

    def test_mistyped_sample_count_writes_nothing(self, tmp_path, capsys):
        """toy2 with n_samples mistyped would otherwise write the default 1000 samples."""
        text = (CONFIGS_DIR / "toy2.cfg").read_text()
        path = tmp_path / "toy2.cfg"
        path.write_text(text.replace("n_samples = 5000", "n_sample = 50"))
        assert main(["solve", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG
        assert "[solver] n_sample: unknown key" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["toy2.cfg"]

    @pytest.mark.parametrize("record, n_trajectories", [("false", 0), ("false", 10**6), ("true", 2)])
    def test_n_trajectories_is_read_whether_or_not_recording(
        self, tmp_path, record, n_trajectories
    ):
        """toy1.cfg sets n_trajectories with recording off; only a recorded count must fit."""
        text = MINI_TOY.replace("n_trajectories = 2", f"n_trajectories = {n_trajectories}")
        path = tmp_path / "traj.cfg"
        path.write_text(text.replace("record_trajectory = false", f"record_trajectory = {record}"))
        recorded = n_trajectories if record == "true" else 0
        assert load_config(path).n_trajectories == recorded

    def test_outputs_directory_is_optional_only_under_out(self, tmp_path):
        path = tmp_path / "noout.cfg"
        path.write_text(MINI_TOY.replace("directory = out\n", ""))
        assert load_config(path, out_override=tmp_path / "o").output_dir == tmp_path / "o"
        with pytest.raises(ConfigError, match=r"\[outputs\] directory: missing required key"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, value",
        [("yes", True), ("On", True), ("1", True), ("TRUE", True),
         ("no", False), ("off", False), ("0", False), ("False", False)],
    )
    def test_flags_take_configparser_words(self, tmp_path, text, value):
        path = tmp_path / "flag.cfg"
        flag = f"unconditional_samples = {text}"
        path.write_text(MINI_TOY.replace("unconditional_samples = true", flag))
        assert load_config(path).baseline_unconditional is value

    def test_flag_rejects_other_words(self, tmp_path):
        path = tmp_path / "flag.cfg"
        path.write_text(MINI_TOY.replace("record_trajectory = false", "record_trajectory = maybe"))
        with pytest.raises(ConfigError, match="record_trajectory: expected a boolean, got 'maybe'"):
            load_config(path)


class TestPaths:
    def test_out_is_taken_from_the_working_directory_outputs_from_the_config(
        self, tmp_path, monkeypatch
    ):
        cfgdir, work = tmp_path / "cfgdir", tmp_path / "work"
        cfgdir.mkdir()
        work.mkdir()
        (cfgdir / "c.cfg").write_text(MINI_TOY)
        monkeypatch.chdir(work)
        argv = ["posterior-exact", "--config", "../cfgdir/c.cfg", "--quiet"]
        assert main(argv + ["--out", "results"]) == 0
        assert (work / "results" / "exact_posterior_samples.csv").is_file()
        assert sorted(p.name for p in cfgdir.iterdir()) == ["c.cfg"]
        # without --out, [outputs] directory = out lies next to the config
        assert main(argv) == 0
        assert (cfgdir / "out" / "exact_posterior_samples.csv").is_file()
        assert [p.name for p in work.iterdir()] == ["results"]


class TestSolve:
    def test_writes_samples_baselines_and_metrics(self, mini_config, tmp_path):
        out = tmp_path / "run1"
        assert main(["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "flower_samples.csv",
            "exact_posterior_samples.csv",
            "unconditional_samples.csv",
            "metrics.json",
        } <= names

        lines = read_csv_body(out / "flower_samples.csv")
        assert lines[2] == "run_id,dim_0,dim_1"
        assert len(lines) == 3 + 40

        doc = json.loads((out / "metrics.json").read_text())
        metrics = {r["metric"]: r for r in doc["reports"]}
        assert "sliced_w2_flower_vs_exact_posterior" in metrics
        assert "sliced_w2_noise_floor" in metrics
        assert metrics["sliced_w2_noise_floor"]["n_projections"] == 128
        assert doc["seed"] == 5
        logdets = doc["covariance_log_determinant"]
        assert np.isfinite(logdets["flower"]) and np.isfinite(logdets["exact_posterior"])
        assert isinstance(logdets["tail_shrinkage"], bool)
        assert "residual_linf" in doc
        assert doc["moments"]["mean"] and doc["moments"]["covariance"]

    def test_rerun_is_byte_identical(self, mini_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        for name in ("flower_samples.csv", "exact_posterior_samples.csv", "metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_samples(self, mini_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(mini_config), "--out", str(out_a), "--quiet"]) == 0
        assert main(
            ["solve", "--config", str(mini_config), "--out", str(out_b), "--seed", "99", "--quiet"]
        ) == 0
        a = (out_a / "flower_samples.csv").read_bytes()
        b = (out_b / "flower_samples.csv").read_bytes()
        assert a != b

    def test_trajectories_have_stage_rows(self, mini_config, tmp_path):
        """Trajectory files follow the first rows of the sampled batch."""
        text = MINI_TOY.replace("record_trajectory = false", "record_trajectory = true")
        path = mini_config.parent / "traj.cfg"
        path.write_text(text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        files = sorted(p.name for p in out_a.glob("trajectory_run_*.csv"))
        assert files == ["trajectory_run_000.csv", "trajectory_run_001.csv"]
        samples = read_csv_body(out_a / "flower_samples.csv")[3:]
        for i, name in enumerate(files):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            lines = read_csv_body(out_a / name)
            assert lines[2] == "step,t,stage,dim_0,dim_1"
            body = lines[3:]
            assert len(body) == 25 * 4
            assert [row.split(",")[2] for row in body[:4]] == ["xt", "xhat1", "mu", "xtilde1"]
            last = body[-1].split(",")
            assert last[:3] == ["24", "0.95999999999999996", "xtilde1"]
            # with n_avg = 1 the last refinement of trajectory i is sample i
            assert last[3:] == samples[i].split(",")[1:]

    def test_numerical_failure_leaves_no_partial_outputs(
        self, mini_config, tmp_path, monkeypatch
    ):
        def boom(*a, **kw):
            raise flower.FlowerRunError(4, RuntimeError("synthetic"))

        monkeypatch.setattr(cli, "run_batch", boom)
        out = tmp_path / "failed"
        assert main(["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 3
        leftovers = list(out.iterdir()) if out.exists() else []
        assert leftovers == []

    def test_non_finite_field_exits_3_naming_step_and_stage(
        self, mini_config, tmp_path, monkeypatch, capsys
    ):
        class NanAtStep3:
            def __init__(self, prior):
                self.dim = prior.dim

            def eval(self, x, t):
                return np.full_like(x, np.nan if t == 3 / 25 else 0.0)

        monkeypatch.setattr(config, "AnalyticGmmField", NanAtStep3)
        out = tmp_path / "nan"
        assert main(["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "step 3" in err and "field" in err
        assert not out.exists()

    def test_failed_solve_keeps_an_existing_directory(self, mini_config, tmp_path, monkeypatch):
        """Only a directory the failed run created goes; an older one keeps its files."""
        def boom(*a, **kw):
            raise flower.FlowerRunError(4, RuntimeError("synthetic"))

        monkeypatch.setattr(cli, "run_batch", boom)
        out = tmp_path / "earlier"
        out.mkdir()
        old = b"# an earlier run's samples\nrun_id,dim_0,dim_1\n0,1.0,2.0\n"
        (out / "flower_samples.csv").write_bytes(old)
        assert main(["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 3
        assert [p.name for p in out.iterdir()] == ["flower_samples.csv"]
        assert (out / "flower_samples.csv").read_bytes() == old


class TestPosteriorExact:
    def test_shape_and_mean(self, mini_config, tmp_path):
        out = tmp_path / "post"
        assert main(
            ["posterior-exact", "--config", str(mini_config), "--out", str(out), "--quiet"]
        ) == 0
        lines = read_csv_body(out / "exact_posterior_samples.csv")
        assert lines[2] == "run_id,dim_0,dim_1"
        rows = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[3:]])
        assert rows.shape == (40, 2)

    def test_seed_behaviour(self, mini_config, tmp_path):
        outs = []
        for name, seed in (("s1", None), ("s2", None), ("s3", "77")):
            out = tmp_path / name
            argv = ["posterior-exact", "--config", str(mini_config), "--out", str(out), "--quiet"]
            if seed:
                argv += ["--seed", seed]
            assert main(argv) == 0
            outs.append((out / "exact_posterior_samples.csv").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_empirical_mean_matches_closed_form(self, tmp_path):
        text = MINI_TOY.replace("n_samples = 40", "n_samples = 20000")
        path = tmp_path / "big.cfg"
        path.write_text(text)
        out = tmp_path / "post"
        assert main(["posterior-exact", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        lines = read_csv_body(out / "exact_posterior_samples.csv")
        rows = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[3:]])
        from flower_lab.gmm import posterior_linear_gaussian

        cfg = load_config(path)
        post = posterior_linear_gaussian(cfg.prior, cfg.observation)
        se = rows.std(axis=0, ddof=1) / np.sqrt(len(rows))
        assert np.all(np.abs(rows.mean(axis=0) - mixture_mean(post)) <= 3 * se)

    def test_same_file_as_solve(self, mini_config, tmp_path):
        """posterior-exact writes the baseline file solve writes for the same config and seed."""
        files = []
        for verb in ("solve", "posterior-exact"):
            out = tmp_path / verb
            assert main([verb, "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
            files.append((out / "exact_posterior_samples.csv").read_bytes())
        assert files[0] == files[1]


class TestSamplePrior:
    def test_writes_prior_samples(self, mini_config, tmp_path):
        out = tmp_path / "prior"
        assert main(["sample-prior", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        lines = read_csv_body(out / "prior_samples.csv")
        assert len(lines) == 3 + 40


def checkpoint_bytes(header) -> bytes:
    """A checkpoint file's magic and JSON header, with no parameters after it."""
    blob = json.dumps(header).encode()
    return b"FLWRMLP1" + len(blob).to_bytes(8, "little") + blob


UNUSABLE_CHECKPOINTS = {
    "corrupt": b"this is not a checkpoint",
    "header_not_object": checkpoint_bytes([3, 16, 2]),
    "bad_layer_sizes": checkpoint_bytes({"activation": "silu", "layer_sizes": "ab"}),
    "unreadable": b"",  # its read fails
}

# a usable checkpoint's bytes, damaged in its parameters
DAMAGED_CHECKPOINTS = {
    "truncated": lambda raw: raw[:-8],
    "trailing": lambda raw: raw + bytes(8),
    "non_finite": lambda raw: raw[:-8] + np.array([np.nan], "<f8").tobytes(),
}


class TestTrain:
    def test_checkpoint_and_loss_curve(self, mini_config, tmp_path):
        out = tmp_path / "trained"
        assert main(["train", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        ckpt = out / "checkpoint.flw"
        mlp, header = load_checkpoint(ckpt)
        assert mlp.layer_sizes == [3, 16, 16, 2]
        assert header["config_sha256"]
        lines = read_csv_body(out / "loss.csv")
        assert lines[2] == "step,loss"
        assert len(lines) == 3 + 40

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_checkpoint_bytes_are_the_parameter_vector(self, toy_prior, tmp_path, dtype):
        """After its header a checkpoint is the parameter vector as <f8, and load then
        save writes the same file again, for the trained network and its trainer-dtype copy."""
        cfg = TrainConfig(batch_size=32, steps=3, hidden_sizes=(8, 8), seed=3, dtype=dtype)
        field, _ = train_cfm(
            toy_prior.sample, standard_normal_sampler(2), IndependentCoupling(), cfg
        )
        ckpt, again = tmp_path / "a.flw", tmp_path / "b.flw"
        for mlp in (field.mlp, field.mlp.astype(dtype)):
            save_checkpoint(mlp, ckpt, extra={"config_sha256": "0" * 64})
            raw = ckpt.read_bytes()
            n = int.from_bytes(raw[8:16], "little")
            assert raw[16 + n :] == mlp.params.astype("<f8").tobytes()
            loaded, header = load_checkpoint(ckpt)
            save_checkpoint(loaded, again, extra=header)
            assert again.read_bytes() == raw

    def test_same_seed_identical_checkpoint_bytes(self, mini_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["train", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        assert (out_a / "checkpoint.flw").read_bytes() == (out_b / "checkpoint.flw").read_bytes()

    def test_solve_with_trained_checkpoint(self, mini_config, tmp_path):
        out = tmp_path / "trained"
        assert main(["train", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        text = MINI_TOY.replace(
            "kind = analytic", f"kind = mlp\ncheckpoint = {out / 'checkpoint.flw'}"
        )
        path = tmp_path / "mlp.cfg"
        path.write_text(text)
        solve_out = tmp_path / "mlp_solve"
        assert main(["solve", "--config", str(path), "--out", str(solve_out), "--quiet"]) == 0
        assert (solve_out / "flower_samples.csv").exists()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_solve_on_the_checkpoint_samples_the_trained_field(self, tmp_path, dtype):
        """train --seed N, then solve --seed N with kind = mlp on its checkpoint, samples
        exactly what run_batch does on the field train_cfm returns in memory."""
        text = MINI_TOY.replace("dtype = float64", f"dtype = {dtype}")
        path = tmp_path / "train.cfg"
        path.write_text(text)
        trained, out = tmp_path / "trained", tmp_path / "solved"
        assert main(["train", "--config", str(path), "--out", str(trained), "--seed", "4"]) == 0
        ckpt = trained / "checkpoint.flw"
        path.write_text(text.replace("kind = analytic", f"kind = mlp\ncheckpoint = {ckpt}"))
        assert main(["solve", "--config", str(path), "--out", str(out), "--seed", "4"]) == 0
        lines = read_csv_body(out / "flower_samples.csv")[3:]
        written = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines])

        cfg = load_config(path, seed_override=4)
        dim = cfg.prior.dim
        field, _ = train_cfm(
            cfg.prior.sample, standard_normal_sampler(dim), cfg.coupling, cfg.train, dim=dim
        )
        assert cfg.solver.n_avg == 1
        np.testing.assert_array_equal(
            written, run_batch(field, cfg.observation, cfg.solver, cfg.n_samples)
        )

    def test_field_kind_train_is_config_error(self, tmp_path, capsys):
        """Training happens in train alone; solve reads its checkpoint with kind = mlp."""
        path = tmp_path / "train_field.cfg"
        path.write_text(MINI_TOY.replace("kind = analytic", "kind = train"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert "[field] unknown kind 'train'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["solve", "train", "posterior-exact", "sample-prior"])
    @pytest.mark.parametrize(
        "defect",
        [
            "corrupt", "wrong_dimension", "header_not_object", "bad_layer_sizes", "unreadable",
            "truncated", "trailing", "non_finite",
        ],
    )
    def test_unusable_checkpoint_is_config_error(
        self, tmp_path, capsys, monkeypatch, defect, verb
    ):
        """A checkpoint that cannot drive the prior's field fails the config: every verb
        exits 2 before it writes anything."""
        ckpt = tmp_path / "checkpoint.flw"
        if defect == "wrong_dimension":
            # a field on R^3 (4 -> 3) against the mini toy's 2-D prior
            save_checkpoint(Mlp.initialize([4, 8, 3], np.random.default_rng(0)), ckpt)
        elif defect in DAMAGED_CHECKPOINTS:
            save_checkpoint(Mlp.initialize([3, 8, 2], np.random.default_rng(0)), ckpt)
            ckpt.write_bytes(DAMAGED_CHECKPOINTS[defect](ckpt.read_bytes()))
        else:
            ckpt.write_bytes(UNUSABLE_CHECKPOINTS[defect])
        if defect == "unreadable":
            monkeypatch.setattr(config, "load_checkpoint", io_error)
        path = tmp_path / "mlp.cfg"
        path.write_text(MINI_TOY.replace("kind = analytic", f"kind = mlp\ncheckpoint = {ckpt}"))
        with pytest.raises(ConfigError, match=r"\[field\] (unusable checkpoint|checkpoint holds)"):
            load_config(path)
        out = tmp_path / "out"
        assert main([verb, "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_train_leaves_no_directory(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text(MINI_TOY.replace("learning_rate = 0.001", "learning_rate = 1e300"))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_train_raises_no_floating_point_warning(self, tmp_path, capsys):
        """The loss check names the step; numpy's overflow warnings stay quiet."""
        path = tmp_path / "diverge.cfg"
        path.write_text(MINI_TOY.replace("learning_rate = 0.001", "learning_rate = 1e300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "loss became non-finite at step" in capsys.readouterr().err

    def test_failed_train_keeps_an_existing_directory(self, tmp_path):
        path = tmp_path / "diverge.cfg"
        path.write_text(MINI_TOY.replace("learning_rate = 0.001", "learning_rate = 1e300"))
        out = tmp_path / "earlier"
        out.mkdir()
        old = b"# an earlier run's loss curve\nstep,loss\n0,1.0\n"
        (out / "loss.csv").write_bytes(old)
        assert main(["train", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        assert [p.name for p in out.iterdir()] == ["loss.csv"]
        assert (out / "loss.csv").read_bytes() == old

    def test_train_requires_train_section(self, tmp_path):
        head, rest = MINI_TOY.split("[train]", 1)
        tail = rest.split("[solver]", 1)[1]
        path = tmp_path / "notrain.cfg"
        path.write_text(head + "[solver]" + tail)
        assert main(["train", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG


DISK_FULL = "[Errno 28] No space left on device"


def disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


def io_error(*args, **kwargs):
    raise OSError(5, "Input/output error")


class TestStagedOutput:
    """Every writing verb publishes its files whole, or leaves the directory as it was."""

    @pytest.mark.parametrize("verb", ["train", "solve", "posterior-exact", "sample-prior"])
    def test_success_leaves_no_scratch_directory(self, mini_config, tmp_path, verb):
        out = tmp_path / "out"
        for _ in range(2):  # into a new directory, then into the existing one
            assert main([verb, "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
            entries = list(out.iterdir())
            assert entries and all(p.is_file() and not p.name.startswith(".") for p in entries)

    def test_metrics_are_published_last(self, mini_config, tmp_path, monkeypatch):
        moved, replace = [], os.replace

        def record(src, dst):
            moved.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", record)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        assert moved[-1] == "metrics.json"
        assert sorted(moved) == sorted(p.name for p in out.iterdir())

    def test_interrupted_train_keeps_the_earlier_files(
        self, mini_config, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "trained"
        argv = ["train", "--config", str(mini_config), "--out", str(out), "--quiet"]
        assert main(argv) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(earlier) == ["checkpoint.flw", "loss.csv"]
        monkeypatch.setattr(cli, "write_loss_csv", disk_full)
        assert main(argv + ["--seed", "9"]) == cli.EXIT_OUTPUT  # another seed: another checkpoint
        assert capsys.readouterr().err == f"output failure: {out}: {DISK_FULL}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_a_directory_where_metrics_go_moves_no_file(
        self, mini_config, tmp_path, capsys
    ):
        """metrics.json, published last, is a directory: solve fails with nothing moved."""
        out = tmp_path / "out"
        (out / "metrics.json").mkdir(parents=True)
        (out / "flower_samples.csv").write_text("old\n")
        argv = ["solve", "--config", str(mini_config), "--out", str(out), "--quiet"]
        assert main(argv) == cli.EXIT_OUTPUT
        assert capsys.readouterr().err == (
            f"output failure: {out}: {out / 'metrics.json'} is a directory\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["flower_samples.csv", "metrics.json"]
        assert (out / "flower_samples.csv").read_text() == "old\n"
        assert not any((out / "metrics.json").iterdir())

    @pytest.mark.parametrize(
        "verb, failing",
        [
            ("posterior-exact", "write_samples_csv"),
            ("sample-prior", "write_samples_csv"),
            ("sample-prior", "tempfile.mkdtemp"),
        ],
        ids=["posterior-exact", "sample-prior", "scratch-directory"],
    )
    def test_failed_write_removes_the_directories_it_created(
        self, mini_config, tmp_path, monkeypatch, capsys, verb, failing
    ):
        monkeypatch.setattr(f"flower_lab.cli.{failing}", disk_full)
        out = tmp_path / "new" / "out"
        code = main([verb, "--config", str(mini_config), "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OUTPUT
        assert capsys.readouterr().err == f"output failure: {out}: {DISK_FULL}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["mini.cfg"]

    def test_failed_run_keeps_files_another_run_placed_under_a_created_parent(
        self, mini_config, tmp_path, monkeypatch, capsys
    ):
        """A train into new/a fails after a sample-prior published into new/b."""
        other = tmp_path / "new" / "b"

        def publish_other_then_fail(*args, **kwargs):
            argv = ["sample-prior", "--config", str(mini_config), "--out", str(other), "--quiet"]
            assert main(argv) == 0
            disk_full()

        monkeypatch.setattr(cli, "write_loss_csv", publish_other_then_fail)
        out = tmp_path / "new" / "a"
        code = main(["train", "--config", str(mini_config), "--out", str(out), "--quiet"])
        assert code == cli.EXIT_OUTPUT
        assert capsys.readouterr().err == f"output failure: {out}: {DISK_FULL}\n"
        assert not out.exists()
        assert [p.name for p in other.iterdir()] == ["prior_samples.csv"]

    def test_other_posterior_value_error_is_not_numerical(
        self, mini_config, tmp_path, monkeypatch
    ):
        def mismatch(prior, obs):
            raise ValueError("x has dimension 3, expected 2")

        monkeypatch.setattr(cli, "posterior_linear_gaussian", mismatch)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="dimension 3"):
            main(["posterior-exact", "--config", str(mini_config), "--out", str(out), "--quiet"])
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["solve", "posterior-exact"])
    def test_failed_exact_posterior_exits_3(self, tmp_path, capsys, verb):
        """y = 1e160: the residuals' squares overflow the weights, which the posterior refuses."""
        path = tmp_path / "far.cfg"
        path.write_text(MINI_TOY.replace("y = [1.0]", "y = [1e160]"))
        out = tmp_path / "out"
        assert main([verb, "--config", str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        why = "weights, means or covariance factor not finite"
        assert err == f"numerical failure: exact posterior: {why}\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["solve", "posterior-exact"])
    def test_huge_row_is_solved(self, tmp_path, verb):
        """h = [1e200, 1e200]: S^2 would overflow, sqrt(S^2 + s^2) does not."""
        path = tmp_path / "huge.cfg"
        path.write_text(MINI_TOY.replace("h = [1.5, 1.5]", "h = [1e200, 1e200]"))
        out = tmp_path / "out"
        assert main([verb, "--config", str(path), "--out", str(out), "--quiet"]) == 0
        lines = read_csv_body(out / "exact_posterior_samples.csv")
        samples = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[3:]])
        # the data pin x along h to y / |h| (about 3.5e-201), up to the samples' rounding
        assert np.max(np.abs(samples @ [1.0, 1.0])) <= 1e-15
        assert np.std(samples @ [1.0, -1.0]) > 0.1

    def test_non_finite_metric_exits_3_and_publishes_nothing(self, tmp_path, capsys):
        """A prior covariance of 1e306 overflows the sample moments; metrics.json holds JSON."""
        path = tmp_path / "overflow.cfg"
        path.write_text(MINI_TOY.replace("covariance = 0.0625", "covariance = 1e306"))
        out = tmp_path / "earlier"
        out.mkdir()
        (out / "metrics.json").write_text("{}\n")
        assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: metrics: ")
        assert [p.name for p in out.iterdir()] == ["metrics.json"]
        assert (out / "metrics.json").read_text() == "{}\n"


class TestBundledRuns:
    def test_inpaint16_solve_reports_small_residual(self, tmp_path):
        out = tmp_path / "inpaint"
        assert main(
            ["solve", "--config", str(CONFIGS_DIR / "inpaint16.cfg"), "--out", str(out), "--quiet"]
        ) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["residual_linf"] <= 5e-3

    def test_blur32_solve_runs_clean(self, tmp_path):
        out = tmp_path / "blur"
        assert main(
            ["solve", "--config", str(CONFIGS_DIR / "blur32.cfg"), "--out", str(out), "--quiet"]
        ) == 0
        doc = json.loads((out / "metrics.json").read_text())
        metrics = {r["metric"]: r["value"] for r in doc["reports"]}
        floor = metrics["sliced_w2_noise_floor"]
        assert metrics["sliced_w2_flower_vs_exact_posterior"] <= 10 * floor


class TestInvariantsCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert main(["invariants"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # one line per invariant with measured value and bound
        lines = [ln for ln in out.splitlines() if "value=" in ln]
        assert len(lines) == 12
        assert all("bound=" in ln for ln in lines)

    def test_corrupted_schedule_fails_moment_checks(self, capsys, monkeypatch):
        """A wrong uncertainty schedule must trip the refinement moments."""
        monkeypatch.setattr(
            flower, "nu", lambda t: 0.5 * (1.0 - t) / np.sqrt(t * t + (1.0 - t) ** 2)
        )
        assert main(["invariants"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "refinement moments" in out and "FAIL" in out

    def test_sign_flipped_schedule_fails_schedule_check(self, capsys, monkeypatch):
        """A sign flip is invisible to the squared terms but not to the
        schedule endpoints check."""
        monkeypatch.setattr(
            flower, "nu", lambda t: -(1.0 - t) / np.sqrt(t * t + (1.0 - t) ** 2)
        )
        assert main(["invariants"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "uncertainty schedule" in out and "FAIL" in out
