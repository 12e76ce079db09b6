"""CLI verbs, file formats, exit codes and output determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from flower_lab import cli, flower
from flower_lab.cli import fmt_float, main
from flower_lab.config import ConfigError, load_config
from flower_lab.mlp import Mlp, load_checkpoint, save_checkpoint

from conftest import MINI_TOY

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


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


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["toy1", "toy2", "inpaint16", "blur32"])
    def test_parses_and_is_consistent(self, name):
        cfg = load_config(CONFIGS_DIR / f"{name}.cfg")
        assert cfg.observation.operator.in_dim == cfg.prior.dim
        assert cfg.solver.noise_std == cfg.observation.noise_std


class TestConfigErrors:
    def test_missing_file_exits_2_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["solve", "--config", str(missing)]) == cli.EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

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
            assert load_config(path).solver.n_trajectories == n_trajectories
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

    def test_checkpoint_must_exist_for_mlp_field(self, tmp_path):
        text = MINI_TOY.replace(
            "kind = analytic", "kind = mlp\ncheckpoint = missing.flw"
        )
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="checkpoint"):
            load_config(path)


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

        monkeypatch.setattr(cli, "AnalyticGmmField", NanAtStep3)
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
        assert np.all(np.abs(rows.mean(axis=0) - post.mean()) <= 3 * se)


class TestSamplePrior:
    def test_writes_prior_samples(self, mini_config, tmp_path):
        out = tmp_path / "prior"
        assert main(["sample-prior", "--config", str(mini_config), "--out", str(out), "--quiet"]) == 0
        lines = read_csv_body(out / "prior_samples.csv")
        assert len(lines) == 3 + 40


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

    def test_solve_seed_reseeds_in_process_trainer(self, tmp_path):
        """With kind = train, solve --seed N trains exactly what train --seed N does."""
        path = tmp_path / "train_field.cfg"
        path.write_text(MINI_TOY.replace("kind = analytic", "kind = train"))

        def checkpoint(verb, seed):
            out = tmp_path / f"{verb}-{seed}"
            args = [verb, "--config", str(path), "--out", str(out), "--seed", str(seed), "--quiet"]
            assert main(args) == 0
            return (out / "checkpoint.flw").read_bytes()

        solved = {seed: checkpoint("solve", seed) for seed in (1, 2)}
        assert solved[1] != solved[2]
        for seed in (1, 2):
            assert solved[seed] == checkpoint("train", seed)

    @pytest.mark.parametrize("defect", ["corrupt", "wrong_dimension"])
    def test_unusable_checkpoint_is_config_error(self, tmp_path, capsys, defect):
        """A checkpoint that cannot drive the prior's field exits 2 before sampling."""
        ckpt = tmp_path / "checkpoint.flw"
        if defect == "corrupt":
            ckpt.write_bytes(b"this is not a checkpoint")
        else:
            # a field on R^3 (4 -> 3) against the mini toy's 2-D prior
            save_checkpoint(Mlp.initialize([4, 8, 3], np.random.default_rng(0)), ckpt)
        path = tmp_path / "mlp.cfg"
        path.write_text(MINI_TOY.replace("kind = analytic", f"kind = mlp\ncheckpoint = {ckpt}"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_train_requires_train_section(self, tmp_path):
        head, rest = MINI_TOY.split("[train]", 1)
        tail = rest.split("[solver]", 1)[1]
        path = tmp_path / "notrain.cfg"
        path.write_text(head + "[solver]" + tail)
        assert main(["train", "--config", str(path), "--quiet"]) == cli.EXIT_CONFIG


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
