"""Start-up cost: the solve path and independent training load no scipy module.

Importing scipy takes about half a second, more than a small solve, so only
the code that needs it loads it: exact minibatch OT (`linear_sum_assignment`)
and with it the `invariants` command.  Each case runs in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MINI_TOY

ROOT = Path(__file__).resolve().parent.parent


def scipy_modules_after(statements, cwd):
    """The scipy modules in sys.modules after running statements in a new interpreter."""
    listing = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    script = "\n".join(["import sys", *statements, listing])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def cli_main(*argv):
    return [f"from flower_lab import cli; assert cli.main({list(argv)!r}) == 0"]


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after(["import flower_lab.cli"], tmp_path) == []


@pytest.mark.parametrize("name", ["inpaint16", "blur32"])
def test_solve_loads_no_scipy(tmp_path, name):
    config = str(ROOT / "configs" / f"{name}.cfg")
    argv = ("solve", "--config", config, "--out", str(tmp_path / "out"), "--quiet")
    assert scipy_modules_after(cli_main(*argv), tmp_path) == []
    assert (tmp_path / "out" / "exact_posterior_samples.csv").is_file()


@pytest.mark.parametrize("coupling", ["independent", "minibatch_ot"])
def test_only_exact_ot_training_loads_scipy(tmp_path, coupling):
    config = tmp_path / "mini.cfg"
    config.write_text(MINI_TOY.replace("[train]\n", f"[train]\ncoupling = {coupling}\n"))
    argv = ("train", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet")
    loaded = scipy_modules_after(cli_main(*argv), tmp_path)
    if coupling == "independent":
        assert loaded == []
    else:
        assert "scipy.optimize" in loaded
