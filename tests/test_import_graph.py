"""Start-up cost: the solve path and independent training load no scipy module.

Importing scipy.optimize takes about half a second and 40 MB, more than a
small solve, so only the code that needs it loads scipy at all: exact
minibatch OT and with it the `invariants` command.  Even they load only the
compiled `linear_sum_assignment` extension, `scipy.optimize._lsap`, never the
`scipy.optimize` package.  Each case runs in a fresh interpreter, since
in-process tests import `scipy.optimize` through `tests/oracles.py`.
"""

import ast
import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MINI_TOY
from flower_lab import flow

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
        assert "scipy.optimize._lsap" in loaded
        assert "scipy.optimize" not in loaded


def test_invariants_load_only_the_assignment_extension(tmp_path):
    loaded = scipy_modules_after(cli_main("invariants", "--quiet"), tmp_path)
    assert "scipy.optimize._lsap" in loaded
    assert "scipy.optimize" not in loaded


def test_public_import_reuses_the_loaded_solver(tmp_path):
    """`import scipy.optimize` after the direct load exports the very same solver."""
    statements = [
        "from flower_lab.flow import _linear_sum_assignment",
        "direct = _linear_sum_assignment()",
        "assert 'scipy.optimize' not in sys.modules",
        "from scipy.optimize import linear_sum_assignment",
        "assert linear_sum_assignment is direct",
        "assert _linear_sum_assignment() is direct",
    ]
    assert "scipy.optimize" in scipy_modules_after(statements, tmp_path)


def test_solver_without_the_extension_takes_the_public_import(monkeypatch):
    """A scipy laid out without `optimize/_lsap` as an extension still gets its solver."""
    import scipy.optimize

    find_spec = importlib.machinery.PathFinder.find_spec

    def no_lsap(name, path=None, target=None):
        return None if name == "scipy.optimize._lsap" else find_spec(name, path, target)

    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_lsap)
    assert flow._linear_sum_assignment() is scipy.optimize.linear_sum_assignment
    assert "scipy.optimize._lsap" not in sys.modules
