"""A seeded fuzzer: every input to the writing verbs gets an exit code, never a traceback.

Case i is one random experiment config drawn from ``random.Random(i)``:
d in {1, 2, 3, 8, 33}, up to three components, every operator kind, entries
and noise levels from 1e-300 to 1e300, 7 solver steps and 4 samples; every
fifth case also has a tiny [train] section.  ``sample-prior``,
``posterior-exact``, ``solve`` and, with [train], ``train`` run in-process
through ``cli.main``, and after a ``train`` that exits 0, a ``solve`` through
its checkpoint.  Each command runs into one output directory per case, which
already holds a file, and must:

* exit with 0, 2, 3 or 4 (1 is only ``invariants`` failing);
* on a failure, name its layer on stderr;
* on exit 0, write only finite numbers;
* on a failure, leave the output directory byte-for-byte as it was;
* on exit 0, write the same bytes when run again.

numpy's floating-point warnings are ignored, as the command line prints them
and carries on; the suite's warnings-as-errors filter would turn them into
exceptions that the command line never raises.
"""

import contextlib
import io
import json
import math
import random
import re
import traceback
import warnings

import numpy as np

from flower_lab import cli
from flower_lab.mlp import load_checkpoint

N_CASES = 700
DIMS = (1, 2, 3, 8, 33)
OPERATORS = ("row_vector", "dense", "mask", "circulant1d", "scaled_identity")

# each failing exit code and the stderr of the layers that may report it
LAYERS = {
    cli.EXIT_CONFIG: r"config error: ",
    cli.EXIT_NUMERICAL: (
        r"numerical failure: (step \d+: |exact posterior: |metrics: "
        r"|exact OT: .* at training step \d+\n$"
        r"|(loss|parameters) became non-finite at step \d+\n$)"
    ),
    cli.EXIT_OUTPUT: r"output failure: ",
}


def _number(rng: random.Random) -> float:
    """Mostly a plain value, else a signed magnitude from 1e-300 to 1e300."""
    if rng.random() < 0.7:
        return round(rng.uniform(-2.0, 2.0), 3)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)


def _positive(rng: random.Random) -> float:
    if rng.random() < 0.6:
        return round(rng.uniform(0.01, 2.0), 3)
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _array(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def _matrix(rows) -> str:
    return "[" + ", ".join(_array(r) for r in rows) + "]"


def _vector(rng, n):
    return [_number(rng) for _ in range(n)]


def _covariance(rng: random.Random, d: int) -> str:
    kind = rng.random()
    if kind < 0.6:
        return repr(_positive(rng))
    if kind < 0.8:
        return _matrix([[_positive(rng) if i == j else 0.0 for j in range(d)] for i in range(d)])
    # A A^T + c I: symmetric positive definite, up to rounding at large c
    a = [[round(rng.uniform(-1.0, 1.0), 3) for _ in range(d)] for _ in range(d)]
    shift = _positive(rng)
    gram = [[sum(p * q for p, q in zip(a[i], a[j])) for j in range(d)] for i in range(d)]
    for i, row in enumerate(gram):
        row[i] += shift
    return _matrix(gram)


def _observation(rng: random.Random, d: int) -> list[str]:
    kind = rng.choice(OPERATORS)
    lines = [f"operator = {kind}"]
    if kind == "row_vector":
        lines.append(f"h = {_array(_vector(rng, d))}")
        m = 1
    elif kind == "dense":
        m = rng.randint(1, 3)
        lines.append(f"matrix = {_matrix(_vector(rng, d) for _ in range(m))}")
    elif kind == "mask":
        kept = sorted(rng.sample(range(d), rng.randint(0, d)))
        lines += [f"kept = {kept}", f"dim = {d}"]
        m = len(kept)
    elif kind == "circulant1d":
        lines.append(f"kernel = {_array(_vector(rng, d))}")
        m = d
    else:
        lines += [f"scale = {_number(rng)!r}", f"dim = {d}"]
        m = d
    lines += [f"noise_std = {_positive(rng)!r}", f"y = {_array(_vector(rng, m))}"]
    return lines


def fuzz_config(i: int) -> str:
    """The config text of case i."""
    rng = random.Random(i)
    d = rng.choice(DIMS)
    k = rng.randint(1, 3)
    counts = [rng.randint(0 if k > 1 else 1, 4) for _ in range(k)]
    if not any(counts):
        counts[0] = 1
    sections = {
        "prior": [
            f"weights = {_array(c / sum(counts) for c in counts)}",
            f"means = {_matrix(_vector(rng, d) for _ in range(k))}",
            f"covariance = {_covariance(rng, d)}",
        ],
        "observation": _observation(rng, d),
        "field": ["kind = analytic"],
        "solver": [
            "n_steps = 7",
            f"gamma = {rng.randint(0, 1)}",
            f"seed = {rng.randint(0, 999)}",
            f"n_avg = {rng.randint(1, 2)}",
            "n_samples = 4",
            f"record_trajectory = {rng.choice(('true', 'false'))}",
            f"n_trajectories = {rng.randint(1, 4)}",
        ],
        "baselines": [
            f"exact_posterior_samples = {rng.choice(('true', 'false'))}",
            f"unconditional_samples = {rng.choice(('true', 'false'))}",
        ],
        "outputs": ["directory = out"],
    }
    if i % 5 == 0:
        sections["train"] = [
            f"batch_size = {rng.randint(1, 65)}",
            f"steps = {rng.randint(1, 3)}",
            f"learning_rate = {10.0 ** rng.uniform(-4.0, rng.choice((-1.0, 300.0)))!r}",
            f"seed = {rng.randint(0, 999)}",
            "hidden_sizes = (4, 4)",
            f"coupling = {rng.choice(('independent', 'minibatch_ot'))}",
            f"dtype = {rng.choice(('float32', 'float64'))}",
        ]
    return "".join(f"[{name}]\n" + "\n".join(body) + "\n\n" for name, body in sections.items())


def run(argv) -> tuple[object, str]:
    """main(argv)'s exit code, or the escaping exception's traceback, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main(argv)
            except Exception:  # noqa: BLE001 - a traceback is what the fuzzer finds
                code = traceback.format_exc()
    return code, err.getvalue()


def snapshot(directory) -> dict:
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def _finite_numbers(path) -> bool:
    if path.suffix == ".json":
        numbers = []
        json.loads(
            path.read_text(),
            parse_constant=lambda c: numbers.append(math.inf) or 0.0,
            parse_float=lambda s: numbers.append(float(s)) or 0.0,
        )
        return all(math.isfinite(v) for v in numbers)
    if path.suffix == ".flw":
        try:
            return bool(np.isfinite(load_checkpoint(path)[0].params).all())
        except ValueError:  # the network refuses a non-finite vector
            return False
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a column name or a trajectory stage
            if not math.isfinite(value):
                return False
    return True


def check(argv, out) -> tuple[object, list[str]]:
    """Run argv into out; return its exit code and the properties it broke."""
    before = snapshot(out)
    code, err = run(argv)
    if code not in (0, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_OUTPUT):
        return code, [code if isinstance(code, str) else f"exit {code}\n{err}"]
    if code:
        broken = []
        if not re.match(LAYERS[code], err):
            broken.append(f"exit {code} names no layer: {err!r}")
        if snapshot(out) != before:
            broken.append(f"exit {code} changed the output directory")
        return code, broken
    after = snapshot(out)
    broken = [
        f"{p.name} is a directory or holds a non-finite number"
        for p in out.iterdir()
        if not (p.is_file() and _finite_numbers(p))
    ]
    rerun, _ = run(argv)
    if rerun != 0 or snapshot(out) != after:
        broken.append(f"the rerun did not exit 0 with the same bytes: {rerun}")
    return code, broken


def fuzz_case(i: int, directory) -> tuple[list, list[str]]:
    """Case i's (verb, exit code) pairs and broken properties, run under directory."""
    text = fuzz_config(i)
    path = directory / "case.cfg"
    path.write_text(text)
    out = directory / "out"
    out.mkdir()
    (out / "earlier.csv").write_text("step,loss\n0,1.5\n")
    verbs = ["sample-prior", "posterior-exact", "solve"] + (["train"] if "[train]" in text else [])
    codes, broken = [], []
    for verb in verbs:
        code, why = check([verb, "--config", str(path), "--out", str(out), "--quiet"], out)
        codes.append((verb, code))
        broken += [f"{verb}: {w}" for w in why]
        if verb == "train" and code == 0:
            ckpt = directory / "ckpt.cfg"
            field = "kind = mlp\ncheckpoint = out/checkpoint.flw"
            ckpt.write_text(text.replace("kind = analytic", field))
            code, why = check(["solve", "--config", str(ckpt), "--out", str(out), "--quiet"], out)
            codes.append(("solve-checkpoint", code))
            broken += [f"solve-checkpoint: {w}" for w in why]
    return codes, broken


def test_every_input_gets_an_exit_code(tmp_path):
    failures = []
    for i in range(N_CASES):
        directory = tmp_path / f"case{i}"
        directory.mkdir()
        _, broken = fuzz_case(i, directory)
        if broken:
            failures.append(f"case {i}:\n" + "\n".join(broken) + "\n" + fuzz_config(i))
    head = f"{len(failures)} of {N_CASES} cases failed, the first five:\n\n"
    assert not failures, head + "\n\n".join(failures[:5])
