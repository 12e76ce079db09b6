"""Config files the benchmark writes from its seed.

Each writer takes a config the program ships (or none, for blur128) and
writes a new config file into the benchmark's work directory.  The program
only ever sees these files and the `--seed` argument.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

BLUR128_DIM = 128
BLUR128_STEPS = 100
BLUR128_SAMPLES = 16


def _read(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(Path(path).read_text())
    return parser


def _write(parser: configparser.ConfigParser, path: Path) -> Path:
    with open(path, "w", newline="\n") as fh:
        parser.write(fh)
    return path


def _array(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def train_config(toy1: Path, path: Path, coupling: str, steps: int, batch_size: int) -> Path:
    """toy1's prior and trainer settings with the step count, batch and coupling set."""
    parser = _read(toy1)
    parser["train"]["coupling"] = coupling
    parser["train"]["steps"] = str(steps)
    parser["train"]["batch_size"] = str(batch_size)
    return _write(parser, path)


def solver_config(shipped: Path, path: Path, n_samples: int) -> Path:
    """A shipped config with only the number of posterior samples changed."""
    parser = _read(shipped)
    parser["solver"]["n_samples"] = str(n_samples)
    return _write(parser, path)


def blur128_config(seed: int, path: Path) -> Path:
    """A 128-D periodic deblur in the style of blur32.cfg, drawn from `seed`.

    Two smooth components 0.6 sin(2 pi f j / d + phase) with distinct
    frequencies f in 1..4 and uniform phases, isotropic covariance 0.15^2,
    the Gaussian circulant kernel of std 2 samples, noise 0.05, and an
    observation generated from a draw of the first component.
    """
    d = BLUR128_DIM
    rng = np.random.default_rng([seed, d])
    j = np.arange(d)
    freqs = rng.choice(np.arange(1, 5), size=2, replace=False)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    means = 0.6 * np.sin(2.0 * np.pi * freqs[:, None] * j / d + phases[:, None])
    lag = np.minimum(j, d - j)
    kernel = np.exp(-0.5 * (lag / 2.0) ** 2) / np.sqrt(2.0 * np.pi * 4.0)
    truth = means[0] + 0.15 * rng.standard_normal(d)
    blurred = np.real(np.fft.ifft(np.fft.fft(kernel) * np.fft.fft(truth)))
    y = blurred + 0.05 * rng.standard_normal(d)

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["prior"] = {
        "weights": "[0.5, 0.5]",
        "means": "[" + ", ".join(_array(m) for m in means) + "]",
        "covariance": "0.0225",
    }
    parser["observation"] = {
        "operator": "circulant1d",
        "kernel": _array(kernel),
        "noise_std": "0.05",
        "y": _array(y),
    }
    parser["field"] = {"kind": "analytic"}
    parser["solver"] = {
        "n_steps": str(BLUR128_STEPS),
        "gamma": "1",
        "seed": str(seed),
        "n_avg": "1",
        "n_samples": str(BLUR128_SAMPLES),
        "record_trajectory": "false",
    }
    parser["baselines"] = {
        "exact_posterior_samples": "true",
        "unconditional_samples": "false",
    }
    parser["outputs"] = {"directory": "out/blur128"}
    return _write(parser, path)
