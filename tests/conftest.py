"""Shared fixtures: the reference 2-D mixture and its two measurement setups."""

import numpy as np
import pytest

from flower_lab.gmm import GaussianMixture, LinearGaussianObservation
from flower_lab.operators import DenseOperator

TOY_WEIGHTS = np.array([1.0, 1.0, 1.0]) / 3.0
TOY_MEANS = np.array([[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25]])
TOY_COV = 0.25**2


def blur_kernel(d, width=2.0):
    """A periodic Gaussian blur kernel of unit sum, as in the bundled blur configs."""
    j = np.minimum(np.arange(d), d - np.arange(d))
    k = np.exp(-0.5 * (j / width) ** 2)
    return k / k.sum()

# The first toy problem as an experiment config, scaled down for the CLI.
MINI_TOY = """\
[prior]
weights = [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]
means = [[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25]]
covariance = 0.0625

[observation]
operator = row_vector
h = [1.5, 1.5]
noise_std = 0.25
y = [1.0]

[field]
kind = analytic

[train]
batch_size = 64
steps = 40
learning_rate = 0.001
seed = 3
hidden_sizes = (16, 16)
dtype = float64

[solver]
n_steps = 25
gamma = 1
seed = 5
n_samples = 40
record_trajectory = false
n_trajectories = 2

[baselines]
exact_posterior_samples = true
unconditional_samples = true

[outputs]
directory = out
"""


@pytest.fixture(scope="session")
def toy_prior():
    return GaussianMixture(TOY_WEIGHTS, TOY_MEANS, TOY_COV)


@pytest.fixture(scope="session")
def toy1_obs():
    return LinearGaussianObservation(
        operator=DenseOperator([[1.5, 1.5]]), noise_std=0.25, observation=[1.0]
    )


@pytest.fixture(scope="session")
def toy2_obs():
    return LinearGaussianObservation(
        operator=DenseOperator([[1.5, -1.5]]), noise_std=0.75, observation=[1.0]
    )
