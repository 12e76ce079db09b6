"""Flow-matching posterior-sampling laboratory for linear inverse problems."""

from .gmm import (
    GaussianMixture,
    LinearGaussianObservation,
    analytic_velocity,
    conditional_mean_x1,
    marginal_at_time,
    posterior_linear_gaussian,
)
from .operators import (
    Circulant1DOperator,
    DenseOperator,
    LinearOperator,
    MaskOperator,
    ScaledIdentityOperator,
    SpdSolveError,
    solve_spd,
)

__version__ = "0.1.0"
