"""PAC-Bayesian meta-learning bounds, learners, and auditing tools.

The package evaluates per-task and multi-task generalization bounds for
stochastic models, trains a two-prior meta-learner whose objective is one
of those bounds, and audits the bounds' high-probability guarantees by
Monte Carlo on synthetic task environments. A batch CLI (metabounds)
exposes sweeps, training, adaptation, auditing, and a bound calculator.
"""

from .gauss import (
    DiagonalGaussian,
    expected_kl_under_gaussian_mean,
    isotropic,
    kl_diag_gaussian,
)

__all__ = [
    "DiagonalGaussian",
    "expected_kl_under_gaussian_mean",
    "isotropic",
    "kl_diag_gaussian",
]

__version__ = "0.1.0"
