"""Diagonal Gaussian distributions over real weight vectors.

This family carries every distribution in the package: priors and
posteriors over model weights and meta-level distributions over prior
parameters. Variances are stored in log space so that gradient-based
optimization of them is unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiagonalGaussian:
    """N(mean, diag(exp(log_var))) over vectors of dimension d >= 1."""

    mean: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        log_var = np.asarray(self.log_var, dtype=np.float64)
        if mean.ndim != 1 or log_var.ndim != 1:
            raise ValueError("mean and log_var must be 1-d vectors")
        if mean.shape != log_var.shape:
            raise ValueError(
                f"dimension mismatch: mean has {mean.shape[0]}, "
                f"log_var has {log_var.shape[0]}"
            )
        if mean.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(log_var)):
            raise ValueError("mean and log_var entries must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_var", log_var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def var(self) -> np.ndarray:
        return np.exp(self.log_var)

    @property
    def std(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var)


def isotropic(mean: np.ndarray, variance: float) -> DiagonalGaussian:
    """Convenience constructor for N(mean, variance * I)."""
    mean = np.asarray(mean, dtype=np.float64)
    if variance <= 0.0:
        raise ValueError("variance must be positive")
    return DiagonalGaussian(mean, np.full(mean.shape, np.log(variance)))


def kl_diag_gaussian(q: DiagonalGaussian, p: DiagonalGaussian) -> float:
    """Exact KL(q || p) between diagonal Gaussians.

    Per coordinate the closed form is
    (sq^2 + (mq - mp)^2) / (2 sp^2) - 1/2 + log(sp / sq),
    summed over coordinates. Nonnegative, and exactly zero when the
    parameter vectors coincide.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {p.dim}")
    return float(kl_diag_arrays(q.mean, q.log_var, p.mean, p.log_var))


def kl_diag_arrays(q_mean: np.ndarray, q_log_var: np.ndarray, p_mean: np.ndarray,
                   p_log_var: np.ndarray) -> np.ndarray:
    """:func:`kl_diag_gaussian` on parameter arrays: the last axis holds the
    coordinates and leading axes broadcast, one divergence per row."""
    dlv = q_log_var - p_log_var
    delta = q_mean - p_mean
    terms = np.exp(dlv) + delta * delta * np.exp(-p_log_var) - 1.0 - dlv
    return 0.5 * np.sum(terms, axis=-1)


def expected_kl_under_gaussian_mean(
    q: DiagonalGaussian, hyper: DiagonalGaussian, prior_var: float
) -> float:
    """E over mu_P ~ hyper of KL(q || N(mu_P, prior_var * I)), in closed form.

    Averaging the quadratic (mq - mu_P)^2 term over the Gaussian hyper
    distribution adds its per-coordinate variance, so the expectation equals

        KL(q || N(mean(hyper), prior_var * I)) + sum_i var(hyper)_i / (2 prior_var).

    Parameters
    ----------
    q : posterior over weights
    hyper : distribution over the prior mean mu_P
    prior_var : shared per-coordinate variance of the prior family
    """
    if q.dim != hyper.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {hyper.dim}")
    return float(expected_kl_arrays(q.mean, q.log_var, hyper, prior_var))


def expected_kl_arrays(q_mean: np.ndarray, q_log_var: np.ndarray,
                       hyper: DiagonalGaussian, prior_var: float) -> np.ndarray:
    """:func:`expected_kl_under_gaussian_mean` for posteriors given as
    parameter arrays (..., d), one expectation per row."""
    if prior_var <= 0.0:
        raise ValueError("prior_var must be positive")
    center = isotropic(hyper.mean, prior_var)
    spread = float(np.sum(hyper.var)) / (2.0 * prior_var)
    return kl_diag_arrays(q_mean, q_log_var, center.mean, center.log_var) + spread


def expected_kl_fixed_spread_arrays(q_mean: np.ndarray, q_log_var: np.ndarray,
                                    p_mean: np.ndarray, p_log_var: np.ndarray,
                                    spread_var: float) -> np.ndarray:
    """E of KL(q || N(a', diag exp(b'))) over (a', b') ~ N((p_mean, p_log_var),
    spread_var I), in closed form; posteriors as in :func:`kl_diag_arrays`.

    With s = spread_var, E[exp(-b')] = exp(-b + s/2) and E[(mq - a')^2] =
    (mq - a)^2 + s, so per coordinate the expectation is
    (b - lv_q + (vq + (mq - a)^2 + s) exp(-b + s/2) - 1) / 2, which is
    KL(q || N(a, exp(b - s/2))) + s (exp(-b + s/2) + 1/2) / 2.
    """
    shifted = p_log_var - 0.5 * spread_var
    spread = 0.5 * spread_var * np.sum(np.exp(-shifted) + 0.5)
    return kl_diag_arrays(q_mean, q_log_var, p_mean, shifted) + spread
