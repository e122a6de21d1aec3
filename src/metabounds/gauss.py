"""Closed-form divergences of diagonal Gaussians over real weight vectors.

Every distribution in the package is a diagonal Gaussian, and there is no
distribution class: a Gaussian over d weights is its flat ``(2d,)`` row, d
means then d log-variances, which training descends and pricing reads; the
``*_arrays`` forms take the two halves apart, with leading axes that
broadcast. Log-variances keep the optimization of variances unconstrained.
"""

from __future__ import annotations

import math

import numpy as np


def _halves(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """The means and log-variances of the (2d,) rows q and p, in that
    order; the rows must have one, even shape."""
    if q.shape != p.shape or q.ndim != 1 or q.size % 2:
        raise ValueError(f"rows must share one even length: {q.shape} vs {p.shape}")
    d = q.size // 2
    return q[:d], q[d:], p[:d], p[d:]


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """The standard normal distribution function Phi(z) = (1 + erf(z / sqrt 2)) / 2,
    elementwise, of a float array of any shape."""
    # numpy has no erf, and math.erf is fastest on Python floats
    erfs = np.fromiter(map(math.erf, (z / math.sqrt(2.0)).ravel().tolist()),
                       dtype=np.float64, count=z.size)
    return 0.5 * (1.0 + erfs.reshape(z.shape))


def kl_diag_gaussian(q: np.ndarray, p: np.ndarray) -> float:
    """Exact KL(q || p) between diagonal Gaussians given as (2d,) rows.

    Per coordinate the closed form is
    (sq^2 + (mq - mp)^2) / (2 sp^2) - 1/2 + log(sp / sq),
    summed over coordinates. Nonnegative, and exactly zero when the
    parameter vectors coincide.
    """
    return float(kl_diag_arrays(*_halves(q, p)))


def kl_diag_arrays(q_mean: np.ndarray, q_log_var: np.ndarray, p_mean: np.ndarray,
                   p_log_var: np.ndarray) -> np.ndarray:
    """:func:`kl_diag_gaussian` on parameter arrays: the last axis holds the
    coordinates and leading axes broadcast, one divergence per row."""
    dlv = q_log_var - p_log_var
    delta = q_mean - p_mean
    terms = np.exp(dlv) + delta * delta * np.exp(-p_log_var) - 1.0 - dlv
    return 0.5 * np.sum(terms, axis=-1)


def expected_kl_under_gaussian_mean(q: np.ndarray, hyper: np.ndarray, prior_var: float) -> float:
    """E over mu_P ~ hyper of KL(q || N(mu_P, prior_var * I)), in closed form.

    Averaging the quadratic (mq - mu_P)^2 term over the Gaussian hyper
    distribution adds its per-coordinate variance, so the expectation equals

        KL(q || N(mean(hyper), prior_var * I)) + sum_i var(hyper)_i / (2 prior_var).

    Parameters
    ----------
    q : (2d,) row of the posterior over weights
    hyper : (2d,) row of the distribution over the prior mean mu_P
    prior_var : shared per-coordinate variance of the prior family
    """
    return float(expected_kl_arrays(*_halves(q, hyper), prior_var))


def expected_kl_arrays(q_mean: np.ndarray, q_log_var: np.ndarray, hyper_mean: np.ndarray,
                       hyper_log_var: np.ndarray, prior_var: float) -> np.ndarray:
    """:func:`expected_kl_under_gaussian_mean` on parameter arrays: posteriors
    and hyper distributions (..., d) broadcast, one expectation per row."""
    if prior_var <= 0.0:
        raise ValueError("prior_var must be positive")
    center_log_var = np.full(hyper_mean.shape[-1], np.log(prior_var))
    spread = np.sum(np.exp(hyper_log_var), axis=-1) / (2.0 * prior_var)
    return kl_diag_arrays(q_mean, q_log_var, hyper_mean, center_log_var) + spread


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
