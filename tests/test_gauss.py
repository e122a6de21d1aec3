"""Tests for the closed-form divergences of diagonal Gaussians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metabounds.gauss import (
    expected_kl_fixed_spread_arrays,
    expected_kl_under_gaussian_mean,
    kl_diag_arrays,
    kl_diag_gaussian,
)

from oracles import gaussian_row, isotropic_row, quadrature_kl_1d


def gauss_1d(mean, var):
    return gaussian_row([mean], [np.log(var)])


class TestKlDiagGaussian:
    def test_identical_distributions_give_exact_zero(self):
        q = isotropic_row(np.zeros(3), 1.0)
        assert kl_diag_gaussian(q, q) == 0.0

    def test_unit_mean_shift_is_half(self):
        """KL(N(1,1) || N(0,1)) = (mu difference)^2 / 2 = 0.5."""
        np.testing.assert_allclose(
            kl_diag_gaussian(gauss_1d(1.0, 1.0), gauss_1d(0.0, 1.0)), 0.5
        )

    def test_variance_ratio_example(self):
        """KL(N(0, 1/e) || N(0, 1)) = e^-1 / 2."""
        got = kl_diag_gaussian(gauss_1d(0.0, np.exp(-1.0)), gauss_1d(0.0, 1.0))
        np.testing.assert_allclose(got, np.exp(-1.0) / 2.0, rtol=1e-12)

    def test_variance_ratio_example_matches_quadrature(self):
        q = gauss_1d(0.0, np.exp(-1.0))
        p = gauss_1d(0.0, 1.0)
        assert abs(kl_diag_gaussian(q, p) - quadrature_kl_1d(q, p)) < 1e-6

    def test_additivity_over_coordinates(self):
        rng = np.random.default_rng(7)
        mq, mp_ = rng.normal(size=4), rng.normal(size=4)
        lq, lp = rng.normal(size=4), rng.normal(size=4)
        q = gaussian_row(mq, lq)
        p = gaussian_row(mp_, lp)
        per_coord = sum(
            kl_diag_gaussian(
                gaussian_row(mq[i : i + 1], lq[i : i + 1]),
                gaussian_row(mp_[i : i + 1], lp[i : i + 1]),
            )
            for i in range(4)
        )
        np.testing.assert_allclose(kl_diag_gaussian(q, p), per_coord, rtol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            kl_diag_gaussian(isotropic_row(np.zeros(2), 1.0), isotropic_row(np.zeros(3), 1.0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_nonnegative_on_random_pairs(self, idx):
        rng = np.random.default_rng(idx)
        d = int(rng.integers(1, 6))
        q = gaussian_row(3.0 * rng.normal(size=d), rng.normal(size=d))
        p = gaussian_row(3.0 * rng.normal(size=d), rng.normal(size=d))
        assert kl_diag_gaussian(q, p) >= 0.0

    def test_zero_only_for_equal_parameters(self):
        q = gauss_1d(0.0, 1.0)
        p = gauss_1d(1e-4, 1.0)
        assert kl_diag_gaussian(q, p) > 0.0


class TestExpectedKlUnderGaussianMean:
    def test_degenerate_hyper_reduces_to_plain_kl(self):
        rng = np.random.default_rng(3)
        q = gaussian_row(rng.normal(size=3), rng.normal(size=3))
        hyper = gaussian_row(rng.normal(size=3), np.full(3, np.log(1e-30)))
        direct = kl_diag_gaussian(q, isotropic_row(hyper[:3], 4.0))
        assert abs(expected_kl_under_gaussian_mean(q, hyper, 4.0) - direct) < 1e-10

    def test_matched_q_leaves_only_hyper_spread(self):
        """With q = N(0, sp^2) and hyper = N(0, s^2), the value is s^2/(2 sp^2)."""
        sp2 = 7.0
        s2 = 3.0
        q = isotropic_row(np.zeros(1), sp2)
        hyper = isotropic_row(np.zeros(1), s2)
        np.testing.assert_allclose(
            expected_kl_under_gaussian_mean(q, hyper, sp2), s2 / (2.0 * sp2), rtol=1e-12
        )

    def test_two_dim_worked_example(self):
        # d = 2, sigma_P = 10, hyper spread 4, q matching the prior scale
        q = isotropic_row(np.zeros(2), 100.0)
        hyper = isotropic_row(np.zeros(2), 4.0)
        np.testing.assert_allclose(
            expected_kl_under_gaussian_mean(q, hyper, 100.0), 2.0 * 4.0 / 200.0
        )

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        q = gaussian_row(rng.normal(size=2), rng.normal(size=2))
        hyper = gaussian_row(rng.normal(size=2), np.log([0.5, 2.0]))
        prior_var = 6.0
        total = 0.0
        n = 100_000
        mus = hyper[:2] + np.exp(0.5 * hyper[2:]) * rng.standard_normal((n, 2))
        for k in range(0, n, 1000):
            batch = mus[k : k + 1000]
            total += sum(
                kl_diag_gaussian(q, isotropic_row(mu, prior_var)) for mu in batch
            )
        mc = total / n
        closed = expected_kl_under_gaussian_mean(q, hyper, prior_var)
        assert abs(closed - mc) / closed < 0.02

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            expected_kl_under_gaussian_mean(
                isotropic_row(np.zeros(2), 1.0), isotropic_row(np.zeros(3), 1.0), 1.0
            )


class TestExpectedKlFixedSpread:
    @pytest.mark.parametrize("kappa_rho", [1e-3, 0.1])
    def test_monte_carlo_agreement_over_both_halves(self, kappa_rho):
        """Two tight posteriors (log-variance near -10, as adapted ones are)
        against priors whose mean and log-variance are both drawn around
        (a, b). At kappa_rho = 0.1, dropping exp(kappa_rho^2 / 2) or the
        + kappa_rho^2 term moves the value by more than 6 standard errors."""
        rng = np.random.default_rng(5)
        q_mean = rng.normal(size=(2, 3))
        q_log_var = -10.0 + rng.normal(scale=0.3, size=(2, 3))
        a = q_mean[0] + np.array([1.0, -0.8, 1.2])
        b = np.full(3, -2.0)
        draws = 50_000
        a_draws = a + kappa_rho * rng.standard_normal((draws, 3))
        b_draws = b + kappa_rho * rng.standard_normal((draws, 3))
        sums = np.sum(kl_diag_arrays(q_mean, q_log_var, a_draws[:, None], b_draws[:, None]),
                      axis=1)
        se = np.std(sums, ddof=1) / np.sqrt(draws)
        closed = expected_kl_fixed_spread_arrays(q_mean, q_log_var, a, b, kappa_rho**2)
        assert closed.shape == (2,)
        assert abs(np.sum(closed) - np.mean(sums)) < 3.0 * se
