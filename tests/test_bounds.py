"""Tests for the certificate evaluators, the discrete decomposition check and
the trade-off parameter oracles of tests/oracles.py.

Closed-form reference values were computed by hand from the defining
expressions (logs and square roots on a calculator, kept to full double
precision) and are asserted as frozen constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metabounds.bounds import (
    DiscreteMetaSystem,
    MetaBoundInput,
    adaptation_bound,
    kl_decomposition_check,
    multitask_sqrt_term,
    task_level_term,
    theorem1_bound,
    theorem2_bound,
)

from oracles import lambda_star, lemma2_grid_minimum, lemma2_lambda_form, random_discrete_system


class TestAdaptationBound:
    def test_zero_risk_zero_kl_example(self):
        """sqrt((log(800 / 0.1) + 1) / 200), worked out by hand."""
        value = adaptation_bound(0.0, 0.0, m=100, delta=0.1)
        np.testing.assert_allclose(value, 0.2234636080065608, rtol=1e-12)

    def test_strictly_increasing_in_kl(self):
        assert adaptation_bound(0.1, 2.0, 50, 0.1) > adaptation_bound(0.1, 1.0, 50, 0.1)

    def test_strictly_decreasing_in_sample_count(self):
        assert adaptation_bound(0.1, 1.0, 100, 0.1) < adaptation_bound(0.1, 1.0, 50, 0.1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            adaptation_bound(0.0, 0.0, 100, 0.0)

    @pytest.mark.parametrize(
        "risk, kl, m, delta",
        [
            (0.0, 0.0, 5, 0.0),
            (0.0, 0.0, 5, 1.0),
            (-0.1, 0.0, 5, 0.1),
            (1.1, 0.0, 5, 0.1),
            (0.0, -1.0, 5, 0.1),
            (0.0, 0.0, 0, 0.1),
            (0.0, math.inf, 5, 0.1),
        ],
    )
    def test_rejects_out_of_range_inputs(self, risk, kl, m, delta):
        with pytest.raises(ValueError):
            adaptation_bound(risk, kl, m, delta)


def _meta_input(risk=0.0, kl_rho_pi=0.0, pairs=((0.0, 0.0),), n=10, m=5, delta=0.1):
    return MetaBoundInput(
        empirical_multitask_risk=risk,
        kl_rho_pi=kl_rho_pi,
        per_algorithm_complexity=tuple(pairs),
        n=n,
        m=m,
        delta=delta,
    )


class TestTheorem1Bound:
    def test_all_zero_kl_example(self):
        """Two slack terms at n=10, m=5, delta=0.1, everything else zero.

        sqrt(log(4 sqrt(10) / 0.1) / 20) + sqrt((log(4000) + 1) / 100),
        both factors recomputed by hand.
        """
        np.testing.assert_allclose(
            task_level_term(0.0, 10, 0.1), 0.49194369599634874, rtol=1e-12
        )
        np.testing.assert_allclose(
            multitask_sqrt_term(0.0, 10, 5, 0.1), 0.3048614380354135, rtol=1e-12
        )
        np.testing.assert_allclose(
            theorem1_bound(_meta_input()), 0.7968051340317622, rtol=1e-12
        )

    def test_task_level_term_vanishes_with_many_tasks(self):
        assert task_level_term(0.5, 10**8, 0.1) < 1e-3

    def test_algorithm_mean_enters_inside_the_root(self):
        inp = _meta_input(risk=0.2, kl_rho_pi=1.5, pairs=[(1.0, 2.0), (3.0, 4.0)])
        expected = (
            0.2
            + task_level_term(1.5, 10, 0.1)
            + multitask_sqrt_term(1.5 + 5.0, 10, 5, 0.1)
        )
        np.testing.assert_allclose(theorem1_bound(inp), expected, rtol=1e-12)

    def test_matched_dirac_hyper_prior_drops_its_term(self):
        """A point hyper-posterior equal to the hyper-prior contributes only
        the per-task sum."""
        with_pair = theorem1_bound(_meta_input(pairs=[(0.0, 3.0)]))
        collapsed = 0.0 + task_level_term(0.0, 10, 0.1) + multitask_sqrt_term(3.0, 10, 5, 0.1)
        np.testing.assert_allclose(with_pair, collapsed, rtol=1e-12)

    def test_pairs_are_normalized_to_float_tuples(self):
        inp = _meta_input(pairs=[[1, np.float64(2.0)]])
        assert inp.per_algorithm_complexity == ((1.0, 2.0),)
        assert all(type(v) is float for v in inp.per_algorithm_complexity[0])

    def test_rejects_empty_complexity_list(self):
        with pytest.raises(ValueError):
            _meta_input(pairs=[])


class TestTheorem2Bound:
    def test_shared_prior_excludes_meta_divergence_from_the_root(self):
        """With meta-level KL of 2 the second slack term must be strictly
        smaller than the algorithm-dependent version's."""
        inp = _meta_input(kl_rho_pi=2.0, pairs=[(0.0, 0.0)])
        t2_term = multitask_sqrt_term(0.0, 10, 5, 0.1)
        t1_term = multitask_sqrt_term(2.0, 10, 5, 0.1)
        assert t2_term < t1_term
        np.testing.assert_allclose(
            theorem2_bound(inp),
            task_level_term(2.0, 10, 0.1) + t2_term,
            rtol=1e-12,
        )

    def test_degenerate_single_algorithm_matches_theorem1(self):
        inp = _meta_input()
        np.testing.assert_allclose(theorem2_bound(inp), theorem1_bound(inp), rtol=1e-12)

    def test_constant_complexity_is_jensen_equality(self):
        inp = _meta_input(pairs=[(1.0, 2.0), (0.5, 2.5), (3.0, 0.0)])
        single = _meta_input(pairs=[(0.0, 3.0)])
        np.testing.assert_allclose(theorem2_bound(inp), theorem2_bound(single), rtol=1e-12)

    def test_spread_complexity_is_strictly_below_theorem1(self):
        inp = _meta_input(pairs=[(0.0, 1.0), (0.0, 9.0)])
        assert theorem2_bound(inp) < theorem1_bound(inp)

    def test_order_of_algorithm_samples_is_irrelevant(self):
        pairs = [(0.3, 1.1), (2.0, 0.2), (0.9, 4.4)]
        forward = _meta_input(pairs=pairs)
        backward = _meta_input(pairs=list(reversed(pairs)))
        assert theorem1_bound(forward) == theorem1_bound(backward)
        assert theorem2_bound(forward) == theorem2_bound(backward)


@st.composite
def meta_inputs(draw):
    risk = draw(st.floats(0.0, 1.0, allow_nan=False))
    kl_rho_pi = draw(st.floats(0.0, 50.0, allow_nan=False))
    pairs = draw(
        st.lists(
            st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
            min_size=1,
            max_size=6,
        )
    )
    n = draw(st.integers(1, 500))
    m = draw(st.integers(1, 500))
    delta = draw(st.floats(1e-4, 0.5))
    return _meta_input(risk, kl_rho_pi, pairs, n, m, delta)


class TestBoundProperties:
    @given(meta_inputs())
    @settings(max_examples=200, deadline=None)
    def test_shared_prior_version_never_exceeds_the_other(self, inp):
        assert theorem2_bound(inp) <= theorem1_bound(inp) + 1e-12

    @given(meta_inputs(), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_meta_divergence(self, inp, bump):
        bumped = _meta_input(
            inp.empirical_multitask_risk,
            inp.kl_rho_pi + bump,
            inp.per_algorithm_complexity,
            inp.n,
            inp.m,
            inp.delta,
        )
        assert theorem1_bound(bumped) >= theorem1_bound(inp)
        assert theorem2_bound(bumped) >= theorem2_bound(inp)

    @given(meta_inputs(), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_task_complexity(self, inp, bump):
        bumped_pairs = [
            (kl_hyper, sum_task_kl + bump)
            for kl_hyper, sum_task_kl in inp.per_algorithm_complexity
        ]
        bumped = _meta_input(
            inp.empirical_multitask_risk,
            inp.kl_rho_pi,
            bumped_pairs,
            inp.n,
            inp.m,
            inp.delta,
        )
        assert theorem1_bound(bumped) >= theorem1_bound(inp)
        assert theorem2_bound(bumped) >= theorem2_bound(inp)

    @given(meta_inputs())
    @settings(max_examples=100, deadline=None)
    def test_shrinking_confidence_never_tightens(self, inp):
        stricter = _meta_input(
            inp.empirical_multitask_risk,
            inp.kl_rho_pi,
            inp.per_algorithm_complexity,
            inp.n,
            inp.m,
            inp.delta / 2.0,
        )
        assert theorem1_bound(stricter) >= theorem1_bound(inp)
        assert theorem2_bound(stricter) >= theorem2_bound(inp)

    @given(st.floats(0.0, 20.0), st.integers(1, 1000), st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_task_level_term_decreases_with_more_tasks(self, kl, n, delta):
        assert task_level_term(kl, n + 1, delta) < task_level_term(kl, n, delta)

    @given(st.floats(0.0, 20.0), st.integers(1, 100), st.integers(1, 100), st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_multitask_term_decreases_with_more_samples(self, kl, n, m, delta):
        assert multitask_sqrt_term(kl, n, m + 1, delta) < multitask_sqrt_term(kl, n, m, delta)


class TestLambdaMachinery:
    def test_fixed_lambda_gap_example(self):
        """kl = 0, delta = 2/e makes the log term exactly 1; at lambda =
        sqrt(8) with n = m = 1 both summands equal 1 / (2 sqrt(2))."""
        value = lemma2_lambda_form(0.0, math.sqrt(8.0), n=1, m=1, delta=2.0 / math.e)
        np.testing.assert_allclose(value, 0.7071067811865475, rtol=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            lemma2_lambda_form(0.0, 0.0, 1, 1, 0.1)
        with pytest.raises(ValueError):
            lemma2_lambda_form(0.0, -2.0, 1, 1, 0.1)

    def test_unconstrained_optimum_beats_a_lambda_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            kl = float(rng.uniform(0.0, 40.0))
            n, m = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            delta = float(rng.uniform(0.01, 0.5))
            best = math.sqrt(8.0 * n * m * (kl + math.log(2.0 / delta)))
            at_best = lemma2_lambda_form(kl, best, n, m, delta)
            for lam in np.linspace(0.1, 10.0 * best, 400):
                assert at_best <= lemma2_lambda_form(kl, float(lam), n, m, delta) + 1e-12

    def test_optimal_lambda_example(self):
        """sqrt(80 log(800) + 1) at kl = 0, n = 2, m = 5; below the cap 40."""
        star, clipped = lambda_star(0.0, n=2, m=5, delta=0.1)
        np.testing.assert_allclose(star, 23.14668309312231, rtol=1e-12)
        assert not clipped

    def test_enormous_kl_trips_the_clip_flag(self):
        star, clipped = lambda_star(1e6, n=2, m=5, delta=0.1)
        assert clipped
        assert star > 4 * 2 * 5

    def test_clipped_inputs_give_vacuous_closed_form(self):
        star, clipped = lambda_star(1e6, n=2, m=5, delta=0.1)
        assert clipped
        assert multitask_sqrt_term(1e6, 2, 5, 0.1) > 1.0

    def test_grid_minimum_matches_brute_force_on_small_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            kl = float(rng.uniform(0.0, 10.0))
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            delta = float(rng.uniform(0.01, 0.5))
            slack = kl + math.log(8.0 * n * m / delta)
            brute = min(
                slack / lam + lam / (8.0 * n * m) for lam in range(1, 4 * n * m + 1)
            )
            np.testing.assert_allclose(
                lemma2_grid_minimum(kl, n, m, delta), brute, rtol=1e-14
            )

    def test_closed_form_dominates_grid_within_discretization_slack(self):
        """On non-clipped inputs the square-root slack term sits within a
        provable sliver above the best grid value: the difference is
        nonnegative and at most sqrt(B + 1) - sqrt(B) scaled by the sample
        count, where B is the divergence-plus-log numerator."""
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 50:
            kl = float(rng.uniform(0.0, 30.0))
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            delta = float(rng.uniform(0.01, 0.5))
            _, clipped = lambda_star(kl, n, m, delta)
            if clipped:
                continue
            closed = multitask_sqrt_term(kl, n, m, delta)
            grid = lemma2_grid_minimum(kl, n, m, delta)
            b = kl + math.log(8.0 * n * m / delta)
            ceiling = (math.sqrt(b + 1.0) - math.sqrt(b)) / math.sqrt(2.0 * n * m)
            assert -1e-12 <= closed - grid <= ceiling + 1e-12
            checked += 1


def _uniform_system(num_alg=2, num_priors=2, num_models=3, num_tasks=2):
    shared = np.full(num_models, 1.0 / num_models)
    return DiscreteMetaSystem(
        rho=np.full(num_alg, 1.0 / num_alg),
        pi=np.full(num_alg, 1.0 / num_alg),
        hyper_posterior=np.full((num_alg, num_priors), 1.0 / num_priors),
        hyper_prior=np.full((num_alg, num_priors), 1.0 / num_priors),
        task_posteriors=np.tile(shared, (num_alg, num_tasks, 1)),
        prior_models=np.tile(shared, (num_priors, 1)),
    )


class TestKlDecomposition:
    def test_identical_joints_give_zero(self):
        lhs, rhs, diff = kl_decomposition_check(_uniform_system())
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)
        assert diff <= 1e-15

    def test_random_rational_tables_agree_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            system = random_discrete_system(
                rng,
                num_algorithms=int(rng.integers(1, 4)),
                num_priors=int(rng.integers(1, 4)),
                num_models=int(rng.integers(2, 5)),
                num_tasks=int(rng.integers(1, 4)),
            )
            lhs, rhs, diff = kl_decomposition_check(system)
            assert diff <= 1e-12
            assert lhs >= -1e-15

    def test_perturbing_one_task_table_raises_both_sides_equally(self):
        base = _uniform_system()
        lhs0, rhs0, _ = kl_decomposition_check(base)
        tweaked_tasks = base.task_posteriors.copy()
        tweaked_tasks[0, 0] = np.array([0.6, 0.3, 0.1])
        tweaked = DiscreteMetaSystem(
            rho=base.rho,
            pi=base.pi,
            hyper_posterior=base.hyper_posterior,
            hyper_prior=base.hyper_prior,
            task_posteriors=tweaked_tasks,
            prior_models=base.prior_models,
        )
        lhs1, rhs1, diff = kl_decomposition_check(tweaked)
        assert lhs1 > lhs0
        assert rhs1 > rhs0
        assert diff <= 1e-12
        np.testing.assert_allclose(lhs1 - lhs0, rhs1 - rhs0, atol=1e-12)

    def test_task_order_does_not_matter(self):
        rng = np.random.default_rng(5)
        system = random_discrete_system(rng, num_tasks=3)
        lhs, rhs, _ = kl_decomposition_check(system)
        permuted = DiscreteMetaSystem(
            rho=system.rho,
            pi=system.pi,
            hyper_posterior=system.hyper_posterior,
            hyper_prior=system.hyper_prior,
            task_posteriors=system.task_posteriors[:, ::-1, :],
            prior_models=system.prior_models,
        )
        plhs, prhs, _ = kl_decomposition_check(permuted)
        np.testing.assert_allclose(plhs, lhs, rtol=1e-12)
        np.testing.assert_allclose(prhs, rhs, rtol=1e-12)

    def test_support_violation_names_the_offending_tuple(self):
        system = DiscreteMetaSystem(
            rho=np.array([1.0]),
            pi=np.array([1.0]),
            hyper_posterior=np.array([[0.5, 0.5]]),
            hyper_prior=np.array([[1.0, 0.0]]),
            task_posteriors=np.array([[[0.5, 0.5]]]),
            prior_models=np.array([[0.5, 0.5], [0.5, 0.5]]),
        )
        with pytest.raises(ValueError, match="support violation.*prior=1"):
            kl_decomposition_check(system)

    def test_rejects_unnormalized_tables(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMetaSystem(
                rho=np.array([0.6, 0.6]),
                pi=np.array([0.5, 0.5]),
                hyper_posterior=np.full((2, 2), 0.5),
                hyper_prior=np.full((2, 2), 0.5),
                task_posteriors=np.full((2, 2, 2), 0.5),
                prior_models=np.full((2, 2), 0.5),
            )

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            DiscreteMetaSystem(
                rho=np.array([0.5, 0.5]),
                pi=np.array([0.5, 0.5]),
                hyper_posterior=np.full((3, 2), 1.0 / 2),
                hyper_prior=np.full((2, 2), 0.5),
                task_posteriors=np.full((2, 2, 2), 0.5),
                prior_models=np.full((2, 2), 0.5),
            )
