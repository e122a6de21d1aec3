"""Tests for the closed-form and trained evaluation pipelines."""

import math

import numpy as np
import pytest

from metabounds.env import LinearEnvSpec, sample_tasks
from metabounds.metalearn import MetaPosterior, TrainConfig, TrainingDiverged
from metabounds.model import LossSpec, ModelArchitecture
from metabounds.pipelines import (
    PRIOR_STD,
    RULE_RADIUS,
    TrainedSystem,
    fit_two_prior_system,
    gaussian_sign_risk,
    prior_mean_point,
    rule_test_loss,
    rule_weight,
    signed_mean_direction,
    trained_bound_breakdown,
    two_prior_point,
)
from metabounds.rng import stream

SPEC = LinearEnvSpec(d=2)


def _tasks(n, m, seed):
    return sample_tasks(SPEC, n, m, stream(seed, "tasks"))


class TestRuleComponents:
    def test_direction_is_unit_norm(self):
        task = _tasks(1, 30, seed=0)[0]
        v = signed_mean_direction(task.train_x, task.train_y)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_direction_recovers_latent_at_large_m(self):
        task = _tasks(1, 4000, seed=1)[0]
        v = signed_mean_direction(task.train_x, task.train_y)
        truth = task.latent / np.linalg.norm(task.latent)
        assert float(v @ truth) > 0.9

    def test_degenerate_input_falls_back_to_first_axis(self):
        v = signed_mean_direction(np.zeros((1, 3)), np.ones(1))
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0])

    def test_sign_risk_is_half_at_zero_mean(self):
        task = _tasks(1, 50, seed=2)[0]
        risk = gaussian_sign_risk(np.zeros(2), task.train_x, task.train_y)
        assert risk == pytest.approx(0.5, abs=1e-12)

    def test_sign_risk_vanishes_for_aligned_huge_mean(self):
        task = _tasks(1, 50, seed=3)[0]
        w = 1e6 * task.latent
        assert gaussian_sign_risk(w, task.train_x, task.train_y) < 1e-6

    def test_sign_risk_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        task = _tasks(1, 40, seed=5)[0]
        w_mean = rng.normal(0.0, 5.0, size=2)
        closed = gaussian_sign_risk(w_mean, task.train_x, task.train_y)
        draws = w_mean + PRIOR_STD * rng.standard_normal((20000, 2))
        scores = task.train_x @ draws.T
        predicted = (scores <= 0.0).astype(float)
        mc = float(np.mean(predicted != task.train_y[:, None]))
        assert abs(closed - mc) < 0.02


def _reference_direction(x, y):
    """The rule's direction on one task, computed row by row."""
    v = -np.mean((2.0 * y[:, None] - 1.0) * x, axis=0)
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        v = np.zeros(x.shape[1])
        v[0] = 1.0
        return v
    return v / norm


def _reference_sign_risk(w_mean, x, y):
    """The sign risk on one task, with one erf call per point."""
    norms = np.linalg.norm(x, axis=1)
    norms = np.where(norms < 1e-12, 1e-12, norms)
    z = (x @ w_mean) / (PRIOR_STD * norms)
    signed = z * (2.0 * y - 1.0)
    return float(np.mean([0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in signed]))


def _batch_with_degenerate_tasks():
    """A (k, 5, 2) stack of sampled tasks plus two degenerate ones: signed
    means that cancel to zero (with an all-zero input row), and all-zero
    inputs."""
    tasks = _tasks(30, 5, seed=29)
    x = [t.train_x for t in tasks]
    y = [t.train_y for t in tasks]
    x.append(np.array([[0.3, -0.2], [0.3, -0.2], [0.5, 0.1], [0.5, 0.1], [0.0, 0.0]]))
    y.append(np.array([1, 0, 1, 0, 1]))
    x.append(np.zeros((5, 2)))
    y.append(np.array([1, 1, 0, 1, 0]))
    return np.stack(x), np.stack(y)


class TestBatchedRule:
    """The task axis changes no bit: a batched call equals the per-task
    calls and the row-by-row reference, compared with ==."""

    def test_direction_equals_per_task_calls(self):
        x, y = _batch_with_degenerate_tasks()
        batched = signed_mean_direction(x, y)
        assert batched.shape == (x.shape[0], 2)
        for i in range(x.shape[0]):
            assert np.array_equal(batched[i], signed_mean_direction(x[i], y[i]))
            assert np.array_equal(batched[i], _reference_direction(x[i], y[i]))

    def test_degenerate_tasks_fall_back_to_first_axis(self):
        x, y = _batch_with_degenerate_tasks()
        batched = signed_mean_direction(x, y)
        assert np.array_equal(batched[-2:], [[1.0, 0.0], [1.0, 0.0]])
        assert np.all(np.isfinite(batched))

    def test_rule_weight_equals_per_task_calls(self):
        x, y = _batch_with_degenerate_tasks()
        batched = rule_weight(x, y)
        for i in range(x.shape[0]):
            assert np.array_equal(batched[i], rule_weight(x[i], y[i]))
            assert np.array_equal(batched[i], RULE_RADIUS * _reference_direction(x[i], y[i]))

    def test_sign_risk_equals_per_task_calls(self):
        x, y = _batch_with_degenerate_tasks()
        w = rule_weight(x, y)
        batched = gaussian_sign_risk(w, x, y)
        assert batched.shape == (x.shape[0],)
        for i in range(x.shape[0]):
            assert batched[i] == gaussian_sign_risk(w[i], x[i], y[i])
            assert batched[i] == _reference_sign_risk(w[i], x[i], y[i])

    def test_zero_input_row_scores_half(self):
        risk = gaussian_sign_risk(np.array([3.0, -1.0]), np.zeros((1, 2)), np.ones(1))
        assert risk == 0.5

    def test_two_leading_axes_equal_one(self):
        x, y = _batch_with_degenerate_tasks()
        x4, y4 = x[:30].reshape(5, 6, 5, 2), y[:30].reshape(5, 6, 5)
        w4 = rule_weight(x4, y4)
        assert np.array_equal(w4.reshape(30, 2), rule_weight(x[:30], y[:30]))
        assert np.array_equal(gaussian_sign_risk(w4, x4, y4).ravel(),
                              gaussian_sign_risk(w4.reshape(30, 2), x[:30], y[:30]))


class TestRuleTestLoss:
    def test_equals_the_per_task_loop(self):
        spec = LinearEnvSpec(d=3)
        rng = stream(41, "rule-test")
        risks = []
        for task in sample_tasks(spec, 6, 7, rng):
            w = RULE_RADIUS * _reference_direction(task.train_x, task.train_y)
            xe, ye = task.draw(50, rng)
            risks.append(_reference_sign_risk(w, xe, ye))
        assert rule_test_loss(spec, 7, 41, eval_tasks=6, eval_points=50) == float(np.mean(risks))

    def test_shared_loss_gives_the_same_point(self):
        tasks = _tasks(6, 5, seed=43)
        shared = rule_test_loss(SPEC, 5, 43, eval_tasks=4, eval_points=30)
        alone = prior_mean_point(SPEC, tasks, 43, 0.1, eval_tasks=4, eval_points=30)
        assert prior_mean_point(SPEC, tasks, 43, 0.1, meta_test_loss=shared) == alone


class TestPriorMeanPoint:
    def test_components_recombine_and_bounds_coincide(self):
        point = prior_mean_point(SPEC, _tasks(5, 5, seed=7), seed=7, delta=0.1)
        recombined = (point.empirical_multitask_risk + point.task_level_term
                      + point.multitask_term)
        assert abs(recombined - point.bound_thm2) <= 1e-12
        assert point.bound_thm1 == point.bound_thm2

    def test_deterministic(self):
        a = prior_mean_point(SPEC, _tasks(4, 5, seed=9), seed=9, delta=0.1)
        b = prior_mean_point(SPEC, _tasks(4, 5, seed=9), seed=9, delta=0.1)
        assert a == b

    def test_bound_shrinks_from_few_to_many_tasks(self):
        pool = _tasks(50, 5, seed=11)
        small = prior_mean_point(SPEC, pool[:5], seed=11, delta=0.1)
        large = prior_mean_point(SPEC, pool, seed=11, delta=0.1)
        assert large.bound_thm2 < small.bound_thm2

    def test_rule_generalizes_better_than_chance(self):
        point = prior_mean_point(SPEC, _tasks(10, 5, seed=13), seed=13, delta=0.1)
        assert 0.0 < point.meta_test_loss < 0.5

    def test_rejects_empty_task_list(self):
        with pytest.raises(ValueError, match="at least one"):
            prior_mean_point(SPEC, [], seed=0, delta=0.1)


def _cfg(seed=0, **overrides):
    base = dict(arch=ModelArchitecture("linear", input_dim=2),
                loss=LossSpec("logistic_clipped"),
                epochs_stage1=4, epochs_stage2=3, seed=seed)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainedPipeline:
    def test_breakdown_recombines_to_theorem_two(self):
        tasks = _tasks(3, 8, seed=17)
        system = fit_two_prior_system(tasks, _cfg(seed=17))
        bd = trained_bound_breakdown(system, tasks, _cfg(seed=17))
        recombined = (bd.empirical_multitask_risk + bd.task_level_term
                      + bd.multitask_term)
        assert abs(recombined - bd.bound_thm2) <= 1e-12
        assert bd.bound_thm2 <= bd.bound_thm1 + 1e-12
        assert bd.bound_thm2 > bd.empirical_multitask_risk

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_prior_variance_is_a_numeric_failure(self):
        """A theta1 log-variance of -800 makes exp(-b) overflow, so the
        expected task divergence is infinite: a diverged run, not a
        ValueError from the bound's input checks."""
        tasks = _tasks(2, 6, seed=17)
        cfg = _cfg(seed=17)
        system = fit_two_prior_system(tasks, cfg)
        theta1 = system.rho.theta1.copy()
        theta1[system.rho.weight_dim:] = -800.0
        rho = MetaPosterior(system.rho.theta0, theta1, system.rho.kappa_rho)
        broken = TrainedSystem(rho, system.task_models, system.trace_objectives)
        with pytest.raises(TrainingDiverged, match="non-finite certificate"):
            trained_bound_breakdown(broken, tasks, cfg)

    def test_system_fit_is_deterministic(self):
        tasks = _tasks(2, 6, seed=19)
        sys_a = fit_two_prior_system(tasks, _cfg(seed=19))
        sys_b = fit_two_prior_system(tasks, _cfg(seed=19))
        assert np.array_equal(sys_a.rho.theta1, sys_b.rho.theta1)
        for ma, mb in zip(sys_a.task_models, sys_b.task_models):
            assert np.array_equal(ma.posterior.mean, mb.posterior.mean)

    def test_point_fields_are_finite_and_ordered(self):
        tasks = _tasks(2, 6, seed=23)
        point = two_prior_point(SPEC, tasks, seed=23, cfg=_cfg(seed=23),
                                eval_tasks=3, eval_points=50, mc_eval=20)
        values = [point.empirical_multitask_risk, point.bound_thm1,
                  point.bound_thm2, point.meta_test_loss, point.meta_train_loss]
        assert all(math.isfinite(v) for v in values)
        assert point.bound_thm2 >= point.empirical_multitask_risk
        assert point.n == 2 and point.m == 6 and point.d == 2
