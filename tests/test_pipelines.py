"""Tests for the closed-form and trained evaluation pipelines."""

import math

import numpy as np
import pytest

from metabounds import audit, env, metalearn, pipelines
from metabounds.env import BlobsSpec, LinearEnvSpec, PermutedEnvSpec, sample_tasks
from metabounds.metalearn import (
    MetaPosterior,
    TrainConfig,
    TrainingDiverged,
    TrainingTrace,
    adapt_many,
)
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
    norm = float(np.sqrt(np.sum(v * v)))
    if norm < 1e-12:
        v = np.zeros(x.shape[1])
        v[0] = 1.0
        return v
    return v / norm


def _reference_sign_risk(w_mean, x, y):
    """The sign risk on one task, with one erf call per point."""
    norms = np.linalg.norm(x, axis=1)
    norms = np.where(norms < 1e-12, 1e-12, norms)
    z = np.sum(x * w_mean, axis=1) / (PRIOR_STD * norms)
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


class TestOnePassPerEvaluation:
    """A trained evaluation adapts its training and held-out tasks in one
    stacked pass and scores its held-out tasks in one oracle call."""

    MLP = ModelArchitecture("mlp1", input_dim=3, hidden_dim=2, num_classes=3)
    BLOBS = PermutedEnvSpec(base=BlobsSpec(num_points=60, dim=3, num_classes=3,
                                           center_scale=2.5, seed=0))

    @pytest.mark.parametrize("kind,n,m,batch_size,mc_train", [
        ("linear-d2", 3, 8, 128, 1),
        ("linear-d5", 4, 9, 4, 3),
        ("mlp1", 3, 10, 4, 2),
    ])
    def test_held_out_rows_equal_a_pass_of_their_own(self, kind, n, m, batch_size, mc_train):
        if kind == "mlp1":
            spec = self.BLOBS
            cfg = _cfg(seed=29, arch=self.MLP, loss=LossSpec("cross_entropy_clipped"),
                       learning_rate=0.1, batch_size=batch_size, mc_train=mc_train)
        else:
            spec = LinearEnvSpec(d=int(kind[-1]))
            cfg = _cfg(seed=29, arch=ModelArchitecture("linear", input_dim=spec.d),
                       batch_size=batch_size, mc_train=mc_train)
        tasks = sample_tasks(spec, n, m, stream(29, "tasks"))
        fresh = sample_tasks(spec, 5, m, stream(31, "tasks"))

        def rngs():
            return [stream(37, "held-out", i) for i in range(len(fresh))]

        merged = fit_two_prior_system(tasks, cfg, held_out=fresh, held_out_rngs=rngs())
        alone = fit_two_prior_system(tasks, cfg)
        apart = [model for model, _ in adapt_many(alone.rho, fresh, cfg,
                                                  adapt_epochs=cfg.epochs_stage2, rngs=rngs())]
        assert alone.held_out_models == []
        for got, want in zip(merged.task_models + merged.held_out_models,
                             alone.task_models + apart, strict=True):
            np.testing.assert_array_equal(got.posterior.mean, want.posterior.mean)
            np.testing.assert_array_equal(got.posterior.log_var, want.posterior.log_var)

    @staticmethod
    def _count(monkeypatch, names):
        """Count the calls of each function in ``names`` through every
        module that holds it."""
        calls = dict.fromkeys(names, 0)
        for module in (env, metalearn, pipelines, audit):
            for name in names:
                if hasattr(module, name):
                    real = getattr(module, name)

                    def wrapped(*args, _real=real, _name=name, **kwargs):
                        calls[_name] += 1
                        return _real(*args, **kwargs)
                    monkeypatch.setattr(module, name, wrapped)
        return calls

    NAMES = ("adapt_many", "true_risks_mc", "true_risk_mc")

    def test_audit_trial_adapts_once_and_calls_the_oracle_once(self, monkeypatch):
        calls = self._count(monkeypatch, self.NAMES)
        audit._audit_trial(SPEC, 3, 5, _cfg(), 0, 7, 20, 50, 20)
        assert calls == {"adapt_many": 1, "true_risks_mc": 1, "true_risk_mc": 0}

    def test_two_prior_point_adapts_once_and_calls_the_oracle_once(self, monkeypatch):
        calls = self._count(monkeypatch, self.NAMES)
        two_prior_point(SPEC, _tasks(2, 6, seed=23), seed=23, cfg=_cfg(seed=23),
                        eval_tasks=3, eval_points=50, mc_eval=20)
        assert calls == {"adapt_many": 1, "true_risks_mc": 1, "true_risk_mc": 0}

    def _diverging(self, monkeypatch, merged_task, training_task):
        """adapt_many failing at ``merged_task`` on the merged rows and at
        ``training_task`` (None: not at all) on the training rows alone."""
        real = pipelines.adapt_many

        def fake(rho, tasks, cfg, *, adapt_epochs, rngs):
            if len(tasks) > 2:
                raise TrainingDiverged("merged", TrainingTrace(), task=merged_task)
            if training_task is not None:
                raise TrainingDiverged("training", TrainingTrace(), task=training_task)
            return real(rho, tasks, cfg, adapt_epochs=adapt_epochs, rngs=rngs)
        monkeypatch.setattr(pipelines, "adapt_many", fake)

    def _fit(self):
        tasks, fresh = _tasks(2, 6, seed=41), _tasks(3, 6, seed=43)
        return fit_two_prior_system(tasks, _cfg(seed=41), held_out=fresh,
                                    held_out_rngs=[stream(47, "adapt", i) for i in range(3)])

    def test_held_out_divergence_names_the_held_out_index(self, monkeypatch):
        self._diverging(monkeypatch, merged_task=3, training_task=None)
        with pytest.raises(TrainingDiverged, match="^task 1: merged$") as caught:
            self._fit()
        assert caught.value.task == 1

    def test_training_divergence_comes_before_a_held_out_one(self, monkeypatch):
        """A training row that fails only after a held-out row did is still
        the one named, as when the training rows were adapted first."""
        self._diverging(monkeypatch, merged_task=4, training_task=1)
        with pytest.raises(TrainingDiverged, match="^task 1: training$"):
            self._fit()

    def test_training_divergence_in_the_merged_pass_is_named_as_it_is(self, monkeypatch):
        self._diverging(monkeypatch, merged_task=0, training_task=None)
        with pytest.raises(TrainingDiverged, match="^task 0: merged$"):
            self._fit()

    def test_rejects_a_generator_count_mismatch(self):
        with pytest.raises(ValueError, match="one generator per held-out task"):
            fit_two_prior_system(_tasks(2, 6, seed=41), _cfg(), held_out=_tasks(2, 6, seed=43),
                                 held_out_rngs=[stream(47, "adapt", 0)])
