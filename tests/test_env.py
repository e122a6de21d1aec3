"""Tests for synthetic task environments and the true-risk oracle."""

import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from metabounds.env import (
    BlobsSpec,
    LinearEnvSpec,
    PermutedEnvSpec,
    Task,
    _linear_point_risks,
    _normal_rule,
    draw_linear,
    sample_linear_tasks,
    sample_tasks,
    true_risk_mc,
    true_risks_mc,
)
from metabounds.model import (
    LossSpec,
    ModelArchitecture,
    StochasticModel,
    glorot_init,
    loss_values,
    mc_empirical_risk,
    scores_batch,
)

from host_kernels import kernel_report
from oracles import gaussian_row

LINEAR2 = ModelArchitecture("linear", 2)


def near_dirac_model(w):
    return StochasticModel(
        LINEAR2, gaussian_row(w, np.full(2, -60.0))
    )


class TestLinearEnv:
    def test_shapes_and_ranges(self):
        tasks = sample_tasks(LinearEnvSpec(2), 10, 5, np.random.default_rng(0))
        assert len(tasks) == 10
        for t in tasks:
            assert t.train_x.shape == (5, 2)
            assert np.all(np.abs(t.train_x) <= 1.0)
            assert set(np.unique(t.train_y)) <= {0, 1}

    def test_determinism(self):
        a = sample_tasks(LinearEnvSpec(3), 4, 6, np.random.default_rng(5))
        b = sample_tasks(LinearEnvSpec(3), 4, 6, np.random.default_rng(5))
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.train_x, tb.train_x)
            np.testing.assert_array_equal(ta.train_y, tb.train_y)
            np.testing.assert_array_equal(ta.latent, tb.latent)

    def test_label_law_at_default_mean(self):
        """With w* = 10.1 the labeling halfplane splits the cube evenly."""
        spec = LinearEnvSpec(2, mu_tau=np.array([10.0, 10.0]), sigma_tau=1e-9)
        task = sample_tasks(spec, 1, 1, np.random.default_rng(1))[0]
        _, y = task.draw(100_000, np.random.default_rng(2))
        assert abs(y.mean() - 0.5) < 0.01

    def test_environment_mean(self):
        spec = LinearEnvSpec(2)
        tasks = sample_tasks(spec, 1000, 1, np.random.default_rng(3))
        ws = np.array([t.latent for t in tasks])
        tol = 3.0 * spec.sigma_tau / np.sqrt(1000)
        assert np.all(np.abs(ws.mean(axis=0) - spec.mu_tau) < tol)

    def test_invalid_spec_params(self):
        with pytest.raises(ValueError):
            LinearEnvSpec(0)
        with pytest.raises(ValueError):
            LinearEnvSpec(2, sigma_tau=-1.0)
        with pytest.raises(ValueError):
            sample_tasks(LinearEnvSpec(2), 0, 5, np.random.default_rng(0))


def _per_task_linear_tasks(spec, n, m, rng):
    """(latent, x, y) of n linear tasks, drawn and labelled task by task."""
    tasks = []
    for _ in range(n):
        latent = spec.mu_tau + spec.sigma_tau * rng.standard_normal(spec.d)
        x = rng.uniform(-1.0, 1.0, size=(m, spec.d))
        tasks.append((latent, x, (x @ latent <= 0.0).astype(np.int64)))
    return tasks


class TestStackedLinearSampling:
    """Stacking the latents' map, the inputs' affine map and the labels
    changes no bit of what a per-task loop draws, and leaves the generator
    where the loop leaves it."""

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("m", [1, 5, 400])
    @pytest.mark.parametrize("d", [1, 2, 5, 9, 16])
    def test_arrays_equal_a_per_task_uniform_loop(self, d, m, n):
        spec = LinearEnvSpec(d)
        got_rng, ref_rng = np.random.default_rng([n, m, d]), np.random.default_rng([n, m, d])
        latents, x, y = sample_linear_tasks(spec, n, m, got_rng)
        reference = _per_task_linear_tasks(spec, n, m, ref_rng)
        assert latents.shape == (n, d) and x.shape == (n, m, d) and y.shape == (n, m)
        assert y.dtype == np.int64
        assert np.array_equal(latents, np.stack([latent for latent, _, _ in reference]))
        assert np.array_equal(x, np.stack([xi for _, xi, _ in reference]))
        assert np.array_equal(y, np.stack([yi for _, _, yi in reference]))
        assert got_rng.random() == ref_rng.random()

    def test_rejects_an_empty_pool(self):
        for n, m in ((0, 5), (5, 0)):
            with pytest.raises(ValueError, match="n and m"):
                sample_linear_tasks(LinearEnvSpec(2), n, m, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("m", [1, 5, 400])
    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_tasks_equal_a_per_task_loop(self, d, m, n):
        spec = LinearEnvSpec(d)
        got_rng, ref_rng = np.random.default_rng([d, m, n]), np.random.default_rng([d, m, n])
        tasks = sample_tasks(spec, n, m, got_rng)
        reference = _per_task_linear_tasks(spec, n, m, ref_rng)
        assert len(tasks) == n
        for task, (latent, x, y) in zip(tasks, reference):
            assert task.latent.shape == (d,) and task.train_x.shape == (m, d)
            assert task.train_y.dtype == np.int64 and task.train_y.shape == (m,)
            assert np.array_equal(task.latent, latent)
            assert np.array_equal(task.train_x, x)
            assert np.array_equal(task.train_y, y)
        assert np.array_equal(got_rng.standard_normal(3), ref_rng.standard_normal(3))

    @pytest.mark.parametrize("k", [1, 5, 400])
    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_one_call_held_out_draw_equals_task_draws_in_sequence(self, d, k):
        tasks = sample_tasks(LinearEnvSpec(d), 7, 5, np.random.default_rng(d))
        got_rng, seq_rng, ref_rng = (np.random.default_rng([d, k]) for _ in range(3))
        x, y = draw_linear(np.stack([t.latent for t in tasks]), k, got_rng)
        assert x.shape == (7, k, d) and y.shape == (7, k) and y.dtype == np.int64
        for i, task in enumerate(tasks):
            xs, ys = task.draw(k, seq_rng)
            xr = ref_rng.uniform(-1.0, 1.0, size=(k, d))
            assert np.array_equal(x[i], xs) and np.array_equal(y[i], ys)
            assert np.array_equal(x[i], xr)
            assert np.array_equal(y[i], (xr @ task.latent <= 0.0).astype(np.int64))
        assert got_rng.random() == seq_rng.random() == ref_rng.random()


class TestPermutedEnv:
    def test_identity_permutation_reproduces_base(self):
        spec = PermutedEnvSpec(base=BlobsSpec(num_points=40, dim=4,
                                              num_classes=4, seed=7))
        base_x, base_y = spec.base.build()
        task = Task(spec, np.arange(4.0), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        xs, ys = task.draw(30, np.random.default_rng(0))
        # every drawn sample must literally be a base point with its base label
        for x, y in zip(xs, ys):
            hits = np.where((base_x == x).all(axis=1))[0]
            assert len(hits) >= 1 and base_y[hits[0]] == y

    def test_label_permutations_differ_across_tasks(self):
        spec = PermutedEnvSpec(base=BlobsSpec(seed=1))
        tasks = sample_tasks(spec, 12, 8, np.random.default_rng(2))
        perms = {tuple(t.latent.astype(int)) for t in tasks}
        assert len(perms) > 1

    def test_shuffle_features_moves_only_subset(self):
        spec = PermutedEnvSpec(base=BlobsSpec(seed=3), mode="shuffle_features",
                               num_shuffled=5)
        subset = spec.shuffled_subset()
        assert len(subset) == 5
        base_x, _ = spec.base.build()
        task = sample_tasks(spec, 1, 50, np.random.default_rng(4))[0]
        untouched = np.setdiff1d(np.arange(10), subset)
        for x in task.train_x:
            hits = np.where((base_x[:, untouched] == x[untouched]).all(axis=1))[0]
            assert len(hits) >= 1
            # the full row is the base row with subset columns permuted
            assert sorted(x[subset]) == sorted(base_x[hits[0]][subset])

    def test_same_seed_same_tasks(self):
        spec = PermutedEnvSpec(base=BlobsSpec(seed=5))
        a = sample_tasks(spec, 6, 10, np.random.default_rng(9))
        b = sample_tasks(spec, 6, 10, np.random.default_rng(9))
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.train_x, tb.train_x)
            np.testing.assert_array_equal(ta.train_y, tb.train_y)


class TestTrueRiskOracle:
    def _task_with_w_star(self, w_star):
        spec = LinearEnvSpec(2, mu_tau=np.asarray(w_star, dtype=float),
                             sigma_tau=1e-12)
        return sample_tasks(spec, 1, 1, np.random.default_rng(0))[0]

    def test_perfect_classifier(self):
        task = self._task_with_w_star([8.0, 11.0])
        risk, se = true_risk_mc(task, near_dirac_model(task.latent),
                                LossSpec("zero_one"), 2000,
                                np.random.default_rng(1), mc_samples=8)
        assert risk < 0.005

    def test_anti_classifier(self):
        task = self._task_with_w_star([8.0, 11.0])
        risk, _ = true_risk_mc(task, near_dirac_model(-task.latent),
                               LossSpec("zero_one"), 2000,
                               np.random.default_rng(2), mc_samples=8)
        assert risk > 0.995

    def test_orthogonal_classifier_is_half(self):
        task = self._task_with_w_star([10.0, 10.0])
        w_perp = np.array([1.0, -1.0])
        risk, _ = true_risk_mc(task, near_dirac_model(w_perp),
                               LossSpec("zero_one"), 10_000,
                               np.random.default_rng(3), mc_samples=8)
        assert abs(risk - 0.5) < 0.01

    def test_standard_error_reported(self):
        task = self._task_with_w_star([10.0, 10.0])
        # a zero mean would put every point's exact risk at 0.5, and so the
        # standard error, the points' spread alone, at 0
        model = StochasticModel(LINEAR2, gaussian_row([1.0, -1.0], np.zeros(2)))
        risk, se = true_risk_mc(task, model, LossSpec("zero_one"), 500,
                                np.random.default_rng(4), mc_samples=64)
        assert 0.0 < se < 0.1
        assert 0.3 < risk < 0.7

    def test_deterministic(self):
        task = self._task_with_w_star([10.0, 10.0])
        model = StochasticModel(LINEAR2, np.zeros(4))
        r1 = true_risk_mc(task, model, LossSpec("zero_one"), 300,
                          np.random.default_rng(6), mc_samples=16)
        r2 = true_risk_mc(task, model, LossSpec("zero_one"), 300,
                          np.random.default_rng(6), mc_samples=16)
        assert r1 == r2


MLP3 = ModelArchitecture("mlp1", 3, num_classes=4, hidden_dim=5)
ORACLE_CASES = [
    (LINEAR2, "zero_one"),
    (LINEAR2, "logistic_clipped"),
    (MLP3, "zero_one"),
    (MLP3, "cross_entropy_clipped"),
]


def _oracle_tasks(arch, count):
    """count tasks of the architecture's environment, each with a
    spread-out posterior of its own."""
    if arch.kind == "linear":
        spec = LinearEnvSpec(2)
    else:
        spec = PermutedEnvSpec(base=BlobsSpec(num_points=40, dim=3, num_classes=4, seed=3))
    tasks = sample_tasks(spec, count, 12, np.random.default_rng(5))
    models = []
    for i in range(count):
        d = arch.param_count
        post = glorot_init(arch, np.random.default_rng(6 + i))
        models.append(StochasticModel(arch, gaussian_row(post[:d], np.full(d, -1.0))))
    return tasks, models


def _oracle_setup(arch):
    """A task of the architecture's environment and a spread-out posterior."""
    tasks, models = _oracle_tasks(arch, 1)
    return tasks[0], models[0]


class TestVectorizedOracles:
    """The batched oracles against formulas evaluated one point or one draw
    at a time."""

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_true_risk_matches_per_draw_loop(self, arch, kind):
        """mlp1 against a loop over weight draws; linear, whose oracle
        takes the expectation over the weights per point, against a loop
        over points: the exact normal tail for 0-1, the 32-node
        Gauss-Hermite sum for the clipped logistic loss."""
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        n_eval, mc = 50, 30
        got = true_risk_mc(task, model, loss, n_eval, np.random.default_rng(8), mc_samples=mc)

        rng = np.random.default_rng(8)
        x, y = task.draw(n_eval, rng)
        d = arch.param_count
        post_mean, post_std = model.q[:d], np.exp(0.5 * model.q[d:])
        if arch.kind == "linear":
            nodes, weights = hermgauss(32)
            per_point = np.zeros(n_eval)
            for j in range(n_eval):
                mean = float(np.dot(post_mean, x[j]))
                sd = math.sqrt(float(np.dot(np.exp(model.q[d:]), x[j] * x[j])))
                if kind == "zero_one":
                    z = (2 * y[j] - 1) * mean / sd
                    per_point[j] = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
                else:
                    vals = loss_values(loss, arch, mean + math.sqrt(2.0) * sd * nodes, y[j])
                    per_point[j] = float(np.dot(weights, vals)) / math.sqrt(math.pi)
            risk = per_point.mean()
            se = np.sqrt(per_point.var(ddof=1) / n_eval)
        else:
            draws = post_mean + post_std * rng.standard_normal((mc, d))
            per_sample = np.zeros(n_eval)
            per_draw = np.zeros(mc)
            for k in range(mc):
                vals = loss_values(loss, arch, scores_batch(arch, draws[k], x), y)
                per_sample += vals
                per_draw[k] = vals.mean()
            per_sample /= mc
            risk = per_sample.mean()
            se = np.sqrt(per_sample.var(ddof=1) / n_eval + per_draw.var(ddof=1) / mc)
        assert abs(got[0] - risk) <= 1e-12
        assert abs(got[1] - se) <= 1e-12
        assert got[1] > 0.0

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_empirical_risk_matches_per_draw_loop(self, arch, kind):
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        got = mc_empirical_risk(model, task.train_x, task.train_y, loss, 40,
                                np.random.default_rng(9))
        d = arch.param_count
        draws = (model.q[:d] + np.exp(0.5 * model.q[d:])
                 * np.random.default_rng(9).standard_normal((40, d)))
        per_draw = [
            loss_values(loss, arch, scores_batch(arch, w, task.train_x), task.train_y).mean()
            for w in draws
        ]
        assert abs(got - float(np.mean(per_draw))) <= 1e-12


class TestLinearOracleOverWeights:
    """The linear oracle's expectation over the weights, point by point."""

    # the signed score at which the logistic loss reaches clip_max = 4
    KINK = math.log(math.expm1(4.0))

    def test_normal_rule_is_numpys_gauss_hermite_rule(self):
        """The rule, found by root bracketing and Newton steps, is numpy's
        ``hermgauss`` (an eigenvalue solve) rescaled to N(0, 1)."""
        for nodes in (1, 2, 5, 32, 64):
            points, weights = _normal_rule(nodes)
            t, w = hermgauss(nodes)
            np.testing.assert_allclose(points, math.sqrt(2.0) * t, rtol=0, atol=1e-14)
            np.testing.assert_allclose(weights, w / math.sqrt(math.pi), rtol=1e-12)

    @pytest.mark.parametrize("sd,max_tol,mean_tol", [(0.01, 2.5e-5, 2e-9),
                                                     (1.0, 2.5e-3, 2e-7),
                                                     (10.0, 2.5e-2, 2e-6)])
    def test_logistic_quadrature_against_a_trapezoid_reference(self, sd, max_tol, mean_tol):
        """400 points whose score means lie -8, -7.96, ..., 7.96 score sds
        from the clip's kink, against a 200,001-point trapezoid rule over
        +-10 sds. The tolerances sit just above the measured worst point
        (2.3e-5, 2.3e-3, 2.4e-2) and error of the mean (1.0e-9, 1.0e-7,
        1.0e-6); the rule's error grows with sd because the kink is not
        smooth."""
        loss = LossSpec("logistic_clipped")
        step = 1e-4  # the reference's step in sds
        offsets = np.arange(400) * 400 - 80_000  # each mean's distance from the kink, in steps
        mean = self.KINK + sd * step * offsets
        # x = (mean, 1) under weights N((1, 0), diag(0, sd^2)); exp(-800) is 0.0
        model = StochasticModel(LINEAR2, gaussian_row([1.0, 0.0], [-800.0, 2.0 * math.log(sd)]))
        x = np.stack([mean, np.ones(400)], axis=1)
        got = _linear_point_risks(model, x, np.ones(400, dtype=np.int64), loss)

        z = np.linspace(-10.0, 10.0, 200_001)
        weights = np.exp(-0.5 * z * z) * (step / math.sqrt(2.0 * math.pi))
        weights[[0, -1]] *= 0.5
        # one grid of scores holds every point's trapezoid nodes
        grid = self.KINK + sd * step * np.arange(offsets[0] - 100_000, offsets[-1] + 100_001)
        losses = loss_values(loss, LINEAR2, grid, 1)
        ref = np.array([losses[o - offsets[0]:o - offsets[0] + z.size] @ weights
                        for o in offsets])
        assert np.abs(got - ref).max() <= max_tol
        assert abs(float(np.mean(got - ref))) <= mean_tol

    def test_zero_one_without_score_spread_is_the_mean_scores_loss(self):
        """Where a point's score has sd 0 the 0-1 risk is that of the mean
        weights, not a normal tail of 0/0."""
        task = sample_tasks(LinearEnvSpec(2), 1, 1, np.random.default_rng(0))[0]
        w = np.array([1.0, -2.0])
        # exp(-800) is 0.0: every score has sd 0
        model = StochasticModel(LINEAR2, gaussian_row(w, np.full(2, -800.0)))
        risk, se = true_risk_mc(task, model, LossSpec("zero_one"), 300,
                                np.random.default_rng(1), mc_samples=7)
        x, y = task.draw(300, np.random.default_rng(1))
        wrong = loss_values(LossSpec("zero_one"), LINEAR2, x @ w, y)
        assert risk == wrong.mean()
        assert abs(se - np.sqrt(wrong.var(ddof=1) / 300)) <= 1e-15

    @pytest.mark.parametrize("kind", ["zero_one", "logistic_clipped"])
    def test_draws_only_the_points(self, kind):
        """A linear oracle call takes the points from its generator and no
        weights, so the generator ends where drawing the points leaves it."""
        (task,), (model,) = _oracle_tasks(LINEAR2, 1)
        rng = np.random.default_rng(13)
        true_risk_mc(task, model, LossSpec(kind), 40, rng, mc_samples=200)
        points_only = np.random.default_rng(13)
        task.draw(40, points_only)
        assert rng.bit_generator.state == points_only.bit_generator.state


class TestManyTaskOracle:
    """One oracle call over several tasks is a loop of one-task calls."""

    @pytest.mark.parametrize("shared", [True, False], ids=["one-generator", "per-task"])
    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_equals_one_call_per_task_bit_for_bit(self, arch, kind, shared):
        tasks, models = _oracle_tasks(arch, 3)
        loss = LossSpec(kind)

        def rngs():
            if shared:
                return [np.random.default_rng(8)] * len(tasks)
            return [np.random.default_rng(20 + i) for i in range(len(tasks))]

        together = true_risks_mc(tasks, models, loss, 50, rngs(), mc_samples=30)
        alone = [true_risk_mc(task, model, loss, 50, rng, mc_samples=30)
                 for task, model, rng in zip(tasks, models, rngs())]
        assert together == alone

    def test_tasks_of_two_architectures_share_a_call(self):
        (lin,), (lin_model,) = _oracle_tasks(LINEAR2, 1)
        (mlp,), (mlp_model,) = _oracle_tasks(MLP3, 1)
        loss = LossSpec("zero_one")
        together = true_risks_mc([lin, mlp, lin], [lin_model, mlp_model, lin_model], loss, 40,
                                 [np.random.default_rng(9 + i) for i in range(3)],
                                 mc_samples=20)
        alone = [true_risk_mc(task, model, loss, 40, np.random.default_rng(9 + i),
                              mc_samples=20)
                 for i, (task, model) in enumerate([(lin, lin_model), (mlp, mlp_model),
                                                    (lin, lin_model)])]
        assert together == alone

    def test_rejects_a_missing_model_or_generator(self):
        tasks, models = _oracle_tasks(LINEAR2, 2)
        loss = LossSpec("zero_one")
        with pytest.raises(ValueError, match="one model and one generator"):
            true_risks_mc(tasks, models[:1], loss, 5, [np.random.default_rng(0)] * 2,
                          mc_samples=5)
        with pytest.raises(ValueError, match="one model and one generator"):
            true_risks_mc(tasks, models, loss, 5, [np.random.default_rng(0)], mc_samples=5)


class TestLabelsOutOfRange:
    """Pricing rejects a label that is not an integer in the architecture's
    classes: the clipped losses pick a label's logit by masks, which no
    index bounds and which no class matches for 0.5."""

    @pytest.mark.parametrize("bad", [-1, "classes"])
    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_rejected_by_every_pricing_entry_point(self, arch, kind, bad):
        bad = arch.num_classes if bad == "classes" else bad
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        y = task.train_y.copy()
        y[3] = bad
        scores = scores_batch(arch, model.q[:arch.param_count], task.train_x)
        with pytest.raises(ValueError, match="label out of range"):
            loss_values(loss, arch, scores, y)
        with pytest.raises(ValueError, match="label out of range"):
            mc_empirical_risk(model, task.train_x, y, loss, 5, np.random.default_rng(8))
        # a task whose last class is drawn under the bad label
        spec = PermutedEnvSpec(base=BlobsSpec(num_points=40, dim=arch.input_dim,
                                              num_classes=arch.num_classes, seed=3))
        latent = np.arange(arch.num_classes, dtype=np.float64)
        latent[-1] = bad
        bad_task = Task(spec, latent, task.train_x, task.train_y)
        assert bad in bad_task.draw(50, np.random.default_rng(9))[1]
        with pytest.raises(ValueError, match="label out of range"):
            true_risks_mc([task, bad_task], [model, model], loss, 50,
                          [np.random.default_rng(9)] * 2, mc_samples=5)

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_a_non_integer_label_is_rejected(self, arch, kind):
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        y = task.train_y.astype(np.float64)
        y[3] = 0.5
        scores = scores_batch(arch, model.q[:arch.param_count], task.train_x)
        with pytest.raises(ValueError, match="labels must be integers"):
            loss_values(loss, arch, scores, y)
        with pytest.raises(ValueError, match="labels must be integers"):
            mc_empirical_risk(model, task.train_x, y, loss, 5, np.random.default_rng(8))


class TestLossPairing:
    """Pricing rejects a clipped loss the architecture does not take: the
    clipped loss itself no longer checks it, so each entry that takes a loss
    and a model from its caller does, linear oracle included."""

    @pytest.mark.parametrize("arch,kind", [(LINEAR2, "cross_entropy_clipped"),
                                           (MLP3, "logistic_clipped")])
    def test_rejected_by_every_pricing_entry_point(self, arch, kind):
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        scores = scores_batch(arch, model.q[:arch.param_count], task.train_x)
        match = f"the {arch.kind} architecture takes"
        with pytest.raises(ValueError, match=match):
            loss_values(loss, arch, scores, task.train_y)
        with pytest.raises(ValueError, match=match):
            mc_empirical_risk(model, task.train_x, task.train_y, loss, 5,
                              np.random.default_rng(8))
        with pytest.raises(ValueError, match=match):
            true_risks_mc([task], [model], loss, 50, [np.random.default_rng(9)], mc_samples=5)


class TestOraclesWriteIntoNoCallerArray:
    """The oracles and the loss leave every array their caller hands them,
    and the scores, unchanged."""

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_loss_values_twice_on_the_same_scores(self, arch, kind):
        task, model = _oracle_setup(arch)
        scores = scores_batch(arch, model.q[:arch.param_count], task.train_x)
        loss = LossSpec(kind)
        # a copy, so that a result written over the scores cannot pass
        first = loss_values(loss, arch, scores, task.train_y).copy()
        np.testing.assert_array_equal(loss_values(loss, arch, scores, task.train_y), first)

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_inputs_unchanged(self, arch, kind):
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        d = arch.param_count
        flat_w = (model.q[:d] + np.exp(0.5 * model.q[d:])
                  * np.random.default_rng(7).standard_normal((6, d)))
        scores = scores_batch(arch, flat_w, task.train_x)
        inputs = (flat_w, scores, task.train_x, task.train_y, task.latent, model.q)
        before = [a.copy() for a in inputs]
        scores_batch(arch, flat_w, task.train_x)
        loss_values(loss, arch, scores, task.train_y)
        mc_empirical_risk(model, task.train_x, task.train_y, loss, 5, np.random.default_rng(8))
        true_risk_mc(task, model, loss, 9, np.random.default_rng(9), mc_samples=5)
        true_risks_mc([task, task], [model, model], loss, 9, [np.random.default_rng(10)] * 2,
                      mc_samples=5)
        for after, kept in zip(inputs, before):
            np.testing.assert_array_equal(after, kept)


# sha256 of the float bytes of true_risk_mc's (risk, se) at (n_eval,
# mc_samples) = (50, 30), (1, 30) and (50, 1), followed by mc_empirical_risk on
# the training set at mc_samples 40 and 1, per oracle case. Recorded before
# the Monte-Carlo risks were computed in one owned buffer; the logistic one was
# re-recorded when its loss took softplus's float operations (tests/oracles.py) in place of
# np.logaddexp (within an ulp, see test_model.TestLogisticKernel). Both linear
# ones were re-recorded when the linear oracle took its expectation over the
# weights per point (the exact normal tail, the 32-node Gauss-Hermite sum) in
# place of weight draws. Any change to the oracles' floats moves them.
# Bit-exact floats: numpy 2.4 and OpenBLAS on x86-64.
ORACLE_DIGESTS = {
    "linear-zero_one":
        "57a09646c52b52f6f57c2e23fbb7147862ee2213662c46c02c9a937bc6c1fbc7",
    "linear-logistic_clipped":
        "e09585bc3f50df15c2c8c685e44f12c9b4f303899fd191caa7434260235b3f2a",
    "mlp1-zero_one":
        "33f81ecd464a72dc67aba1441d4bdd3e6d7e57e4a6c11c0c83b41a9fc91da0ec",
    "mlp1-cross_entropy_clipped":
        "a7854fe036c7d3b08c8f6d374606f42918b189df394c20b4835b9c296d509146",
}


def _oracle_digest(arch, kind):
    task, model = _oracle_setup(arch)
    loss = LossSpec(kind)
    values = []
    for n_eval, mc in ((50, 30), (1, 30), (50, 1)):
        values += true_risk_mc(task, model, loss, n_eval, np.random.default_rng(11), mc_samples=mc)
    for mc in (40, 1):
        values.append(mc_empirical_risk(model, task.train_x, task.train_y, loss, mc,
                                        np.random.default_rng(12)))
    return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("arch,kind", ORACLE_CASES, ids=lambda v: getattr(v, "kind", v))
def test_oracles_are_bit_identical_to_their_recorded_digest(arch, kind):
    assert _oracle_digest(arch, kind) == ORACLE_DIGESTS[f"{arch.kind}-{kind}"], \
        f"ran on {kernel_report()}"
