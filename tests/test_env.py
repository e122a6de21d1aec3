"""Tests for synthetic task environments and the true-risk oracle."""

import numpy as np
import pytest

from metabounds.env import (
    BlobsSpec,
    LinearEnvSpec,
    PermutedEnvSpec,
    sample_tasks,
    true_risk_mc,
)
from metabounds.gauss import DiagonalGaussian
from metabounds.model import (
    LossSpec,
    ModelArchitecture,
    StochasticModel,
    glorot_init,
    loss_values,
    mc_empirical_risk,
    scores_batch,
)

LINEAR2 = ModelArchitecture("linear", 2)


def near_dirac_model(w):
    return StochasticModel(
        LINEAR2, DiagonalGaussian(np.asarray(w, dtype=float), np.full(2, -60.0))
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


class TestPermutedEnv:
    def test_identity_hook_reproduces_base(self):
        spec = PermutedEnvSpec(base=BlobsSpec(num_points=40, dim=4,
                                              num_classes=4, seed=7),
                               force_identity=True)
        base_x, base_y = spec.base.build()
        task = sample_tasks(spec, 1, 30, np.random.default_rng(0))[0]
        # every drawn sample must literally be a base point with its base label
        for x, y in zip(task.train_x, task.train_y):
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
        model = StochasticModel(LINEAR2,
                                DiagonalGaussian(np.zeros(2), np.zeros(2)))
        risk, se = true_risk_mc(task, model, LossSpec("zero_one"), 500,
                                np.random.default_rng(4), mc_samples=64)
        assert 0.0 < se < 0.1
        assert 0.3 < risk < 0.7

    def test_deterministic(self):
        task = self._task_with_w_star([10.0, 10.0])
        model = StochasticModel(LINEAR2,
                                DiagonalGaussian(np.zeros(2), np.zeros(2)))
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


def _oracle_setup(arch):
    """A task of the architecture's environment and a spread-out posterior."""
    if arch.kind == "linear":
        spec = LinearEnvSpec(2)
    else:
        spec = PermutedEnvSpec(base=BlobsSpec(num_points=40, dim=3, num_classes=4, seed=3))
    task = sample_tasks(spec, 1, 12, np.random.default_rng(5))[0]
    post = glorot_init(arch, np.random.default_rng(6))
    model = StochasticModel(arch, DiagonalGaussian(post.mean, np.full(arch.param_count, -1.0)))
    return task, model


class TestVectorizedOracles:
    """The draw-batched oracles against the one-draw-at-a-time formulas."""

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_true_risk_matches_per_draw_loop(self, arch, kind):
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        n_eval, mc = 50, 30
        got = true_risk_mc(task, model, loss, n_eval, np.random.default_rng(8), mc_samples=mc)

        rng = np.random.default_rng(8)
        x, y = task.draw(n_eval, rng)
        post = model.posterior
        draws = post.mean + post.std * rng.standard_normal((mc, post.dim))
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
        post = model.posterior
        draws = post.mean + post.std * np.random.default_rng(9).standard_normal((40, post.dim))
        per_draw = [
            loss_values(loss, arch, scores_batch(arch, w, task.train_x), task.train_y).mean()
            for w in draws
        ]
        assert abs(got - float(np.mean(per_draw))) <= 1e-12
