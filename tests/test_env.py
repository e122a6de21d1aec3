"""Tests for synthetic task environments and the true-risk oracle."""

import hashlib

import numpy as np
import pytest

from metabounds.env import (
    BlobsSpec,
    LinearEnvSpec,
    PermutedEnvSpec,
    Task,
    sample_tasks,
    true_risk_mc,
    true_risks_mc,
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

from host_kernels import kernel_report

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
        post = glorot_init(arch, np.random.default_rng(6 + i))
        models.append(StochasticModel(arch, DiagonalGaussian(post.mean,
                                                             np.full(arch.param_count, -1.0))))
    return tasks, models


def _oracle_setup(arch):
    """A task of the architecture's environment and a spread-out posterior."""
    tasks, models = _oracle_tasks(arch, 1)
    return tasks[0], models[0]


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


class TestOraclesWriteIntoNoCallerArray:
    """The losses are computed in place, but only in buffers the oracles make."""

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_loss_values_twice_on_the_same_scores(self, arch, kind):
        task, model = _oracle_setup(arch)
        scores = scores_batch(arch, model.posterior.mean, task.train_x)
        loss = LossSpec(kind)
        # a copy, so that a result written over the scores cannot pass
        first = loss_values(loss, arch, scores, task.train_y).copy()
        np.testing.assert_array_equal(loss_values(loss, arch, scores, task.train_y), first)

    @pytest.mark.parametrize("arch,kind", ORACLE_CASES)
    def test_inputs_unchanged(self, arch, kind):
        task, model = _oracle_setup(arch)
        loss = LossSpec(kind)
        post = model.posterior
        flat_w = post.mean + post.std * np.random.default_rng(7).standard_normal((6, post.dim))
        scores = scores_batch(arch, flat_w, task.train_x)
        inputs = (flat_w, scores, task.train_x, task.train_y, task.latent,
                  post.mean, post.log_var)
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
# np.logaddexp (within an ulp, see test_model.TestLogisticKernel). Any change to
# the oracles' floats moves them. Bit-exact floats: numpy 2.4 and OpenBLAS on x86-64.
ORACLE_DIGESTS = {
    "linear-zero_one":
        "ede53babede997ebaa628fef15628a5b8ec56139dc85ad20426d428a7aec936d",
    "linear-logistic_clipped":
        "391649a0fe8013463e124aafd5e59b948b7d4e83369b50920bd5e85c9be367cd",
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
