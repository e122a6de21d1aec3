"""Tests for stochastic models, bounded losses, and Monte-Carlo risk."""

import numpy as np
import pytest

from metabounds import diff
from metabounds.diff import Tape, gradcheck
from metabounds.gauss import DiagonalGaussian, isotropic
from metabounds.model import (
    LossSpec,
    ModelArchitecture,
    StochasticModel,
    glorot_init,
    join_flat,
    loss_values,
    mc_empirical_risk,
    predicted_labels,
    scores_batch,
    split_flat,
    taped_loss,
    taped_mc_risk,
)

LINEAR2 = ModelArchitecture("linear", 2)
MLP = ModelArchitecture("mlp1", 3, num_classes=4, hidden_dim=5)


def near_dirac(mean):
    return DiagonalGaussian(np.asarray(mean, dtype=float),
                            np.full(len(mean), -60.0))


class TestArchitecture:
    def test_linear_rejects_hidden_dim(self):
        with pytest.raises(ValueError):
            ModelArchitecture("linear", 2, hidden_dim=3)

    def test_mlp_requires_hidden_dim(self):
        with pytest.raises(ValueError):
            ModelArchitecture("mlp1", 2, num_classes=3)

    def test_param_count(self):
        assert LINEAR2.param_count == 2
        assert MLP.param_count == 3 * 5 + 5 + 5 * 4 + 4

    def test_split_join_roundtrip(self):
        flat = np.arange(MLP.param_count, dtype=float)
        np.testing.assert_array_equal(join_flat(MLP, split_flat(MLP, flat)), flat)

    def test_posterior_dimension_checked(self):
        with pytest.raises(ValueError):
            StochasticModel(LINEAR2, isotropic(np.zeros(3), 1.0))


class TestScoresBatch:
    """Scores of a single input, a batch of one."""

    def test_linear_score_and_label(self):
        score = scores_batch(LINEAR2, np.array([1.0, 0.0]), np.array([[0.5, 0.3]]))[0]
        assert score == pytest.approx(0.5)
        assert predicted_labels(LINEAR2, np.array([score]))[0] == 0

    def test_linear_sign_flip(self):
        score = scores_batch(LINEAR2, np.array([1.0, 0.0]), np.array([[-0.5, 0.3]]))[0]
        assert predicted_labels(LINEAR2, np.array([score]))[0] == 1

    def test_zero_mlp_gives_uniform_logits(self):
        logits = scores_batch(MLP, np.zeros(MLP.param_count), np.ones((1, 3)))[0]
        np.testing.assert_array_equal(logits, np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scores_batch(LINEAR2, np.array([1.0, 0.0]), np.ones((1, 3)))


class TestLossValues:
    def test_all_kinds_stay_in_unit_interval_at_extreme_scores(self):
        y = np.array([0, 1])
        for scale in (1e6, -1e6):
            s = np.full(2, scale)
            for kind in ("zero_one", "logistic_clipped"):
                vals = loss_values(LossSpec(kind), LINEAR2, s, y)
                assert np.all((vals >= 0.0) & (vals <= 1.0))
        logits = np.array([[1e6, -1e6, 0.0, 3.0], [-1e6, 1e6, 2.0, 1.0]])
        vals = loss_values(LossSpec("cross_entropy_clipped"), MLP, logits,
                           np.array([1, 0]))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_logistic_matches_two_class_cross_entropy(self):
        s = np.array([0.7, -1.3, 2.0])
        y = np.array([0, 1, 1])
        raw_logistic = np.logaddexp(0.0, (2.0 * y - 1.0) * s)
        logits = np.stack([s, np.zeros(3)], axis=1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        raw_ce = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(3), y]
        np.testing.assert_allclose(raw_logistic, raw_ce, rtol=1e-12)

    def test_clip_saturates(self):
        vals = loss_values(LossSpec("logistic_clipped", clip_max=2.0), LINEAR2,
                           np.array([50.0]), np.array([1]))
        assert vals[0] == 1.0


class TestMcEmpiricalRisk:
    def test_near_dirac_zero_error(self):
        w = np.array([1.0, 1.0])
        x = np.array([[0.5, 0.5], [-0.5, -0.5]])
        y = (x @ w <= 0).astype(int)
        m = StochasticModel(LINEAR2, near_dirac(w))
        risk = mc_empirical_risk(m, x, y, LossSpec("zero_one"), 3,
                                 np.random.default_rng(0))
        assert risk == 0.0

    def test_deterministic_given_seed(self):
        m = StochasticModel(LINEAR2, isotropic(np.zeros(2), 1.0))
        x = np.random.default_rng(1).uniform(-1, 1, (8, 2))
        y = np.zeros(8, dtype=int)
        r1 = mc_empirical_risk(m, x, y, LossSpec("logistic_clipped"), 1,
                               np.random.default_rng(7))
        r2 = mc_empirical_risk(m, x, y, LossSpec("logistic_clipped"), 1,
                               np.random.default_rng(7))
        assert r1 == r2

    def test_standard_normal_posterior_is_a_coin_flip(self):
        """Sign of w.x under w ~ N(0, I) is symmetric, so 0-1 risk is 1/2."""
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (50, 2))
        y = (x @ np.array([10.0, 10.0]) <= 0).astype(int)
        m = StochasticModel(LINEAR2, isotropic(np.zeros(2), 1.0))
        risk = mc_empirical_risk(m, x, y, LossSpec("zero_one"), 10_000,
                                 np.random.default_rng(11))
        assert abs(risk - 0.5) < 0.02

    def test_matches_closed_form_in_1d(self):
        """P(predicted label 1) = Phi(-mu/sigma) for a positive input."""
        arch = ModelArchitecture("linear", 1)
        mu, var = 0.8, 1.7
        m = StochasticModel(arch, DiagonalGaussian(np.array([mu]),
                                                   np.array([np.log(var)])))
        x = np.array([[1.0]])
        y = np.array([1])  # wrong whenever sampled w > 0
        mc = 100_000
        risk = mc_empirical_risk(m, x, y, LossSpec("zero_one"), mc,
                                 np.random.default_rng(5))
        from math import erf
        phi = 0.5 * (1.0 + erf((0.0 - mu) / np.sqrt(2.0 * var)))
        expected = 1.0 - phi  # P(w > 0)
        assert abs(risk - expected) <= 3 * 0.5 / np.sqrt(mc)

    def test_empty_dataset_rejected(self):
        m = StochasticModel(LINEAR2, isotropic(np.zeros(2), 1.0))
        with pytest.raises(ValueError):
            mc_empirical_risk(m, np.zeros((0, 2)), np.zeros(0),
                              LossSpec("zero_one"), 1, np.random.default_rng(0))


class TestGlorotInit:
    def test_initial_variance_scale(self):
        post = glorot_init(MLP, np.random.default_rng(0))
        assert np.all(np.abs(post.var - np.exp(-10.0)) < np.exp(-10.0))

    def test_linear_dimension(self):
        assert glorot_init(LINEAR2, np.random.default_rng(0)).dim == 2

    def test_same_seed_same_distribution(self):
        a = glorot_init(MLP, np.random.default_rng(4))
        b = glorot_init(MLP, np.random.default_rng(4))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.log_var, b.log_var)


class TestTapedRisk:
    def _build_for(self, arch, loss, x, y, seed):
        rng = np.random.default_rng(seed)
        post = glorot_init(arch, rng)
        shapes = arch.layer_shapes()
        eps = [{name: rng.standard_normal(s) for name, s in shapes}
               for _ in range(2)]
        from metabounds.model import split_flat as sf

        def build(ps):
            tape = Tape()
            mean_nodes = {}
            lv_nodes = {}
            leaves = []
            for i, (name, _) in enumerate(shapes):
                mean_nodes[name] = tape.tensor(ps[2 * i])
                lv_nodes[name] = tape.tensor(ps[2 * i + 1])
                leaves.extend([mean_nodes[name], lv_nodes[name]])
            out = taped_mc_risk(arch, mean_nodes, lv_nodes, x, y, loss, eps)
            return out, leaves

        mean_blocks = sf(arch, post.mean)
        lv_blocks = sf(arch, post.log_var)
        points = []
        for name, _ in shapes:
            points.extend([mean_blocks[name], lv_blocks[name]])
        return build, points

    def test_taped_value_matches_numpy_path(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (5, 2))
        y = rng.integers(0, 2, 5)
        post = glorot_init(LINEAR2, np.random.default_rng(8))
        loss = LossSpec("logistic_clipped")
        tape = Tape()
        mean_nodes = {"w": tape.tensor(post.mean)}
        lv_nodes = {"w": tape.tensor(post.log_var)}
        eps = {"w": np.random.default_rng(9).standard_normal(2)}
        out = taped_mc_risk(LINEAR2, mean_nodes, lv_nodes, x, y, loss, [eps])
        w = post.mean + post.std * eps["w"]
        m = StochasticModel(LINEAR2, near_dirac(w))
        direct = loss_values(loss, LINEAR2, x @ w, y).mean()
        np.testing.assert_allclose(float(out.value), direct, rtol=1e-12)

    def test_gradcheck_logistic(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (6, 2))
        y = rng.integers(0, 2, 6)
        build, points = self._build_for(LINEAR2, LossSpec("logistic_clipped"),
                                        x, y, seed=13)
        assert gradcheck(build, points) <= 1e-4

    def test_gradcheck_cross_entropy(self):
        rng = np.random.default_rng(10)
        arch = ModelArchitecture("mlp1", 3, num_classes=3, hidden_dim=4)
        x = rng.uniform(-1, 1, (6, 3))
        y = rng.integers(0, 3, 6)
        build, points = self._build_for(arch, LossSpec("cross_entropy_clipped"),
                                        x, y, seed=14)
        assert gradcheck(build, points) <= 1e-4

    def test_zero_one_rejected_on_tape(self):
        tape = Tape()
        s = tape.tensor(np.array([0.5]))
        with pytest.raises(ValueError):
            taped_loss(LINEAR2, LossSpec("zero_one"), s, np.array([0]))
