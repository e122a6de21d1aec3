"""Tests for stochastic models, bounded losses, and Monte-Carlo risk."""

import math

import numpy as np
import pytest

from metabounds import diff, model
from metabounds.diff import Tape, backward
from metabounds.gauss import DiagonalGaussian, isotropic
from metabounds.model import (
    LossSpec,
    ModelArchitecture,
    StochasticModel,
    block_layout,
    glorot_init,
    loss_values,
    mc_empirical_risk,
    predicted_labels,
    scores_batch,
    taped_mc_risk,
)

import oracles as ops
from oracles import gradcheck

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

    def test_block_layout_tiles_the_flat_vector(self):
        """The spans follow each other from 0 to param_count, one per named
        block in layer_shapes() order, each as long as its shape's size."""
        layout = block_layout(MLP)
        assert [(name, shape) for name, _, shape in layout] == MLP.layer_shapes()
        pos = 0
        for _, span, shape in layout:
            assert (span.start, span.stop, span.step) == (pos, pos + math.prod(shape), None)
            pos = span.stop
        assert pos == MLP.param_count

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
        """A linear score s is the class-0 logit against a class-1 logit of
        0, so its logistic loss is the cross-entropy of the logits [s, 0]."""
        s = np.array([0.7, -1.3, 2.0, 0.0, -30.0])
        two_class = ModelArchitecture("mlp1", 2, num_classes=2, hidden_dim=3)
        logits = np.stack([s, np.zeros(5)], axis=1)
        for label in (0, 1):
            y = np.full(5, label)
            logistic = loss_values(LossSpec("logistic_clipped"), LINEAR2, s, y)
            cross_entropy = loss_values(LossSpec("cross_entropy_clipped"), two_class, logits, y)
            np.testing.assert_allclose(logistic, cross_entropy, rtol=1e-14, atol=0.0)

    def test_clip_saturates(self):
        vals = loss_values(LossSpec("logistic_clipped", clip_max=2.0), LINEAR2,
                           np.array([50.0]), np.array([1]))
        assert vals[0] == 1.0

    @pytest.mark.parametrize("clip_max", [0.0, -1.0, np.inf, np.nan])
    def test_clip_max_must_be_positive_and_finite(self, clip_max):
        # an infinite clip would rescale every loss to 0, a NaN one to NaN
        with pytest.raises(ValueError, match="clip_max"):
            LossSpec("logistic_clipped", clip_max=clip_max)


def _kernel_scores():
    """Signed zeros, values at the edges of exp's range and of float64,
    infinities, and random scores at several scales."""
    edges = [0.0, -0.0, 1e-300, -1e-300, 709.0, 710.0, -745.0, 1e308, -1e308,
             np.inf, -np.inf]
    rng = np.random.default_rng(5)
    return np.concatenate([edges] + [rng.standard_normal(20_000) * scale
                                     for scale in (1e-3, 1.0, 30.0, 1e3)])


class TestLogisticKernel:
    """The oracles' clipped logistic loss, computed with the reference
    softplus's float operations in place of np.logaddexp. Label 1 scores the loss of
    t = s, label 0 that of t = -s."""

    @pytest.mark.parametrize("label", [0, 1])
    def test_within_an_ulp_of_logaddexp(self, label):
        t = _kernel_scores()
        s = t if label == 1 else -t
        loss = LossSpec("logistic_clipped")
        vals = loss_values(loss, LINEAR2, s, np.full(s.shape, label))
        ref = np.minimum(np.logaddexp(0.0, t), loss.clip_max) / loss.clip_max
        assert np.max(np.abs(vals - ref)) <= 2.3e-16

    def test_unclipped_losses_are_the_softplus_node_values(self):
        t = _kernel_scores()
        finite = t[np.isfinite(t)]
        with Tape() as tape:
            softplus = ops.softplus(tape.tensor(finite)).value
        # dividing by a power of two is exact where the quotient stays
        # normal; softplus is 0 or at least 2.2e-16, so each clip recovers
        # the unclipped losses in its range bit for bit
        covered = np.zeros(finite.shape, dtype=bool)
        for lo, clip in ((0.0, 2.0), (2.0, 2.0**1023)):
            vals = loss_values(LossSpec("logistic_clipped", clip_max=clip), LINEAR2,
                               finite, np.ones(finite.shape, dtype=np.int64))
            exact = (softplus >= lo) & (softplus <= clip)
            np.testing.assert_array_equal(vals[exact] * clip, softplus[exact])
            covered |= exact
        # only the softplus of 1e308 lies beyond 2**1023
        np.testing.assert_array_equal(finite[~covered], [1e308])

    def test_infinities_saturate_and_nan_stays_nan(self):
        vals = loss_values(LossSpec("logistic_clipped"), LINEAR2,
                           np.array([np.inf, -np.inf, np.nan]), np.ones(3, dtype=np.int64))
        assert vals[0] == 1.0
        assert vals[1] == 0.0
        assert np.isnan(vals[2])


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


class TestClassMax:
    """The cross-entropy losses subtract each row's largest logit, taken as
    one np.maximum per class: numpy reduces a short last axis with one inner
    loop per row. Class *sums* stay np.add.reduce, because column sums round
    differently from it from 8 classes on (numpy 2.4)."""

    @pytest.mark.parametrize("classes", range(2, 17))
    @pytest.mark.parametrize("lead", [(10, 1, 64), (50, 400)], ids=["step", "oracle"])
    def test_equals_the_reduction_bit_for_bit(self, classes, lead):
        rng = np.random.default_rng(classes)
        # small integers tie often, at zero too; every other row is continuous
        z = rng.integers(-3, 4, lead + (classes,)).astype(np.float64)
        z[..., ::2, :] += rng.normal(size=z[..., ::2, :].shape)
        expected = np.maximum.reduce(z, axis=-1)
        assert np.any(np.add.reduce(z == expected[..., None], axis=-1) > 1)
        assert model._class_max(z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("classes", range(2, 17))
    def test_a_maximum_tied_between_signed_zeros_moves_no_loss(self, classes, monkeypatch):
        """The reduction may give such a maximum the other sign (with numpy
        2.4 on AVX-512, from 9 classes on); the losses only subtract it and
        exponentiate."""
        rng = np.random.default_rng(classes)
        z = rng.choice([-0.0, 0.0, -1.0], size=(10, 1, 64, classes))
        y = rng.integers(0, classes, 64)
        assert np.array_equal(model._class_max(z), np.maximum.reduce(z, axis=-1))
        arch = ModelArchitecture("mlp1", 1, num_classes=classes, hidden_dim=1)
        loss = LossSpec("cross_entropy_clipped")
        losses = loss_values(loss, arch, z, y)
        monkeypatch.setattr(model, "_class_max", lambda s: np.maximum.reduce(s, axis=-1))
        assert loss_values(loss, arch, z, y).tobytes() == losses.tobytes()


class TestTapedRisk:
    def _build_for(self, arch, loss, x, y, seed):
        rng = np.random.default_rng(seed)
        post = glorot_init(arch, rng)
        # two draws, each filled block by block in layout order
        eps = rng.standard_normal((2, arch.param_count))

        def build(ps):
            q = Tape().tensor(ps[0])
            return taped_mc_risk(arch, q, x, y, loss, eps), [q]

        return build, [np.concatenate([post.mean, post.log_var])]

    def test_taped_value_matches_numpy_path(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (5, 2))
        y = rng.integers(0, 2, 5)
        post = glorot_init(LINEAR2, np.random.default_rng(8))
        loss = LossSpec("logistic_clipped")
        q = Tape().tensor(np.concatenate([post.mean, post.log_var]))
        eps = np.random.default_rng(9).standard_normal(2)
        out = taped_mc_risk(LINEAR2, q, x, y, loss, eps[None])
        w = post.mean + post.std * eps
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
        q = Tape().tensor(np.zeros(4))
        with pytest.raises(ValueError, match="not differentiable"):
            taped_mc_risk(LINEAR2, q, np.ones((1, 2)), np.array([0]), LossSpec("zero_one"),
                          np.zeros((1, 2)))

    @pytest.mark.parametrize("arch, kind", [(MLP, "logistic_clipped"),
                                            (LINEAR2, "cross_entropy_clipped")])
    def test_a_loss_the_architecture_does_not_take_is_rejected_on_tape(self, arch, kind):
        d = arch.param_count
        q = Tape().tensor(np.zeros(2 * d))
        with pytest.raises(ValueError, match=f"the {arch.kind} architecture takes"):
            taped_mc_risk(arch, q, np.ones((1, arch.input_dim)), np.array([0]), LossSpec(kind),
                          np.zeros((1, d)))

    def test_rejects_mismatched_shapes(self):
        loss = LossSpec("logistic_clipped")
        single, stacked = Tape().tensor(np.zeros(4)), Tape().tensor(np.zeros((2, 4)))
        x, y = np.ones((3, 2)), np.zeros(3, dtype=np.int64)
        for q, x, y, eps in ((single, x, y, np.zeros(2)), (single, x, y, np.zeros((1, 3))),
                             (single, np.ones((3, 5)), y, np.zeros((1, 2))),
                             (single, x, y[:2], np.zeros((1, 2))),
                             (stacked, x, y, np.zeros((1, 2))),
                             (stacked, x[None], y[None], np.zeros((2, 1, 2)))):
            with pytest.raises(ValueError, match="shapes"):
                taped_mc_risk(LINEAR2, q, x, y, loss, eps)

    def test_nonfinite_noise_is_rejected(self):
        q = Tape().tensor(np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            taped_mc_risk(LINEAR2, q, np.ones((1, 2)), np.array([0]),
                          LossSpec("logistic_clipped"), np.array([[0.0, np.nan]]))


def _chain_mc_risk(arch, loss, q, x, y, eps):
    """The chain of reference ops that taped_mc_risk stands for, kept as the
    reference of its one node: reparametrized draws, the forward pass on them
    (for mlp1 on the four blocks sliced from the draws), the logistic or
    cross-entropy loss, clip and rescale, and the mean over draws and
    samples. Returns the risk and the score and raw-loss nodes."""
    draws = ops.reparam(q, eps)
    if arch.kind == "linear":
        scores = ops.matmul(draws, np.ascontiguousarray(np.swapaxes(x, -1, -2)))
    else:
        lead = draws.shape[:-1]
        # biases are cut to (..., K, 1, width), broadcasting over the samples
        w1, b1, w2, b2 = (ops.slice(draws, (Ellipsis, span),
                                    lead + (1,) * (2 - len(shape)) + shape)
                          for _, span, shape in block_layout(arch))
        h = ops.tanh(ops.add(ops.matmul(x[..., None, :, :], w1), b1))
        scores = ops.add(ops.matmul(h, w2), b2)
    y = np.asarray(y)[..., None, :]
    if loss.kind == "logistic_clipped":
        raw = ops.softplus(ops.mul(scores, 2.0 * y - 1.0))
    else:
        raw = ops.softmax_cross_entropy(scores, y)
    return ops.mean(ops.clip_rescale(raw, loss.clip_max), axis=(-2, -1)), scores, raw


class TestRiskNode:
    """taped_mc_risk is one node, child of q alone. Its value and the adjoint
    it hands q equal, bit for bit, those of the chain of reference ops it
    stands for, on points where losses lie both below and above clip_max
    (adjoint 0) and, for linear, a score of a nonzero input is exactly 0
    (softplus's adjoint there is 1/2)."""

    @pytest.mark.parametrize("mc_train", [1, 3])
    @pytest.mark.parametrize("stacked", [False, True], ids=["row", "rows"])
    @pytest.mark.parametrize("arch, loss", [
        (LINEAR2, LossSpec("logistic_clipped")),
        (MLP, LossSpec("cross_entropy_clipped", clip_max=1.5)),
    ], ids=["linear", "mlp1"])
    def test_equals_its_chain(self, arch, loss, stacked, mc_train):
        rng = np.random.default_rng(127)
        lead = (3,) if stacked else ()
        d = arch.param_count
        q_value = np.concatenate([rng.normal(0.0, 1.5, lead + (d,)),
                                  rng.uniform(-3.0, -1.0, lead + (d,))], axis=-1)
        eps = rng.standard_normal(lead + (mc_train, d))
        # each task's full sample of 8, of which the step sees a minibatch of
        # 5. It holds a large input under two labels, so that some losses
        # pass clip_max, and for linear the input (1, 1), which the first
        # draw, (w, -w), scores exactly 0
        x = rng.uniform(-1.0, 1.0, lead + (8, arch.input_dim))
        x[..., 2, :] *= 40.0
        if arch.kind == "linear":
            q_value[..., 1], q_value[..., 3] = -q_value[..., 0], q_value[..., 2]
            eps[..., 0, 1] = -eps[..., 0, 0]
            x[..., 1, :] = 1.0
        x[..., 4, :] = x[..., 2, :]
        y = rng.integers(0, arch.num_classes, lead + (8,))
        y[..., 4] = (y[..., 2] + 1) % arch.num_classes
        batch = np.array([6, 1, 3, 2, 4])
        x, y = x[..., batch, :], y[..., batch]
        weights = rng.uniform(0.5, 2.0, lead)

        def run(risk_of):
            tape = Tape()
            q = tape.tensor(q_value)
            risk = risk_of(q)
            backward(ops.sum(ops.mul(risk, weights)))
            return risk.value, q.grad

        def fused(q):
            risk = taped_mc_risk(arch, q, x, y, loss, eps)
            assert risk.parents == (q,) and q.tape.nodes == [q, risk]
            return risk

        nodes = {}

        def chain(q):
            risk, nodes["scores"], nodes["raw"] = _chain_mc_risk(arch, loss, q, x, y, eps)
            return risk

        fused_value, fused_grad = run(fused)
        chain_value, chain_grad = run(chain)
        assert fused_value.shape == lead
        assert np.array_equal(fused_value, chain_value)
        assert np.array_equal(fused_grad, chain_grad)
        assert np.any(fused_grad != 0.0)
        if arch.kind == "linear":
            assert np.any(nodes["scores"].value == 0.0)
        raw = nodes["raw"].value
        assert np.any(raw > loss.clip_max) and np.any(raw < loss.clip_max)

    @pytest.mark.parametrize("clip_max", [4.0, 1.5])
    @pytest.mark.parametrize("arch", [LINEAR2, MLP], ids=["linear", "mlp1"])
    def test_prices_its_draws_as_loss_values_does(self, arch, clip_max, monkeypatch):
        """For fixed eps the node's per-draw losses are, bit for bit, those
        loss_values gives scores_batch of the same draws, and its value is
        their mean."""
        loss = LossSpec(model.CLIPPED_LOSS[arch.kind], clip_max=clip_max)
        rng = np.random.default_rng(131)
        d = arch.param_count
        q_value = np.concatenate([rng.normal(0.0, 1.5, d), rng.uniform(-3.0, -1.0, d)])
        eps = rng.standard_normal((4, d))
        # a large input under two labels, so that some losses pass clip_max
        x = rng.uniform(-1.0, 1.0, (9, arch.input_dim))
        x[2] *= 40.0
        x[4] = x[2]
        y = rng.integers(0, arch.num_classes, 9)
        y[4] = (y[2] + 1) % arch.num_classes
        seen = []
        shared = model._clipped_loss

        def spy(*args):
            losses, vjp = shared(*args)
            seen.append(losses)
            return losses, vjp

        monkeypatch.setattr(model, "_clipped_loss", spy)
        risk = taped_mc_risk(arch, Tape().tensor(q_value), x, y, loss, eps)
        monkeypatch.undo()
        draws = q_value[:d] + np.exp(q_value[d:] * 0.5) * eps
        expected = loss_values(loss, arch, scores_batch(arch, draws, x), y)
        [losses] = seen
        assert losses.shape == expected.shape and losses.tobytes() == expected.tobytes()
        assert np.any(expected == 1.0) and np.any(expected < 1.0)
        assert risk.value == np.add.reduce(expected, axis=(-2, -1)) / expected.size

    def test_a_nan_score_makes_the_risk_nan(self):
        """A NaN loss stays NaN, where a clip to 1 would price it at 1 (and
        this risk at 0.6068), so it reaches the training loops' finiteness
        checks."""
        q = Tape().tensor(np.array([1.0, 1.0, -20.0, -20.0]))
        x = np.array([[np.nan, 0.0], [0.1, 0.2]])
        risk = taped_mc_risk(LINEAR2, q, x, np.array([0, 1]), LossSpec("logistic_clipped"),
                             np.zeros((1, 2)))
        assert np.isnan(risk.value)
