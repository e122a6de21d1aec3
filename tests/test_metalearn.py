"""Tests for the two-prior learner: objective, schedule, adaptation."""

import contextlib
import gc
import hashlib
import math
import os
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from metabounds.bounds import (
    MetaBoundInput,
    adaptation_bound,
    multitask_slack,
    task_level_slack,
    theorem1_bound,
)
from metabounds import diff, metalearn
from metabounds.diff import backward
from metabounds.env import BlobsSpec, LinearEnvSpec, PermutedEnvSpec, sample_tasks
from metabounds.gauss import (
    DiagonalGaussian,
    expected_kl_fixed_spread_arrays,
    isotropic,
    kl_diag_gaussian,
)
from metabounds.metalearn import (
    MetaPosterior,
    TrainConfig,
    TrainingDiverged,
    adapt,
    adapt_many,
    adaptation_certificate,
    adaptation_objective,
    independent_baseline,
    load_meta_posterior,
    meta_kl,
    meta_objective,
    save_meta_posterior,
    train_meta,
)
from metabounds.model import (
    LossSpec,
    ModelArchitecture,
    StochasticModel,
    glorot_init,
    loss_values,
    taped_mc_risk,
)
from metabounds.rng import stream

from host_kernels import kernel_report
import oracles as ops
from oracles import gradcheck

LINEAR = ModelArchitecture("linear", input_dim=2)
LOGISTIC = LossSpec("logistic_clipped")


MLP = ModelArchitecture("mlp1", input_dim=3, hidden_dim=2, num_classes=3)
CROSS_ENTROPY = LossSpec("cross_entropy_clipped")
BLOBS = PermutedEnvSpec(base=BlobsSpec(num_points=60, dim=3, num_classes=3,
                                       center_scale=2.5, seed=0))

# Meta-posterior centers from a short train_meta run (see
# TestTrainMeta.test_matches_recorded_*). They pin the random draw order of
# training; re-recorded when each step stopped drawing a regularization prior
# and took the exact expectation over it instead.
GOLDEN_LINEAR_THETA0 = np.array([
    -0.13533411301998916, -0.7405630899953927, -9.711132693395735, -9.770389065179893,
])
GOLDEN_LINEAR_THETA1 = np.array([
    -0.12807626223168572, -0.7335781261455289, -9.638541110356796, -9.698068049318106,
])
GOLDEN_MLP1_THETA0 = np.array([
    0.14794598568279146, 0.05573136949716671, 0.39068346153677624, -0.5068130693947493,
    0.08985588234631549, 0.45345098430108005, -0.040158971946663784,
    -0.03718513379163735, 0.04834662635682829, -0.2688124181713978,
    -0.15952467522306107, -0.7198318008425089, 0.06374808747480795,
    -0.20536960520916628, 0.04411562949224268, -0.06201564816193362,
    -0.04694192065505972, -9.468367981955119, -9.393084144913574, -9.489497372110122,
    -9.58286574059787, -9.602705557276318, -9.543273287141094, -9.522738449036648,
    -9.530698994526828, -9.498407402906777, -9.552713273089658, -9.669341947874592,
    -9.44741062886624, -9.513265931375281, -9.582617430918726, -9.519441702495595,
    -9.50782899513213, -9.577666718269793,
])
GOLDEN_MLP1_THETA1 = np.array([
    0.22486349999851626, 0.1340866171610952, 0.38570431292389173, -0.5729269599031102,
    0.20894758514516673, 0.4564004531011212, -0.10421443532877107, -0.1584155944073647,
    -0.05062340196097561, -0.3377320422254781, -0.23017869567507648,
    -0.6387933912285758, -0.01759601349702823, -0.14937017914270267,
    0.16252297005850588, -0.1396617083301249, -0.12265450239007011, -8.96628728013334,
    -8.89098040150303, -9.028401682090662, -9.086093138101758, -9.122524625187134,
    -9.081638722384211, -9.027340872391099, -9.051873557723564, -9.012778473362609,
    -9.054292919181702, -9.170217152507282, -8.944818345146938, -9.010715401996514,
    -9.0914942222329, -9.039784021639132, -9.005693412686032, -9.075907649055136,
])


def _cfg(**overrides):
    base = dict(arch=LINEAR, loss=LOGISTIC, epochs_stage1=4, epochs_stage2=3,
                learning_rate=1e-3, batch_size=128, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


class TestMetaPosterior:
    def test_holds_two_centers_and_one_spread(self):
        rho = MetaPosterior([0, 0, 0, 0], np.ones(4), 1e-3)
        assert [f.name for f in fields(rho)] == ["theta0", "theta1", "kappa_rho"]
        assert rho.weight_dim == 2
        assert rho.theta0.dtype == np.float64 and rho.theta1.dtype == np.float64
        np.testing.assert_array_equal(rho.theta1, np.ones(4))

    def test_rejects_mismatched_component_dimensions(self):
        with pytest.raises(ValueError, match="equal dimension"):
            MetaPosterior(np.zeros(4), np.zeros(6), 1e-3)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            MetaPosterior(np.zeros(3), np.zeros(3), 1e-3)

    @pytest.mark.parametrize("center", [np.zeros(0), np.zeros((2, 2))])
    def test_rejects_empty_or_stacked_centers(self, center):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            MetaPosterior(center, center, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_centers(self, bad):
        theta = np.zeros(4)
        theta[1] = bad
        with pytest.raises(ValueError, match="finite"):
            MetaPosterior(np.zeros(4), theta, 1e-3)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError, match="kappa_rho"):
            MetaPosterior(np.zeros(4), np.zeros(4), 0.0)

    @pytest.mark.parametrize("kappa_rho", [math.nan, math.inf])
    def test_rejects_non_finite_spread(self, kappa_rho):
        with pytest.raises(ValueError, match="kappa_rho"):
            MetaPosterior(np.zeros(4), np.zeros(4), kappa_rho)


class TestMetaKl:
    def test_matching_distributions_give_zero(self):
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 2.5)
        assert meta_kl(rho, 2.5) == pytest.approx(0.0, abs=1e-12)

    def test_single_weight_default_scales(self):
        """d = 1 with the default spreads: -2 + 4 log(1e5) plus a sliver."""
        rho = MetaPosterior(np.zeros(2), np.zeros(2), 1e-3)
        np.testing.assert_allclose(
            meta_kl(rho, 100.0), 44.05170186008091, rtol=1e-12
        )

    def test_equals_sum_of_component_divergences(self):
        rng = np.random.default_rng(3)
        dim = 6
        rho = MetaPosterior(
            rng.normal(size=dim), rng.normal(size=dim), 0.37
        )
        kappa_pi = 4.2
        reference = isotropic(np.zeros(dim), kappa_pi**2)
        expected = kl_diag_gaussian(
            isotropic(rho.theta0, rho.kappa_rho**2), reference
        ) + kl_diag_gaussian(isotropic(rho.theta1, rho.kappa_rho**2), reference)
        np.testing.assert_allclose(meta_kl(rho, kappa_pi), expected, rtol=1e-10)

    def test_nonnegative_for_arbitrary_spreads(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = MetaPosterior(
                rng.normal(size=4), rng.normal(size=4), float(rng.uniform(0.01, 5.0))
            )
            assert meta_kl(rho, float(rng.uniform(0.01, 5.0))) >= -1e-12


def _toy_tasks(n, m, seed=0):
    return sample_tasks(LinearEnvSpec(d=2), n, m, stream(seed, "tasks"))


class TestMetaObjective:
    def test_matches_certificate_evaluator_at_high_mc(self):
        """The training objective and the certificate built from the same
        quantities must agree up to Monte-Carlo noise."""
        tasks = _toy_tasks(3, 8, seed=1)
        cfg = _cfg(mc_train=1000)
        models = [
            StochasticModel(LINEAR, glorot_init(LINEAR, stream(2, "q", str(i))))
            for i in range(3)
        ]
        rng = np.random.default_rng(10)
        theta0 = rng.normal(0.0, 0.5, size=4)
        theta1 = rng.normal(0.0, 0.5, size=4)
        rho = MetaPosterior(theta0, theta1, 1e-3)

        value = meta_objective(rho, models, tasks, cfg, rng=np.random.default_rng(4))
        objective = float(value.value)

        prior = DiagonalGaussian(theta1[:2], theta1[2:])
        sum_kl = sum(kl_diag_gaussian(mdl.posterior, prior) for mdl in models)
        eval_rng = np.random.default_rng(5)
        risks = []
        for mdl, task in zip(models, tasks):
            from metabounds.model import mc_empirical_risk

            risks.append(
                mc_empirical_risk(mdl, task.train_x, task.train_y, LOGISTIC, 4000, eval_rng)
            )
        reference = theorem1_bound(
            MetaBoundInput(
                empirical_multitask_risk=float(np.mean(risks)),
                kl_rho_pi=meta_kl(rho, cfg.kappa_pi),
                per_algorithm_complexity=((0.0, sum_kl),),
                n=3,
                m=8,
                delta=cfg.delta,
            )
        )
        assert abs(objective - reference) < 0.02

    def test_equals_theorem1_bound_at_the_drawn_prior(self):
        """With the weight noise replayed, the taped certificate is the
        closed-form one term for term, slack constants included, and its
        summed task divergence is the exact expectation over regularization
        priors that prices the trained certificate. The weight noise is the
        only draw. The config keeps one spread while rho's varies: the
        objective prices rho at rho's own kappa_rho."""
        tasks = _toy_tasks(3, 6, seed=103)
        rng = np.random.default_rng(107)
        models = [
            StochasticModel(LINEAR, DiagonalGaussian(rng.normal(0, 0.5, 2), rng.uniform(-3, -1, 2)))
            for _ in range(3)
        ]
        theta0 = np.concatenate([rng.normal(0, 0.5, 2), rng.uniform(-3, -1, 2)])
        theta1 = np.concatenate([rng.normal(0, 0.5, 2), rng.uniform(-3, -1, 2)])
        cfg = _cfg(mc_train=2, kappa_rho=1e-3)
        values = set()
        for kappa_rho in (1e-3, 0.05, 0.5):
            rho = MetaPosterior(theta0, theta1, kappa_rho)
            drawn = np.random.default_rng(109)
            value = float(meta_objective(rho, models, tasks, cfg, rng=drawn).value)

            replay = np.random.default_rng(109)
            eps = replay.standard_normal((3, 2, 2))
            assert drawn.bit_generator.state == replay.bit_generator.state
            risks = [
                np.mean([loss_values(LOGISTIC, LINEAR, task.train_x @ (post.mean + post.std * e),
                                     task.train_y).mean() for e in task_eps])
                for post, task, task_eps in zip((m.posterior for m in models), tasks, eps)
            ]
            task_kls = expected_kl_fixed_spread_arrays(
                np.stack([m.posterior.mean for m in models]),
                np.stack([m.posterior.log_var for m in models]),
                theta1[:2], theta1[2:], kappa_rho**2)
            expected = theorem1_bound(MetaBoundInput(
                empirical_multitask_risk=float(np.mean(risks)),
                kl_rho_pi=meta_kl(rho, cfg.kappa_pi),
                per_algorithm_complexity=((0.0, float(np.sum(task_kls))),),
                n=3, m=6, delta=cfg.delta,
            ))
            assert abs(value - expected) <= 1e-12
            values.add(value)
        assert len(values) == 3

    def test_gradcheck_linear(self):
        tasks = _toy_tasks(2, 6, seed=3)
        cfg = _cfg(mc_train=1)
        rng = np.random.default_rng(14)
        theta0 = np.concatenate([rng.normal(0, 0.5, 2), rng.uniform(-3, -1, 2)])

        def build(ps):
            rho = MetaPosterior(theta0, ps[0], 0.05)
            models = [StochasticModel(LINEAR, DiagonalGaussian(row[:2], row[2:]))
                      for row in ps[1]]
            leaves = {}
            value = meta_objective(
                rho, models, tasks, cfg, rng=np.random.default_rng(999), leaves_out=leaves
            )
            return value, [leaves["theta1"], leaves["q"]]

        for trial in range(3):
            trial_rng = np.random.default_rng(40 + trial)
            # theta1, then the two task rows: two means, then two log-variances
            rows = [np.concatenate([trial_rng.normal(0, 0.5, 2), trial_rng.uniform(-3, -1, 2)])
                    for _ in range(3)]
            assert gradcheck(build, [rows[0], np.stack(rows[1:])]) <= 1e-4

    def test_gradcheck_hidden_layer(self):
        arch = ModelArchitecture("mlp1", input_dim=2, num_classes=2, hidden_dim=3)
        loss = LossSpec("cross_entropy_clipped")
        tasks = _toy_tasks(1, 5, seed=9)
        cfg = _cfg(arch=arch, loss=loss, mc_train=1)
        d = arch.param_count
        from metabounds.model import block_layout

        theta0 = np.concatenate([np.zeros(d), np.full(d, -2.0)])

        def build(ps):
            rho = MetaPosterior(theta0, ps[0], 0.05)
            model = StochasticModel(arch, DiagonalGaussian(ps[1][0, :d], ps[1][0, d:]))
            leaves = {}
            value = meta_objective(
                rho, [model], tasks, cfg, rng=np.random.default_rng(321), leaves_out=leaves
            )
            return value, [leaves["theta1"], leaves["q"]]

        trial_rng = np.random.default_rng(77)

        def row():
            # the weight means block by block, then the log-variances
            means, log_vars = np.empty(d), np.empty(d)
            for _, span, shape in block_layout(arch):
                means[span] = trial_rng.normal(0, 0.4, shape).ravel()
            for _, span, shape in block_layout(arch):
                log_vars[span] = trial_rng.uniform(-3, -1, shape).ravel()
            return np.concatenate([means, log_vars])

        assert gradcheck(build, [row(), row()[None]]) <= 1e-4

    def test_moving_a_posterior_off_the_prior_raises_the_objective(self):
        tasks = _toy_tasks(2, 10, seed=5)
        cfg = _cfg()
        theta = np.concatenate([np.zeros(2), np.full(2, -8.0)])
        rho = MetaPosterior(theta, theta, 1e-3)
        matched = [
            StochasticModel(LINEAR, DiagonalGaussian(np.zeros(2), np.full(2, -8.0)))
            for _ in range(2)
        ]
        shifted = [
            StochasticModel(
                LINEAR, DiagonalGaussian(np.full(2, 0.1), np.full(2, -8.0))
            ),
            matched[1],
        ]
        near = float(meta_objective(rho, matched, tasks, cfg, rng=np.random.default_rng(0)).value)
        far = float(meta_objective(rho, shifted, tasks, cfg, rng=np.random.default_rng(0)).value)
        assert far > near

    def test_rejects_length_mismatch(self):
        tasks = _toy_tasks(2, 6)
        model = StochasticModel(LINEAR, glorot_init(LINEAR, stream(0, "q")))
        with pytest.raises(ValueError, match="one task posterior per task"):
            meta_objective(MetaPosterior(np.zeros(4), np.zeros(4), 1e-3),
                           [model], tasks, _cfg())


def _chain_meta_certificate(cfg, m, theta0, theta1, q, x, y, rng):
    """metalearn._meta_certificate spelled out as a chain of reference ops,
    kept as the reference of its one-node arithmetic: the divergence from
    theta1 with its log-variances lowered by kappa_rho**2 / 2, plus n times
    the spread term of the expectation over regularization priors. Returns the
    certificate and its risk node."""
    n, width = q.shape
    d = width // 2
    half = 0.5 * cfg.kappa_rho**2
    p = ops.sub(theta1, np.concatenate([np.zeros(d), np.full(d, half)]))
    eps = rng.standard_normal((n, cfg.mc_train, d))
    risk = taped_mc_risk(cfg.arch, q, x, y, cfg.loss, eps)
    kl_sum = ops.sum(ops.kl_chain(q, p))
    spread = ops.mul(ops.sum(ops.add(ops.exp(ops.sub(half, ops.slice(theta1, np.s_[d:]))), 0.5)),
                     half * n)

    def sum_squares(theta):
        if isinstance(theta, diff.Tensor):
            return ops.sum(ops.mul(theta, theta))
        return np.sum(theta * theta)

    squares = ops.add(sum_squares(theta0), sum_squares(theta1))
    scale, shift = metalearn._meta_kl_coefficients(d, cfg.kappa_rho, cfg.kappa_pi)
    mkl = ops.add(ops.mul(squares, scale), shift)
    empirical = ops.mul(ops.sum(risk), 1.0 / n)
    task_term = ops.sqrt(ops.mul(ops.add(mkl, task_level_slack(n, cfg.delta)), 1.0 / (2.0 * n)))
    multi_term = ops.sqrt(ops.mul(
        ops.add(ops.add(ops.add(mkl, kl_sum), spread), multitask_slack(n, m, cfg.delta)),
        1.0 / (2.0 * n * m)))
    return ops.add(ops.add(empirical, task_term), multi_term), risk


def _chain_adaptation_certificates(cfg, m, q, prior, x, y, eps):
    """metalearn._adaptation_certificates as a chain of reference ops, kept as
    the reference of its one-node arithmetic. Returns the summed certificates,
    the (n,) certificates and their risk node."""
    risk = taped_mc_risk(cfg.arch, q, x, y, cfg.loss, eps)
    kl = ops.kl_chain(q, prior)
    root = ops.sqrt(ops.mul(ops.add(kl, multitask_slack(1, m, cfg.delta)), 1.0 / (2.0 * m)))
    values = ops.add(risk, root)
    return ops.sum(values), values.value, risk


def _fused_meta(*args):
    """metalearn._meta_certificate, returning its node and the node's risk
    input as the reference chain does."""
    out = metalearn._meta_certificate(*args)
    return out, out.parents[0]


def _fused_adaptation(*args):
    """metalearn._adaptation_certificates, returning its summed node, the
    (n,) certificates and the node's risk input as the reference chain
    does."""
    out, values = metalearn._adaptation_certificates(*args)
    return out, values, out.parents[0]


def _certificate_setup(arch, n, seed):
    """A config, stacked minibatch data of n tasks, and posterior and prior
    rows of the architecture's width. No scale factor of the certificates is
    a power of two, so that every reordering of their float operations can
    round differently, and kappa_rho is wide enough that the spread term of
    the meta-certificate moves its value by far more than a rounding."""
    rng = np.random.default_rng(seed)
    width = 2 * arch.param_count
    if arch.kind == "linear":
        tasks = _toy_tasks(n, 6, seed=seed)
        cfg = _cfg(mc_train=2, kappa_pi=3.0, kappa_rho=0.3)
    else:
        tasks = sample_tasks(BLOBS, n, 6, stream(seed, "tasks"))
        cfg = _cfg(arch=MLP, loss=CROSS_ENTROPY, mc_train=2, kappa_pi=3.0, kappa_rho=0.3)
    x, y = metalearn._stacked_data(tasks, cfg.arch)

    def rows(*lead):
        return np.concatenate([rng.normal(0.0, 0.5, lead + (width // 2,)),
                               rng.uniform(-3.0, -1.0, lead + (width // 2,))], axis=-1)

    return cfg, x, y, rows


class TestGaussianKl:
    """The divergence the certificate nodes take in: its value and both
    adjoints equal, bit for bit, those of the 12-op reference chain."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(113)

    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("prior_kind", ["row", "stacked"])
    def test_equals_its_chain(self, rng, prior_kind, n):
        d = 3
        q_value = rng.normal(-0.5, 0.5, (n, 2 * d))
        p_value = rng.normal(-0.5, 0.5, (2 * d,) if prior_kind == "row" else (n, 2 * d))
        weights = rng.normal(size=n)
        tape = diff.Tape()
        q, p = tape.tensor(q_value), tape.tensor(p_value)
        chain = ops.kl_chain(q, p)
        backward(ops.sum(ops.mul(chain, weights)))

        value, vjp = metalearn._gaussian_kl(q_value, p_value[..., :d], p_value[..., d:],
                                            np.exp(-p_value[..., d:]))
        g_q, g_p = vjp(weights)
        assert g_q.shape == q_value.shape and g_p().shape == p_value.shape
        for a, b in ((value, chain.value), (g_q, q.grad), (g_p(), p.grad)):
            assert np.any(a != 0.0)
            assert np.array_equal(a, b)

    def test_is_the_closed_form(self, rng):
        q = rng.normal(size=(2, 6))
        p = rng.normal(size=6)
        value, _ = metalearn._gaussian_kl(q, p[:3], p[3:], np.exp(-p[3:]))
        for row, kl in zip(q, value):
            expected = kl_diag_gaussian(DiagonalGaussian(row[:3], row[3:]),
                                        DiagonalGaussian(p[:3], p[3:]))
            assert abs(kl - expected) <= 1e-12


class TestCertificateNodes:
    """Each certificate, with the divergence of the task posteriors from
    their prior, is one node. Its value and the adjoints it hands on equal,
    bit for bit, those of the chain of reference ops it stands for; a
    reordered float operation changes the last bit at some of the points
    compared."""

    @pytest.mark.parametrize("form", ["tied", "frozen"])
    @pytest.mark.parametrize("arch", [LINEAR, MLP], ids=["linear", "mlp1"])
    @pytest.mark.parametrize("seed", range(10))
    def test_meta_certificate_equals_its_chain(self, arch, form, seed):
        cfg, x, y, rows = _certificate_setup(arch, 3, seed=61 + seed)
        theta0_value, theta1_value, q_value = rows(), rows(), rows(3)

        def run(certificate):
            tape = diff.Tape()
            theta1 = tape.tensor(theta1_value)
            theta0 = theta1 if form == "tied" else theta0_value
            q = tape.tensor(q_value)
            out, risk = certificate(cfg, 6, theta0, theta1, q, x, y,
                                    np.random.default_rng(seed))
            backward(out)
            return out.value, risk.grad, theta1.grad, q.grad

        fused = run(_fused_meta)
        chain = run(_chain_meta_certificate)
        assert len(fused) == len(chain)
        for a, b in zip(fused, chain):
            assert np.any(a != 0.0)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("arch", [LINEAR, MLP], ids=["linear", "mlp1"])
    @pytest.mark.parametrize("seed", range(10))
    def test_adaptation_certificates_equal_their_chain(self, arch, n, seed):
        cfg, x, y, rows = _certificate_setup(arch, n, seed=73 + seed)
        q_value, prior = rows(n), rows(n)
        eps = np.random.default_rng(seed).standard_normal((n, cfg.mc_train, arch.param_count))

        def run(certificates):
            tape = diff.Tape()
            q = tape.tensor(q_value)
            out, values, risk = certificates(cfg, 6, q, prior, x, y, eps)
            backward(out)
            return out.value, values, risk.grad, q.grad

        fused = run(_fused_adaptation)
        chain = run(_chain_adaptation_certificates)
        assert fused[0].shape == ()
        for a, b in zip(fused, chain):
            assert np.any(a != 0.0)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("form", ["tied", "frozen"])
    def test_meta_certificate_node_gradcheck(self, form):
        rng = np.random.default_rng(89)
        frozen = rng.normal(0.0, 0.5, 4)
        points = [rng.normal(0.0, 0.5, 4),
                  np.concatenate([rng.normal(0.0, 0.5, (3, 2)), rng.uniform(-2.0, 0.0, (3, 2))],
                                 axis=1),
                  rng.uniform(0.1, 0.9, 3)]
        # at the wider spread the spread term's adjoint is material
        for kappa_rho in (1e-3, 0.5):
            cfg = _cfg(kappa_pi=2.0, kappa_rho=kappa_rho)

            def build(ps):
                tape = diff.Tape()
                theta1, q, risk = (tape.tensor(v) for v in ps)
                theta0 = theta1 if form == "tied" else frozen
                return (metalearn._meta_certificate_node(cfg, 7, theta0, theta1, q, risk),
                        [theta1, q, risk])

            assert gradcheck(build, points) <= 1e-6

    def test_adaptation_certificate_node_gradcheck(self):
        cfg = _cfg()
        rng = np.random.default_rng(97)
        prior = rng.normal(-0.5, 0.5, (3, 4))

        def build(ps):
            tape = diff.Tape()
            q, risk = tape.tensor(ps[0]), tape.tensor(ps[1])
            node, _ = metalearn._adaptation_certificate_node(cfg, 9, q, prior, risk)
            return node, [q, risk]

        assert gradcheck(build, [rng.normal(-0.5, 0.5, (3, 4)), rng.uniform(0.1, 0.9, 3)]) <= 1e-6

    def test_nonpositive_square_root_argument_is_rejected(self):
        """A valid config keeps both arguments positive; a delta past 1,
        which TrainConfig rejects, makes the slacks negative. The square
        roots are then NaN, and the finiteness check stops the first step:
        at kappa_pi = kappa_rho = 10 the meta-KL of the initial centers stays
        below -task_level_slack(2, 1e3) = 5.2."""
        cfg = _cfg(kappa_pi=10.0, kappa_rho=10.0)
        object.__setattr__(cfg, "delta", 1e3)
        tape = diff.Tape()
        risk, theta = tape.tensor(np.full(2, 0.5)), tape.tensor(np.zeros(4))
        q = tape.tensor(np.zeros((2, 4)))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            meta = metalearn._meta_certificate_node(cfg, 7, theta, theta, q, risk)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            node, _ = metalearn._adaptation_certificate_node(cfg, 7, q, np.zeros((2, 4)), risk)
        assert np.isnan(meta.value) and np.isnan(node.value)
        with (pytest.warns(RuntimeWarning, match="invalid value"),
              pytest.raises(TrainingDiverged, match="objective became non-finite")):
            train_meta(_toy_tasks(2, 6, seed=3), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_passes_through_to_the_finiteness_checks(self):
        cfg = _cfg()
        tape = diff.Tape()
        risk, theta = tape.tensor(np.full(2, 0.5)), tape.tensor(np.zeros(4))
        # a leaf that skips the finiteness check: row 0 reads NaN, row 1 inf
        q = diff.Tensor(tape, np.array([[np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]),
                        (), None)
        assert np.isnan(metalearn._meta_certificate_node(cfg, 7, theta, theta, q, risk).value)
        node, values = metalearn._adaptation_certificate_node(cfg, 7, q, np.zeros((2, 4)), risk)
        assert np.isnan(node.value) and np.isnan(values[0]) and values[1] == np.inf


class TestTrainMeta:
    def test_deterministic_given_seed(self):
        tasks = _toy_tasks(3, 12, seed=11)
        cfg = _cfg()
        rho_a, trace_a = train_meta(tasks, cfg)
        rho_b, trace_b = train_meta(tasks, cfg)
        assert np.array_equal(rho_a.theta0, rho_b.theta0)
        assert np.array_equal(rho_a.theta1, rho_b.theta1)
        assert trace_a.objectives == trace_b.objectives

    def test_stage_two_never_touches_the_initialization_component(self):
        tasks = _toy_tasks(3, 12, seed=13)
        tied_only, _ = train_meta(tasks, _cfg(epochs_stage2=0))
        both, _ = train_meta(tasks, _cfg(epochs_stage2=4))
        assert np.array_equal(tied_only.theta0, both.theta0)
        assert not np.array_equal(both.theta1, both.theta0)

    def test_tied_run_returns_equal_components(self):
        tasks = _toy_tasks(2, 8, seed=17)
        rho, trace = train_meta(tasks, _cfg(epochs_stage2=0))
        assert np.array_equal(rho.theta0, rho.theta1)
        assert trace.stage_boundary == len(trace.objectives) == 4

    def test_trace_shape_and_finiteness(self):
        tasks = _toy_tasks(2, 8, seed=19)
        _, trace = train_meta(tasks, _cfg(epochs_stage1=5, epochs_stage2=3))
        assert len(trace.objectives) == 8
        assert trace.stage_boundary == 5
        assert all(math.isfinite(v) for v in trace.objectives)

    def test_stage_one_objective_decreases_smoothed(self):
        tasks = _toy_tasks(4, 20, seed=23)
        cfg = _cfg(epochs_stage1=60, epochs_stage2=0, learning_rate=1e-2)
        _, trace = train_meta(tasks, cfg)
        smoothed = np.convolve(trace.objectives, np.full(10, 0.1), mode="valid")
        assert smoothed[-1] < smoothed[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_trace(self):
        tasks = _toy_tasks(2, 8, seed=29)
        cfg = _cfg(learning_rate=1e8, epochs_stage1=6, epochs_stage2=0)
        with pytest.raises(TrainingDiverged) as excinfo:
            train_meta(tasks, cfg)
        assert isinstance(excinfo.value.trace.objectives, list)
        assert excinfo.value.task is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage_two_divergence_keeps_the_stage_one_epochs(self):
        # one epoch at this rate leaves finite stage-one parameters whose
        # log-variances overflow the first stage-two step
        tasks = _toy_tasks(2, 8, seed=29)
        cfg = _cfg(learning_rate=1e8, epochs_stage1=1, epochs_stage2=3)
        with pytest.raises(TrainingDiverged) as excinfo:
            train_meta(tasks, cfg)
        failed = excinfo.value
        assert failed.task is None
        assert failed.trace.stage_boundary == len(failed.trace.objectives) == 1
        assert math.isfinite(failed.trace.objectives[0])

    def test_rejects_empty_task_list(self):
        with pytest.raises(ValueError, match="at least one"):
            train_meta([], _cfg())

    def test_matches_recorded_linear_run(self):
        tasks = sample_tasks(LinearEnvSpec(d=2), 3, 12, stream(11, "tasks"))
        cfg = _cfg(learning_rate=1e-2, batch_size=5, mc_train=2)
        rho, _ = train_meta(tasks, cfg)
        np.testing.assert_allclose(rho.theta0, GOLDEN_LINEAR_THETA0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rho.theta1, GOLDEN_LINEAR_THETA1, rtol=0, atol=1e-9)

    def test_matches_recorded_hidden_layer_run(self):
        tasks = sample_tasks(BLOBS, 3, 16, stream(5, "tasks"))
        cfg = _cfg(arch=MLP, loss=CROSS_ENTROPY, epochs_stage1=3, epochs_stage2=3,
                   learning_rate=0.1, batch_size=8, mc_train=2, seed=5)
        rho, _ = train_meta(tasks, cfg)
        np.testing.assert_allclose(rho.theta0, GOLDEN_MLP1_THETA0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rho.theta1, GOLDEN_MLP1_THETA1, rtol=0, atol=1e-9)

    def test_meta_step_tape_size_does_not_grow_with_tasks(self, monkeypatch):
        sizes = []
        real_backward = diff.backward

        def counting_backward(out):
            sizes.append(out.idx + 1)
            real_backward(out)

        monkeypatch.setattr(diff, "backward", counting_backward)
        per_count = {}
        for n in (2, 10):
            sizes.clear()
            cfg = _cfg(arch=MLP, loss=CROSS_ENTROPY, epochs_stage1=1, epochs_stage2=1)
            train_meta(sample_tasks(BLOBS, n, 8, stream(n, "tasks")), cfg)
            per_count[n] = list(sizes)
        assert per_count[2] == per_count[10]
        assert len(per_count[2]) == 2


@contextlib.contextmanager
def _cyclic_tape_garbage():
    """Yield a list that receives, when the block ends, every tape and node
    that only the cyclic collector could free. The gc state is restored."""
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    found = []
    try:
        yield found
        gc.collect()
        found.extend(type(obj).__name__ for obj in gc.garbage
                     if isinstance(obj, (diff.Tensor, diff.Tape)))
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if enabled:
            gc.enable()


class TestRunData:
    """A run checks its stacked data once, before its first step; the
    public objectives check theirs on every call."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_input_stops_a_run_before_its_first_backward_pass(self, monkeypatch):
        tasks = _toy_tasks(2, 8, seed=31)
        bad_x = tasks[1].train_x.copy()
        # a row that no task's first minibatch of 2 holds, in either run
        bad_x[5, 0] = np.nan
        tasks[1] = replace(tasks[1], train_x=bad_x)
        cfg = _cfg(batch_size=2)
        passes = []
        real_backward = diff.backward

        def counting_backward(out):
            passes.append(out.idx)
            real_backward(out)

        monkeypatch.setattr(diff, "backward", counting_backward)
        with pytest.raises(ValueError, match="finite"):
            train_meta(tasks, cfg)
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        with pytest.raises(ValueError, match="finite"):
            adapt_many(rho, tasks, cfg, adapt_epochs=1,
                       rngs=[stream(3, "adapt", i) for i in range(len(tasks))])
        assert passes == []
        model = StochasticModel(LINEAR, glorot_init(LINEAR, stream(2, "q")))
        with pytest.raises(ValueError, match="finite"):
            meta_objective(rho, [model, model], tasks, cfg)
        with pytest.raises(ValueError, match="finite"):
            adaptation_objective(model, isotropic(np.zeros(2), 1.0), tasks[1], cfg)


    def test_non_integer_labels_stop_a_run(self):
        tasks = _toy_tasks(2, 8, seed=31)
        tasks[1] = replace(tasks[1], train_y=tasks[1].train_y.astype(np.float64))
        with pytest.raises(ValueError, match="labels must be integers"):
            train_meta(tasks, _cfg(batch_size=2))

    @pytest.mark.parametrize("arch, label", [(LINEAR, 2), (LINEAR, -1), (MLP, 3), (MLP, -1)],
                             ids=["linear-2", "linear-neg", "mlp1-3", "mlp1-neg"])
    def test_an_out_of_range_label_stops_a_run_before_its_first_backward_pass(
            self, monkeypatch, arch, label):
        if arch.kind == "linear":
            tasks, cfg = _toy_tasks(2, 8, seed=31), _cfg(batch_size=2)
        else:
            tasks = sample_tasks(BLOBS, 2, 8, stream(31, "tasks"))
            cfg = _cfg(arch=MLP, loss=CROSS_ENTROPY, batch_size=2)
        bad_y = tasks[1].train_y.copy()
        # a row that no task's first minibatch of 2 holds, in either run
        bad_y[5] = label
        tasks[1] = replace(tasks[1], train_y=bad_y)
        passes = []
        real_backward = diff.backward

        def counting_backward(out):
            passes.append(out.idx)
            real_backward(out)

        monkeypatch.setattr(diff, "backward", counting_backward)
        with pytest.raises(ValueError, match="label out of range"):
            train_meta(tasks, cfg)
        d = arch.param_count
        rho = MetaPosterior(np.zeros(2 * d), np.zeros(2 * d), 1e-3)
        with pytest.raises(ValueError, match="label out of range"):
            adapt_many(rho, tasks, cfg, adapt_epochs=1,
                       rngs=[stream(3, "adapt", i) for i in range(len(tasks))])
        assert passes == []


def _step_setup(arch):
    if arch.kind == "linear":
        return _toy_tasks(3, 8, seed=2), _cfg(epochs_stage1=1, epochs_stage2=1)
    return (sample_tasks(BLOBS, 3, 8, stream(2, "tasks")),
            _cfg(arch=MLP, loss=CROSS_ENTROPY, epochs_stage1=1, epochs_stage2=1))


class TestStepTapes:
    """One tape per optimizer step, holding only the parameters as leaves
    and freed by reference counting when the step ends."""

    @pytest.mark.parametrize("arch, meta_nodes, adapt_nodes",
                             [(LINEAR, (4, 4), 3), (MLP, (4, 4), 3)],
                             ids=["linear", "mlp1"])
    def test_node_and_leaf_counts_per_step(self, monkeypatch, arch, meta_nodes, adapt_nodes):
        steps = []
        real_backward = diff.backward

        def recording_backward(out):
            real_backward(out)
            nodes = out.tape.nodes[:out.idx + 1]
            steps.append((len(nodes), sum(1 for node in nodes if node.vjp is None)))

        monkeypatch.setattr(diff, "backward", recording_backward)
        tasks, cfg = _step_setup(arch)
        rho, _ = train_meta(tasks, cfg)
        # theta and q; stage two's frozen theta0 is a constant
        assert steps == [(meta_nodes[0], 2), (meta_nodes[1], 2)]
        steps.clear()
        adapted = adapt_many(rho, tasks, cfg, adapt_epochs=1,
                             rngs=[stream(3, "adapt", i) for i in range(len(tasks))])
        assert steps == [(adapt_nodes, 1)]
        # the public objectives build a stage-two step's and an adapt step's tape
        steps.clear()
        diff.backward(meta_objective(rho, [model for model, _ in adapted], tasks, cfg))
        model, prior = adapted[0]
        diff.backward(adaptation_objective(model, prior, tasks[0], cfg))
        assert steps == [(meta_nodes[1], 2), (adapt_nodes, 1)]

    @pytest.mark.parametrize("arch", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_steps_leave_no_cyclic_garbage(self, arch):
        tasks, cfg = _step_setup(arch)
        with _cyclic_tape_garbage() as leaked:
            rho, _ = train_meta(tasks, cfg)
            adapt_many(rho, tasks, cfg, adapt_epochs=2,
                       rngs=[stream(3, "adapt", i) for i in range(len(tasks))])
        assert leaked == []

    def test_finiteness_checks_per_step(self, monkeypatch):
        """A run checks its data once. Then a step checks only its weight
        noise: its leaves hold the parameters that the previous step's check
        found finite, and the fixed priors an adapt step measures against
        were checked once, before the first step."""
        checked = []
        real_finite = diff._finite

        def counting_finite(arr):
            checked.append(arr.shape)
            return real_finite(arr)

        monkeypatch.setattr(diff, "_finite", counting_finite)
        tasks, cfg = _step_setup(LINEAR)
        # one step per epoch; a stage of one epoch each
        rho, _ = train_meta(tasks, cfg)
        assert len(checked) == 2 + 2 * 1
        for epochs in (1, 2):
            checked.clear()
            adapt_many(rho, tasks, cfg, adapt_epochs=epochs,
                       rngs=[stream(3, "adapt", i) for i in range(len(tasks))])
            assert len(checked) == 2 + epochs * 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverging_step_leaves_no_cyclic_garbage(self):
        cfg = _cfg(learning_rate=1e8, epochs_stage1=6, epochs_stage2=0)
        with _cyclic_tape_garbage() as leaked:
            try:
                train_meta(_toy_tasks(2, 8, seed=29), cfg)
            except TrainingDiverged:
                pass
            else:
                pytest.fail("training did not diverge")
        assert leaked == []


# sha256 of the bytes of a short train_meta run (theta0, theta1, the trace
# and its stage boundary) followed by adapt_many on fresh tasks (every
# posterior's means and log-variances), per architecture, mc_train and batch
# size ("full" is one step per epoch). Re-recorded when each step stopped
# drawing a regularization prior and took the exact expectation over it
# instead; any change to the floats of a training step moves them. Bit-exact floats: numpy 2.4 and OpenBLAS on x86-64.
TRAINING_DIGESTS = {
    ("linear", 1, 8):
        "a4c5754e17beb7ef3c33c5d5e255b8d87cdc7b7b1e85a89d0b933d6e9b3cbed8",
    ("linear", 1, "full"):
        "127087ea00ad9f1eaf2ea8ee46e8ad72818955ac09816be68a2675914bf244e8",
    ("linear", 3, 8):
        "0165da183662ba4b17d9686b2c7f3bd12a3f493db58ef95ddc027bc3f359f642",
    ("linear", 3, "full"):
        "82626867fcca571a8152cffbaf052b9afc73fe1c53246c84e6f5d32e2ae3253e",
    ("mlp1", 1, 8):
        "68d95f3fe0a1f3f6057995f10a0b663687d25a82b3d0ae877b32af6198f7a2bc",
    ("mlp1", 1, "full"):
        "0a340924cfc45ddcb73364393eb5206a6a23532ec9dfaa41fe43310188aa9b26",
    ("mlp1", 3, 8):
        "7d58b456951b32a26273399b53cb507a75c14871f6dfe4efeba65b1b65791534",
    ("mlp1", 3, "full"):
        "a5747e685d37c1f74d3bb105a06a33a0c8671099d9dc44706ec8d554b4d8395b",
}


def _training_digest(arch_kind, mc_train, batch):
    batch_size = 128 if batch == "full" else batch
    if arch_kind == "linear":
        tasks = _toy_tasks(4, 12, seed=41)
        fresh = _toy_tasks(3, 12, seed=43)
        cfg = _cfg(batch_size=batch_size, mc_train=mc_train, learning_rate=1e-2, seed=41)
    else:
        tasks = sample_tasks(BLOBS, 4, 16, stream(41, "tasks"))
        fresh = sample_tasks(BLOBS, 3, 16, stream(43, "tasks"))
        cfg = _cfg(arch=MLP, loss=CROSS_ENTROPY, epochs_stage1=3, epochs_stage2=3,
                   batch_size=batch_size, mc_train=mc_train, learning_rate=0.1, seed=41)
    rho, trace = train_meta(tasks, cfg)
    adapted = adapt_many(rho, fresh, cfg, adapt_epochs=3,
                         rngs=[stream(47, "adapt", i) for i in range(len(fresh))])
    parts = [rho.theta0, rho.theta1, np.array(trace.objectives),
             np.array([trace.stage_boundary], dtype=np.int64)]
    for model, _ in adapted:
        parts += [model.posterior.mean, model.posterior.log_var]
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest()


@pytest.mark.parametrize("key", list(TRAINING_DIGESTS), ids=lambda k: f"{k[0]}-mc{k[1]}-b{k[2]}")
def test_training_is_bit_identical_to_its_recorded_digest(key):
    assert _training_digest(*key) == TRAINING_DIGESTS[key], f"ran on {kernel_report()}"


# sha256 of the posteriors (means, then log-variances, task by task) that
# adapt_many gives from a fixed, hand-built meta-posterior, per architecture
# and mc_train. No training runs, so these pin adaptation apart from
# meta-training: a change to the meta-objective alone leaves them in place.
# Bit-exact floats: numpy 2.4 and OpenBLAS on x86-64.
ADAPT_DIGESTS = {
    ("linear", 1):
        "e4069a96d512ac3ee20d85ef82eaf74208452a030c678b03736ebc889423b9bb",
    ("linear", 3):
        "dedd8ce392ec74d03afd7fa458386d0ebba0ce4e4f1e82658a07796ef64df476",
    ("mlp1", 1):
        "4974522ac9cdc40149a18f74c730d55a25bb511773c45ecfb0bdd47ef087c7b0",
    ("mlp1", 3):
        "096466942e578dc8ee5fb92300895e557b81a27609290e3b7f5872fa27211b4a",
}


def _adapt_digest(arch_kind, mc_train):
    if arch_kind == "linear":
        fresh = _toy_tasks(3, 12, seed=43)
        cfg = _cfg(batch_size=8, mc_train=mc_train, learning_rate=1e-2, seed=41)
    else:
        fresh = sample_tasks(BLOBS, 3, 16, stream(43, "tasks"))
        cfg = _cfg(arch=MLP, loss=CROSS_ENTROPY, batch_size=8, mc_train=mc_train,
                   learning_rate=0.1, seed=41)
    d = cfg.arch.param_count
    rng = np.random.default_rng(53)
    theta0, theta1 = (np.concatenate([rng.normal(0.0, 0.5, d), rng.uniform(-3.0, -1.0, d)])
                      for _ in range(2))
    rho = MetaPosterior(theta0, theta1, 0.05)
    adapted = adapt_many(rho, fresh, cfg, adapt_epochs=3,
                         rngs=[stream(47, "adapt", i) for i in range(len(fresh))])
    parts = []
    for model, _ in adapted:
        parts += [model.posterior.mean, model.posterior.log_var]
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest()


@pytest.mark.parametrize("key", list(ADAPT_DIGESTS), ids=lambda k: f"{k[0]}-mc{k[1]}")
def test_adaptation_is_bit_identical_to_its_recorded_digest(key):
    assert _adapt_digest(*key) == ADAPT_DIGESTS[key], f"ran on {kernel_report()}"


class TestAdapt:
    def test_initialization_carrying_the_solution_needs_no_epochs(self):
        task = _toy_tasks(1, 40, seed=31)[0]
        direction = task.latent / np.linalg.norm(task.latent)
        theta0 = np.concatenate([100.0 * direction, np.full(2, -10.0)])
        rho = MetaPosterior(theta0, theta0, 1e-3)
        model, bound = adapt(rho, task, _cfg(), adapt_epochs=0)
        from metabounds.model import mc_empirical_risk

        risk = mc_empirical_risk(model, task.train_x, task.train_y, LOGISTIC, 2000,
                                 np.random.default_rng(0))
        assert risk <= 0.05
        assert bound >= risk - 0.02

    def test_bound_exceeds_recomputed_empirical_risk(self):
        task = _toy_tasks(1, 24, seed=37)[0]
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        model, bound = adapt(rho, task, _cfg(), adapt_epochs=5, mc_eval=500)
        from metabounds.model import mc_empirical_risk

        risk = mc_empirical_risk(model, task.train_x, task.train_y, LOGISTIC, 2000,
                                 np.random.default_rng(1))
        assert bound > risk

    def test_deterministic_given_seed(self):
        task = _toy_tasks(1, 16, seed=41)[0]
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        model_a, bound_a = adapt(rho, task, _cfg(), adapt_epochs=3, mc_eval=50)
        model_b, bound_b = adapt(rho, task, _cfg(), adapt_epochs=3, mc_eval=50)
        assert np.array_equal(model_a.posterior.mean, model_b.posterior.mean)
        assert bound_a == bound_b

    def test_objective_equals_adaptation_bound(self):
        """With the weight noise replayed, the taped single-task certificate
        is adaptation_bound, slack constant included."""
        task = _toy_tasks(1, 7, seed=101)[0]
        cfg = _cfg(mc_train=3)
        post = DiagonalGaussian(np.array([0.3, -0.2]), np.array([-1.0, -2.0]))
        prior = DiagonalGaussian(np.array([0.1, 0.4]), np.array([-1.5, -0.5]))
        value = adaptation_objective(StochasticModel(LINEAR, post), prior, task, cfg,
                                     rng=np.random.default_rng(5))
        eps = np.random.default_rng(5).standard_normal((3, 2))
        risk = np.mean([
            loss_values(LOGISTIC, LINEAR, task.train_x @ (post.mean + post.std * e),
                        task.train_y).mean()
            for e in eps
        ])
        expected = adaptation_bound(risk, kl_diag_gaussian(post, prior), task.m, cfg.delta)
        assert abs(float(value.value) - expected) <= 1e-12

    def test_gradcheck_adaptation_objective(self):
        task = _toy_tasks(1, 6, seed=43)[0]
        cfg = _cfg(mc_train=1)
        prior = DiagonalGaussian(np.array([0.2, -0.1]), np.array([-2.0, -1.5]))

        def build(ps):
            model = StochasticModel(LINEAR, DiagonalGaussian(ps[0][0, :2], ps[0][0, 2:]))
            leaves = {}
            value = adaptation_objective(
                model, prior, task, cfg, rng=np.random.default_rng(55), leaves_out=leaves
            )
            return value, [leaves["q"]]

        for trial in range(3):
            trial_rng = np.random.default_rng(60 + trial)
            row = np.concatenate([trial_rng.normal(0, 0.5, 2), trial_rng.uniform(-3, -1, 2)])
            assert gradcheck(build, [row[None]]) <= 1e-4


def _adapt_setup(arch):
    """A meta-posterior off the origin and 20 fresh tasks of equal size."""
    d = arch.param_count
    rng = np.random.default_rng(71)
    theta0 = np.concatenate([rng.normal(0.0, 0.5, d), rng.uniform(-4.0, -2.0, d)])
    theta1 = np.concatenate([rng.normal(0.0, 0.5, d), rng.uniform(-4.0, -2.0, d)])
    rho = MetaPosterior(theta0, theta1, 1e-2)
    if arch.kind == "linear":
        tasks = sample_tasks(LinearEnvSpec(d=2), 20, 11, stream(73, "tasks"))
        return rho, tasks, _cfg(batch_size=4, mc_train=2, learning_rate=1e-2)
    tasks = sample_tasks(BLOBS, 20, 11, stream(73, "tasks"))
    return rho, tasks, _cfg(arch=arch, loss=CROSS_ENTROPY, batch_size=4, mc_train=2,
                            learning_rate=0.1)


class TestAdaptMany:
    @pytest.mark.parametrize("arch", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_equals_adapting_each_task_alone(self, arch):
        rho, tasks, cfg = _adapt_setup(arch)
        rngs = [stream(79, "adapt", i) for i in range(len(tasks))]
        together = adapt_many(rho, tasks, cfg, adapt_epochs=4, rngs=rngs)
        assert len(together) == len(tasks)
        for i, (task, rng, (model, prior)) in enumerate(zip(tasks, rngs, together)):
            _, bound = adaptation_certificate(model, prior, task, cfg, mc_eval=60, rng=rng)
            alone, alone_bound = adapt(rho, task, cfg, adapt_epochs=4, mc_eval=60,
                                       rng=stream(79, "adapt", i))
            np.testing.assert_allclose(model.posterior.mean, alone.posterior.mean,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(model.posterior.log_var, alone.posterior.log_var,
                                       rtol=0, atol=1e-10)
            assert abs(bound - alone_bound) <= 1e-10

    def test_first_step_optimizes_the_adaptation_objective(self, monkeypatch):
        """The value adapt differentiates first is adaptation_objective at the
        initialization, with the same prior and the same weight noise."""
        task = _toy_tasks(1, 9, seed=83)[0]
        cfg = _cfg(mc_train=3)
        rng = np.random.default_rng(89)
        theta0 = np.concatenate([rng.normal(0.0, 0.5, 2), rng.uniform(-3.0, -1.0, 2)])
        theta1 = np.concatenate([rng.normal(0.0, 0.5, 2), rng.uniform(-3.0, -1.0, 2)])
        rho = MetaPosterior(theta0, theta1, 0.05)

        seen = []
        real_backward = diff.backward

        def recording_backward(out):
            seen.append(float(out.value))
            real_backward(out)

        monkeypatch.setattr(diff, "backward", recording_backward)
        adapt(rho, task, cfg, adapt_epochs=1, rng=np.random.default_rng(97), mc_eval=5)
        monkeypatch.undo()

        replay = np.random.default_rng(97)
        init = theta0 + 0.05 * replay.standard_normal(4)
        drawn = theta1 + 0.05 * replay.standard_normal(4)
        replay.permutation(task.m)
        model = StochasticModel(LINEAR, DiagonalGaussian(init[:2], init[2:]))
        prior = DiagonalGaussian(drawn[:2], drawn[2:])
        value = adaptation_objective(model, prior, task, cfg, rng=replay)
        assert len(seen) == 1
        assert abs(seen[0] - float(value.value)) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_task_and_keeps_its_epochs(self):
        tasks = _toy_tasks(3, 8, seed=0)
        cfg = _cfg(learning_rate=1e6, seed=1)
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        rngs = [stream(1, "diverge", i) for i in range(3)]
        with pytest.raises(TrainingDiverged) as excinfo:
            adapt_many(rho, tasks, cfg, adapt_epochs=20, rngs=rngs)
        failed = excinfo.value
        assert failed.task in (0, 1, 2)
        assert f"task {failed.task}" in str(failed)
        assert len(failed.trace.objectives) >= 1
        assert all(math.isfinite(v) for v in failed.trace.objectives)

        k = failed.task
        with pytest.raises(TrainingDiverged) as alone:
            adapt(rho, tasks[k], cfg, adapt_epochs=20, rng=stream(1, "diverge", k))
        assert alone.value.task == 0
        np.testing.assert_allclose(alone.value.trace.objectives, failed.trace.objectives,
                                   rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_survives_pickling(self):
        # worker processes send it back to the parent by pickle
        tasks = _toy_tasks(3, 8, seed=0)
        cfg = _cfg(learning_rate=1e6, seed=1)
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        rngs = [stream(1, "diverge", i) for i in range(3)]
        with pytest.raises(TrainingDiverged) as excinfo:
            adapt_many(rho, tasks, cfg, adapt_epochs=20, rngs=rngs)
        back = pickle.loads(pickle.dumps(excinfo.value))
        assert type(back) is TrainingDiverged
        assert str(back) == str(excinfo.value)
        assert back.task == excinfo.value.task
        assert back.trace.objectives == excinfo.value.trace.objectives

    def test_rejects_mixed_sample_counts(self):
        tasks = _toy_tasks(1, 6) + _toy_tasks(1, 7)
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        with pytest.raises(ValueError, match="share a sample count"):
            adapt_many(rho, tasks, _cfg(), adapt_epochs=1,
                       rngs=[np.random.default_rng(0), np.random.default_rng(1)])

    def test_returns_the_prior_each_task_drew(self):
        rho, tasks, cfg = _adapt_setup(LINEAR)
        rngs = [stream(5, "adapt", i) for i in range(3)]
        adapted = adapt_many(rho, tasks[:3], cfg, adapt_epochs=0, rngs=rngs)
        for i, (model, prior) in enumerate(adapted):
            replay = stream(5, "adapt", i)
            init = rho.theta0 + rho.kappa_rho * replay.standard_normal(4)
            drawn = rho.theta1 + rho.kappa_rho * replay.standard_normal(4)
            np.testing.assert_array_equal(model.posterior.mean, init[:2])
            np.testing.assert_array_equal(prior.mean, drawn[:2])
            np.testing.assert_array_equal(prior.log_var, drawn[2:])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_draws_are_a_divergence(self):
        rho = MetaPosterior(np.full(4, 1.79e308), np.zeros(4), 1e307)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            adapt_many(rho, _toy_tasks(2, 6), _cfg(), adapt_epochs=1,
                       rngs=[stream(2, "adapt", i) for i in range(2)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_prior_stops_the_run_before_its_first_step(self, monkeypatch):
        """The divergence node takes the prior rows unchecked on every step,
        so adapt_many checks them once, before the first backward pass."""
        passes = []
        real_backward = diff.backward

        def counting_backward(out):
            passes.append(out.idx)
            real_backward(out)

        monkeypatch.setattr(diff, "backward", counting_backward)
        # the initializations stay finite; the priors near the largest float
        # overflow
        rho = MetaPosterior(np.zeros(4), np.full(4, 1.79e308), 1e307)
        with pytest.raises(TrainingDiverged, match="sampled initialization or prior"):
            adapt_many(rho, _toy_tasks(2, 6), _cfg(), adapt_epochs=1,
                       rngs=[stream(2, "adapt", i) for i in range(2)])
        assert passes == []

    def test_rejects_generator_count_mismatch(self):
        tasks = _toy_tasks(2, 6)
        rho = MetaPosterior(np.zeros(4), np.zeros(4), 1e-3)
        with pytest.raises(ValueError, match="one generator per task"):
            adapt_many(rho, tasks, _cfg(), adapt_epochs=1, rngs=[np.random.default_rng(0)])


class TestAdaptationCertificate:
    def test_prices_the_risk_and_divergence(self):
        task = _toy_tasks(1, 12, seed=3)[0]
        model = StochasticModel(LINEAR, DiagonalGaussian(np.array([0.5, -1.0]),
                                                         np.full(2, -4.0)))
        prior = DiagonalGaussian(np.zeros(2), np.full(2, -2.0))
        empirical, bound = adaptation_certificate(model, prior, task, _cfg(), mc_eval=40,
                                                  rng=np.random.default_rng(11))
        from metabounds.model import mc_empirical_risk

        risk = mc_empirical_risk(model, task.train_x, task.train_y, LOGISTIC, 40,
                                 np.random.default_rng(11))
        expected = adaptation_bound(risk, kl_diag_gaussian(model.posterior, prior), 12, 0.1)
        assert (empirical, bound) == (risk, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_divergence_is_a_numeric_failure(self):
        task = _toy_tasks(1, 12, seed=3)[0]
        model = StochasticModel(LINEAR, DiagonalGaussian(np.full(2, 1e300), np.zeros(2)))
        prior = DiagonalGaussian(np.zeros(2), np.zeros(2))
        with pytest.raises(TrainingDiverged, match="non-finite certificate"):
            adaptation_certificate(model, prior, task, _cfg(), mc_eval=5,
                                   rng=np.random.default_rng(0))


class TestIndependentBaseline:
    def test_delegates_to_adaptation_at_the_zero_point(self):
        task = _toy_tasks(1, 16, seed=47)[0]
        cfg = _cfg()
        [baseline] = independent_baseline([task], cfg, adapt_epochs=3,
                                          rngs=[stream(cfg.seed, "independent")])
        zero = MetaPosterior(np.zeros(4), np.zeros(4), cfg.kappa_rho)
        same, _ = adapt(zero, task, cfg, adapt_epochs=3,
                        rng=stream(cfg.seed, "independent"))
        assert np.array_equal(baseline.posterior.mean, same.posterior.mean)
        assert np.array_equal(baseline.posterior.log_var, same.posterior.log_var)

    def test_deterministic_given_seed(self):
        task = _toy_tasks(1, 16, seed=53)[0]
        [a] = independent_baseline([task], _cfg(), adapt_epochs=2,
                                   rngs=[np.random.default_rng(3)])
        [b] = independent_baseline([task], _cfg(), adapt_epochs=2,
                                   rngs=[np.random.default_rng(3)])
        assert np.array_equal(a.posterior.mean, b.posterior.mean)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        rho = MetaPosterior(
            rng.normal(size=6) * np.pi, rng.normal(size=6) / 3.0, 1e-3
        )
        path = tmp_path / "posterior.txt"
        save_meta_posterior(rho, path)
        back = load_meta_posterior(path)
        assert np.array_equal(back.theta0, rho.theta0)
        assert np.array_equal(back.theta1, rho.theta1)
        assert back.kappa_rho == rho.kappa_rho

    def test_a_failed_write_keeps_the_old_artifact(self, tmp_path, monkeypatch):
        """The artifact is replaced by one rename: when it fails, the old
        file stays whole and no temporary file is left behind."""
        path = tmp_path / "posterior.txt"
        save_meta_posterior(MetaPosterior(np.zeros(4), np.ones(4), 1e-3), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space"):
            save_meta_posterior(MetaPosterior(np.ones(4), np.zeros(4), 0.5), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["posterior.txt"]

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "posterior.txt"
        path.write_text("something 1 4 0.001\n0 0 0 0\n0 0 0 0\n")
        with pytest.raises(ValueError, match="header"):
            load_meta_posterior(path)

    def test_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / "posterior.txt"
        path.write_text("metaposterior 9 4 0.001\n0 0 0 0\n0 0 0 0\n")
        with pytest.raises(ValueError, match="version"):
            load_meta_posterior(path)

    def test_rejects_dimension_mismatch(self, tmp_path):
        path = tmp_path / "posterior.txt"
        path.write_text("metaposterior 1 4 0.001\n0 0 0\n0 0 0 0\n")
        with pytest.raises(ValueError, match="dimension"):
            load_meta_posterior(path)


class TestTrainConfig:
    def test_rejects_nondifferentiable_loss(self):
        with pytest.raises(ValueError, match="differentiable"):
            _cfg(loss=LossSpec("zero_one"))

    @pytest.mark.parametrize("arch, loss", [(MLP, LOGISTIC), (LINEAR, CROSS_ENTROPY)])
    def test_rejects_a_loss_its_architecture_does_not_take(self, arch, loss):
        with pytest.raises(ValueError, match=f"the {arch.kind} architecture takes"):
            _cfg(arch=arch, loss=loss)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            _cfg(delta=1.5)

    @pytest.mark.parametrize("kappas", [dict(kappa_pi=1e-300), dict(kappa_pi=1e300),
                                        dict(kappa_rho=1e300), dict(kappa_rho=0.0),
                                        dict(kappa_pi=-1.0), dict(kappa_rho=-1.0)])
    def test_rejects_kappas_whose_square_leaves_the_floats(self, kappas):
        with pytest.raises(ValueError, match="square"):
            _cfg(**kappas)
