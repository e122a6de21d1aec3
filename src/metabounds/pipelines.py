"""Evaluation pipelines shared by the sweep, audit, and CLI layers.

Two ways of producing a certified multi-task system are supported.  The
closed-form pipeline fits each task with a fixed deterministic rule and
places a conjugate Gaussian hyper-posterior over the prior mean, so every
bound ingredient has an exact expression and sweeps are cheap: a group of
task counts is priced on the stacked arrays of one task pool, with no
per-task objects, and the divergences of all its counts in two calls.  The
trained pipeline runs the two-prior learner and prices its output with a
Monte-Carlo empirical risk and exact expected divergences.  One function
turns the ingredients of either into both theorem bounds, so both produce
the same row shape and the CLI can mix them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bounds import MetaBoundInput, theorem1_bound, theorem2_bound
from .env import (LinearEnvSpec, Task, draw_linear, sample_linear_tasks, sample_tasks,
                  true_risks_mc)
from .env import true_risk_mc  # noqa: F401 - bench/tracer.py wraps it on this module
from .gauss import (
    expected_kl_arrays,
    expected_kl_fixed_spread_arrays,
    expected_kl_under_gaussian_mean,  # noqa: F401 - bench/tracer.py wraps it on this module
    kl_diag_arrays,
    kl_diag_gaussian,  # noqa: F401 - bench/tracer.py wraps it on this module
    normal_cdf,
)
from .metalearn import (
    MetaPosterior,
    TrainConfig,
    TrainingDiverged,
    TrainingTrace,
    adapt,  # noqa: F401 - bench/tracer.py wraps it on this module
    adapt_many,
    meta_kl,
    train_meta,
)
from .model import StochasticModel, mc_empirical_risk
from .rng import stream

# Fixed settings of the closed-form pipeline: radius the fitted direction is
# rescaled to, per-weight standard deviation shared by priors and posteriors,
# and the spread of the zero-centered hyper-prior over prior means.
RULE_RADIUS = 30.0
PRIOR_STD = 10.0
HYPER_PRIOR_STD = 20.0

# Weight draws per training task behind the trained pipeline's empirical risk.
RISK_DRAWS = 2000

# Most held-out points :func:`rule_test_loss` scores in one stacked call.
SCORE_POINT_BUDGET = 2**16


@dataclass(frozen=True)
class PipelinePoint:
    """One evaluated sweep coordinate, ready to become a result row.

    ``meta_train_loss`` means different things in the two pipelines: the
    trained one writes the last epoch's mean training objective, the
    certificate it minimized (the empirical risk if no epoch ran); the
    closed form writes the empirical risk.
    """

    n: int
    m: int
    d: int
    seed: int
    empirical_multitask_risk: float
    bound_thm1: float
    bound_thm2: float
    meta_test_loss: float
    meta_train_loss: float
    task_level_term: float
    multitask_term: float
    kl_rho_pi: float
    mean_task_kl: float


@dataclass(frozen=True)
class BoundBreakdown:
    """Certified bound values for one system plus their components."""

    empirical_multitask_risk: float
    kl_rho_pi: float
    bound_thm1: float
    bound_thm2: float
    task_level_term: float
    multitask_term: float
    mean_task_kl: float


def _certificate(er: float, kl_rho_pi: float, kl_hyper: float, task_kls: np.ndarray,
                 n: int, m: int, delta: float) -> BoundBreakdown:
    """Both theorem bounds and their terms for one algorithm pair: the
    hyper-level divergence ``kl_hyper`` and the per-task expected
    divergences ``task_kls`` (n,).  Raises TrainingDiverged when an
    ingredient or a term is not finite."""
    try:
        # fsum raises OverflowError where finite divergences sum past the floats
        inp = MetaBoundInput(er, kl_rho_pi, ((kl_hyper, math.fsum(task_kls.tolist())),),
                             n, m, delta)
    except (ValueError, OverflowError) as exc:
        raise TrainingDiverged(f"non-finite certificate: {exc}", TrainingTrace()) from None
    return BoundBreakdown(
        empirical_multitask_risk=er,
        kl_rho_pi=kl_rho_pi,
        bound_thm1=theorem1_bound(inp),
        bound_thm2=theorem2_bound(inp),
        task_level_term=inp.task_term,
        multitask_term=inp.multitask_roots[0],
        mean_task_kl=float(np.mean(task_kls)),
    )


def signed_mean_direction(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit vector pointing toward the halfspace labeled 1, per task.

    Inputs ``x`` (..., B, d) and labels ``y`` (..., B) give directions
    (..., d).  Averages the inputs with label-dependent sign.  Labels follow
    the convention y = 1 when the latent weight scores the point
    nonpositive, so the signed mean recovers the latent direction in
    expectation.  A task whose signed mean vanishes gets the first axis.
    """
    v = -np.mean((2.0 * y[..., None] - 1.0) * x, axis=-2)
    # a sum of squares, not a BLAS dot product (see gaussian_sign_risk)
    norm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    degenerate = norm < 1e-12
    first_axis = np.eye(1, v.shape[-1])[0]
    return np.where(degenerate, first_axis, v / np.where(degenerate, 1.0, norm))


def rule_weight(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The fixed rule's weight estimate per task: direction times radius.
    Shapes as in :func:`signed_mean_direction`."""
    return RULE_RADIUS * signed_mean_direction(x, y)


def _column_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j], accumulated column after column: numpy
    reduces a short last axis with one inner loop per row."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def gaussian_sign_risk(w_mean: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact expected 0-1 risk of sign prediction under isotropic weight noise.

    Weight means ``w_mean`` (..., d), inputs ``x`` (..., B, d) and labels
    ``y`` (..., B) give one risk per task, shape (...).  With weights drawn
    from N(w_mean, PRIOR_STD^2 I) the score on a point is Gaussian, so the
    misclassification probability is a normal tail whose argument is the
    scaled margin.
    """
    # norms and scores are column sums over d rather than BLAS calls, which
    # pick their kernel, and so their rounding, per CPU; for d < 8 they equal
    # a per-row np.add.reduce bit for bit
    norms = np.sqrt(_column_sum(x, x))
    norms = np.where(norms < 1e-12, 1e-12, norms)
    z = _column_sum(x, w_mean[..., None, :]) / (PRIOR_STD * norms)
    return np.mean(normal_cdf(z * (2.0 * y - 1.0)), axis=-1)


def rule_test_loss(spec: LinearEnvSpec, m: int, seed: int, *, eval_tasks: int = 20,
                   eval_points: int = 400) -> float:
    """Oracle test loss of the fixed rule in ``spec``: its mean sign risk on
    ``eval_points`` fresh points of each of ``eval_tasks`` fresh tasks of
    ``m`` training points.

    It depends on the seed, d and m only, not on any training task, so a
    sweep computes it once per (seed, d, m) and hands it to
    :func:`prior_mean_point`.  Tasks are scored in stacked batches of as
    many as fit in ``SCORE_POINT_BUDGET`` points, one task per batch if its
    points alone exceed it, so at most max(``SCORE_POINT_BUDGET``,
    ``eval_points``) held-out points are held at once; each task's risk is
    the one a call on that task alone gives. A batch draws its points in one
    call, the floats that drawing them task after task gives.
    """
    test_rng = stream(seed, "rule-test")
    latents, x, y = sample_linear_tasks(spec, eval_tasks, m, test_rng)
    per_call = max(1, SCORE_POINT_BUDGET // eval_points)
    test_risks = []
    for start in range(0, eval_tasks, per_call):
        batch = slice(start, start + per_call)
        held_x, held_y = draw_linear(latents[batch], eval_points, test_rng)
        test_risks.append(gaussian_sign_risk(rule_weight(x[batch], y[batch]), held_x, held_y))
    return float(np.mean(np.concatenate(test_risks)))


def prior_mean_point(x: np.ndarray, y: np.ndarray, ns: Sequence[int], seed: int,
                     delta: float, *, meta_test_loss: float) -> list[PipelinePoint]:
    """Evaluate the closed-form pipeline on the first n tasks of a pool, for
    each n in ``ns``; one point per n, in ``ns`` order.

    The pool is stacked: inputs ``x`` (tasks, m, d) and labels ``y``
    (tasks, m), as :func:`sample_linear_tasks` draws them.  The rule is a
    point mass, so the algorithm-level divergence vanishes and both theorem
    bounds coincide.  The hyper-posterior over the prior mean is the
    conjugate Gaussian posterior given the fitted weights, treating each as
    a noisy observation of a common center at the prior spread.  A task's
    fitted weight and sign risk do not depend on n, so the rule is fitted
    and priced once, along a task axis, on the first max(``ns``) tasks, and
    each n reads the prefixes of those arrays.  The divergences of all n
    are taken in two calls: the hyper-level ones on a row per n, the task
    ones on the n rows of every n, concatenated.  ``meta_test_loss`` is the
    rule's held-out loss, :func:`rule_test_loss` of the pool's environment,
    sample count and seed.
    """
    if not len(x):
        raise ValueError("at least one training task is required")
    if not ns:
        raise ValueError("at least one task count is required")
    if any(not 1 <= n <= len(x) for n in ns):
        raise ValueError(f"task counts must lie in [1, {len(x)}], got {list(ns)}")
    top = max(ns)
    m, d = x.shape[1:]
    weights = rule_weight(x[:top], y[:top])
    risks = gaussian_sign_risk(weights, x[:top], y[:top])

    prior_var = PRIOR_STD**2
    # one hyper-posterior N(center, s2 I) per n, a row each
    hyper_vars = [1.0 / (1.0 / HYPER_PRIOR_STD**2 + n / prior_var) for n in ns]
    centers = np.stack([s2 * np.sum(weights[:n], axis=0) / prior_var
                        for n, s2 in zip(ns, hyper_vars)])
    hyper_log_vars = np.repeat([[math.log(s2)] for s2 in hyper_vars], d, axis=1)
    kl_hypers = kl_diag_arrays(centers, hyper_log_vars, np.zeros(d),
                               np.full(d, np.log(HYPER_PRIOR_STD**2)))
    # the first n tasks of every n, each against the hyper-posterior of its n
    owner = np.repeat(np.arange(len(ns)), ns)
    task_kls = expected_kl_arrays(
        weights[np.concatenate([np.arange(n) for n in ns])],
        np.full(d, math.log(prior_var)), centers[owner], hyper_log_vars[owner], prior_var)
    points = []
    end = 0
    for n, kl_hyper in zip(ns, kl_hypers.tolist()):
        er = float(np.mean(risks[:n]))
        breakdown = _certificate(er, 0.0, kl_hyper, task_kls[end:end + n], n, m, delta)
        end += n
        points.append(PipelinePoint(n=n, m=m, d=d, seed=seed, meta_test_loss=meta_test_loss,
                                    meta_train_loss=er, **vars(breakdown)))
    return points


@dataclass(frozen=True)
class TrainedSystem:
    """Output of the two-prior learner: the posteriors its adaptation rule
    gives each training task, which the certificate prices, and each
    held-out task it was handed, which the oracle scores."""

    rho: MetaPosterior
    task_models: list[StochasticModel]
    trace_objectives: tuple[float, ...]
    held_out_models: list[StochasticModel] = field(default_factory=list)


def fit_two_prior_system(tasks: list[Task], cfg: TrainConfig, *,
                         held_out: Sequence[Task] = (),
                         held_out_rngs: Sequence[np.random.Generator] = ()) -> TrainedSystem:
    """Train the meta-posterior, then run its adaptation rule for the
    stage-2 epoch count, the effort a fresh task receives, on each training
    task and each held-out task.

    Training task i draws from the ``task-posterior`` stream i of
    ``cfg.seed``, held-out task j from ``held_out_rngs[j]``; all rows are
    adapted in one stacked pass, training rows first, each exactly as it
    would be alone.  The held-out tasks must share the training tasks'
    sample count.  A divergence names the row that failed first in that
    pass: training task i as task i, held-out task j as held-out task j.
    """
    if len(held_out_rngs) != len(held_out):
        raise ValueError("need exactly one generator per held-out task")
    n = len(tasks)
    rho, trace = train_meta(tasks, cfg)
    rngs = [stream(cfg.seed, "task-posterior", i) for i in range(n)] + list(held_out_rngs)
    try:
        adapted = adapt_many(rho, [*tasks, *held_out], cfg, adapt_epochs=cfg.epochs_stage2,
                             rngs=rngs)
    except TrainingDiverged as exc:
        if exc.task is None or exc.task < n:
            raise
        raise TrainingDiverged(exc.message, exc.trace, task=exc.task - n,
                               held_out=True) from None
    models = [model for model, _ in adapted]
    return TrainedSystem(rho, models[:n], tuple(trace.objectives), models[n:])


def trained_bound_breakdown(system: TrainedSystem, tasks: list[Task],
                            cfg: TrainConfig) -> BoundBreakdown:
    """Price a trained system with both theorem bounds.

    The empirical multitask risk is a Monte-Carlo estimate from
    ``RISK_DRAWS`` weight draws per task on its training data.  The
    expected summed task divergence over priors drawn from the learned
    hyper-posterior N(theta1, kappa_rho^2 I) is exact, in the closed form
    that training's meta-objective also takes, so the theorem-2
    evaluator sees one algorithm pair and takes the square root of the
    expectation, which bounds the expected square root from above.
    Raises TrainingDiverged when the trained system is finite but its risk,
    a divergence or a term of the certificate is not.
    """
    d = system.rho.weight_dim
    risk_rng = stream(cfg.seed, "bound-risk")
    risks = [
        mc_empirical_risk(mdl, t.train_x, t.train_y, cfg.loss, RISK_DRAWS, risk_rng)
        for mdl, t in zip(system.task_models, tasks)
    ]
    er = float(np.mean(risks))
    kl_rho_pi = meta_kl(system.rho, cfg.kappa_pi)
    theta1 = system.rho.theta1
    q = np.stack([mdl.q for mdl in system.task_models])
    task_kls = expected_kl_fixed_spread_arrays(q[:, :d], q[:, d:], theta1[:d], theta1[d:],
                                               system.rho.kappa_rho**2)
    return _certificate(er, kl_rho_pi, 0.0, task_kls, len(tasks), tasks[0].m, cfg.delta)


def two_prior_point(spec: LinearEnvSpec, tasks: list[Task], seed: int, cfg: TrainConfig, *,
                    eval_tasks: int = 20, eval_points: int = 400) -> PipelinePoint:
    """Evaluate the trained pipeline on a fixed set of training tasks.

    Fresh tasks from the same environment measure the oracle test loss: each
    is adapted with the trained rule, in the pass that adapts the training
    tasks, and its resulting model scored on newly drawn points, its loss
    averaged over the weights without draws (see :func:`true_risks_mc`).
    """
    test_rng = stream(seed, "trained-test")
    fresh = sample_tasks(spec, eval_tasks, tasks[0].m, test_rng)
    system = fit_two_prior_system(
        tasks, cfg, held_out=fresh,
        held_out_rngs=[stream(seed, "trained-test-adapt", i) for i in range(len(fresh))])
    breakdown = trained_bound_breakdown(system, tasks, cfg)
    # the models are linear, which the oracle scores without weight draws
    test_risks = [risk for risk, _ in true_risks_mc(fresh, system.held_out_models, cfg.loss,
                                                    eval_points, [test_rng] * len(fresh),
                                                    mc_samples=1)]
    trace = system.trace_objectives
    train_loss = trace[-1] if trace else breakdown.empirical_multitask_risk
    return PipelinePoint(n=len(tasks), m=tasks[0].m, d=spec.d, seed=seed,
                         meta_test_loss=float(np.mean(test_risks)),
                         meta_train_loss=train_loss, **vars(breakdown))
