"""Evaluation pipelines shared by the sweep, audit, and CLI layers.

Two ways of producing a certified multi-task system are supported.  The
closed-form pipeline fits each task with a fixed deterministic rule and
places a conjugate Gaussian hyper-posterior over the prior mean, so every
bound ingredient has an exact expression and sweeps are cheap.  The trained
pipeline runs the two-prior learner and prices its output with a Monte-Carlo
empirical risk and exact expected divergences.  One function turns the
ingredients of either into both theorem bounds, so both produce the same
row shape and the CLI can mix them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    MetaBoundInput,
    multitask_sqrt_term,
    task_level_term,
    theorem1_bound,
    theorem2_bound,
)
from .env import LinearEnvSpec, Task, sample_tasks, true_risks_mc
from .env import true_risk_mc  # noqa: F401 - bench/tracer.py wraps it on this module
from .gauss import (
    DiagonalGaussian,
    expected_kl_arrays,
    expected_kl_fixed_spread_arrays,
    expected_kl_under_gaussian_mean,  # noqa: F401 - bench/tracer.py wraps it on this module
    isotropic,
    kl_diag_gaussian,
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

__all__ = [
    "RULE_RADIUS",
    "PRIOR_STD",
    "HYPER_PRIOR_STD",
    "RISK_DRAWS",
    "PipelinePoint",
    "signed_mean_direction",
    "rule_weight",
    "gaussian_sign_risk",
    "rule_test_loss",
    "prior_mean_point",
    "TrainedSystem",
    "BoundBreakdown",
    "fit_two_prior_system",
    "trained_bound_breakdown",
    "two_prior_point",
]

# Fixed settings of the closed-form pipeline: radius the fitted direction is
# rescaled to, per-weight standard deviation shared by priors and posteriors,
# and the spread of the zero-centered hyper-prior over prior means.
RULE_RADIUS = 30.0
PRIOR_STD = 10.0
HYPER_PRIOR_STD = 20.0

# Weight draws per training task behind the trained pipeline's empirical risk.
RISK_DRAWS = 2000


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
    divergences ``task_kls`` (n,)."""
    sum_task_kl = math.fsum(task_kls.tolist())
    inp = MetaBoundInput(
        empirical_multitask_risk=er,
        kl_rho_pi=kl_rho_pi,
        per_algorithm_complexity=((kl_hyper, sum_task_kl),),
        n=n,
        m=m,
        delta=delta,
    )
    return BoundBreakdown(
        empirical_multitask_risk=er,
        kl_rho_pi=kl_rho_pi,
        bound_thm1=theorem1_bound(inp),
        bound_thm2=theorem2_bound(inp),
        task_level_term=task_level_term(kl_rho_pi, n, delta),
        multitask_term=multitask_sqrt_term(kl_hyper + sum_task_kl, n, m, delta),
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


def gaussian_sign_risk(w_mean: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact expected 0-1 risk of sign prediction under isotropic weight noise.

    Weight means ``w_mean`` (..., d), inputs ``x`` (..., B, d) and labels
    ``y`` (..., B) give one risk per task, shape (...).  With weights drawn
    from N(w_mean, PRIOR_STD^2 I) the score on a point is Gaussian, so the
    misclassification probability is a normal tail whose argument is the
    scaled margin.
    """
    # norms and scores multiply and sum rather than call BLAS, which picks
    # its kernel, and so its rounding, per CPU
    norms = np.linalg.norm(x, axis=-1)
    norms = np.where(norms < 1e-12, 1e-12, norms)
    z = np.add.reduce(x * w_mean[..., None, :], axis=-1) / (PRIOR_STD * norms)
    signed = z * (2.0 * y - 1.0)
    # numpy has no erf, and math.erf is fastest on Python floats
    erfs = np.fromiter(map(math.erf, (signed / math.sqrt(2.0)).ravel().tolist()),
                       dtype=np.float64, count=signed.size)
    return np.mean(0.5 * (1.0 + erfs.reshape(signed.shape)), axis=-1)


def rule_test_loss(spec: LinearEnvSpec, m: int, seed: int, *, eval_tasks: int = 20,
                   eval_points: int = 400) -> float:
    """Oracle test loss of the fixed rule in ``spec``: its mean sign risk on
    ``eval_points`` fresh points of each of ``eval_tasks`` fresh tasks of
    ``m`` training points.

    It depends on the seed, d and m only, not on any training task, so a
    sweep computes it once per (seed, d, m) and hands it to
    :func:`prior_mean_point` for every task count.  Tasks are scored one at
    a time, so only one task's points are held at once.
    """
    test_rng = stream(seed, "rule-test")
    fresh = sample_tasks(spec, eval_tasks, m, test_rng)
    test_risks = []
    for task in fresh:
        xe, ye = task.draw(eval_points, test_rng)
        test_risks.append(gaussian_sign_risk(rule_weight(task.train_x, task.train_y), xe, ye))
    return float(np.mean(test_risks))


def prior_mean_point(spec: LinearEnvSpec, tasks: list[Task], seed: int,
                     delta: float, *, eval_tasks: int = 20,
                     eval_points: int = 400,
                     meta_test_loss: float | None = None) -> PipelinePoint:
    """Evaluate the closed-form pipeline on a fixed set of training tasks,
    which share one sample count.

    The rule is a point mass, so the algorithm-level divergence vanishes and
    both theorem bounds coincide.  The hyper-posterior over the prior mean is
    the conjugate Gaussian posterior given the fitted weights, treating each
    as a noisy observation of a common center at the prior spread.  All
    tasks are priced together along a task axis.  ``meta_test_loss``, when
    given, is :func:`rule_test_loss` of the same spec, m, seed and eval
    sizes, and replaces computing it here.
    """
    if not tasks:
        raise ValueError("at least one training task is required")
    n = len(tasks)
    m = tasks[0].m
    d = spec.d
    x = np.stack([t.train_x for t in tasks])
    y = np.stack([t.train_y for t in tasks])
    weights = rule_weight(x, y)
    er = float(np.mean(gaussian_sign_risk(weights, x, y)))

    prior_var = PRIOR_STD**2
    s2 = 1.0 / (1.0 / HYPER_PRIOR_STD**2 + n / prior_var)
    center = s2 * np.sum(weights, axis=0) / prior_var
    hyper = DiagonalGaussian(center, np.full(d, math.log(s2)))
    kl_hyper = kl_diag_gaussian(hyper, isotropic(np.zeros(d), HYPER_PRIOR_STD**2))
    task_kls = expected_kl_arrays(weights, np.full(d, math.log(prior_var)), hyper, prior_var)
    if meta_test_loss is None:
        meta_test_loss = rule_test_loss(spec, m, seed, eval_tasks=eval_tasks,
                                        eval_points=eval_points)
    breakdown = _certificate(er, 0.0, kl_hyper, task_kls, n, m, delta)
    return PipelinePoint(n=n, m=m, d=d, seed=seed, meta_test_loss=meta_test_loss,
                         meta_train_loss=er, **vars(breakdown))


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
    sample count.  A divergence names the task a separate pass would: a
    training task first, or else held-out task j as j.
    """
    if len(held_out_rngs) != len(held_out):
        raise ValueError("need exactly one generator per held-out task")
    n = len(tasks)
    rho, trace = train_meta(tasks, cfg)

    def training_rngs():
        return [stream(cfg.seed, "task-posterior", i) for i in range(n)]

    try:
        adapted = adapt_many(rho, [*tasks, *held_out], cfg, adapt_epochs=cfg.epochs_stage2,
                             rngs=training_rngs() + list(held_out_rngs))
    except TrainingDiverged as exc:
        if exc.task is None or exc.task < n:
            raise
        # a held-out row failed first; the training rows alone may still fail later
        adapt_many(rho, tasks, cfg, adapt_epochs=cfg.epochs_stage2, rngs=training_rngs())
        raise TrainingDiverged(exc.message, exc.trace, task=exc.task - n) from None
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
    Raises TrainingDiverged when the trained system is finite but its risk
    or a divergence is not.
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
    task_kls = expected_kl_fixed_spread_arrays(
        np.stack([mdl.posterior.mean for mdl in system.task_models]),
        np.stack([mdl.posterior.log_var for mdl in system.task_models]),
        theta1[:d], theta1[d:], system.rho.kappa_rho**2)
    if not (math.isfinite(er) and math.isfinite(kl_rho_pi) and np.isfinite(task_kls).all()):
        raise TrainingDiverged("trained system has a non-finite certificate", TrainingTrace())
    return _certificate(er, kl_rho_pi, 0.0, task_kls, len(tasks), tasks[0].m, cfg.delta)


def two_prior_point(spec: LinearEnvSpec, tasks: list[Task], seed: int, cfg: TrainConfig, *,
                    eval_tasks: int = 20, eval_points: int = 400,
                    mc_eval: int = 200) -> PipelinePoint:
    """Evaluate the trained pipeline on a fixed set of training tasks.

    Fresh tasks from the same environment measure the oracle test loss: each
    is adapted with the trained rule, in the pass that adapts the training
    tasks, and its resulting model scored on newly drawn points.
    """
    test_rng = stream(seed, "trained-test")
    fresh = sample_tasks(spec, eval_tasks, tasks[0].m, test_rng)
    system = fit_two_prior_system(
        tasks, cfg, held_out=fresh,
        held_out_rngs=[stream(seed, "trained-test-adapt", i) for i in range(len(fresh))])
    breakdown = trained_bound_breakdown(system, tasks, cfg)
    test_risks = [risk for risk, _ in true_risks_mc(fresh, system.held_out_models, cfg.loss,
                                                    eval_points, [test_rng] * len(fresh),
                                                    mc_samples=mc_eval)]
    trace = system.trace_objectives
    train_loss = trace[-1] if trace else breakdown.empirical_multitask_risk
    return PipelinePoint(n=len(tasks), m=tasks[0].m, d=spec.d, seed=seed,
                         meta_test_loss=float(np.mean(test_risks)),
                         meta_train_loss=train_loss, **vars(breakdown))
