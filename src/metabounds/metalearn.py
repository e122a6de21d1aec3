"""Two-prior meta-learning driven by the differentiable certificates.

The learner keeps one hyper-posterior over prior parameters, the product
N(theta0, kappa_rho**2 I) x N(theta1, kappa_rho**2 I).  A fresh task's
posterior is initialized from N(theta0, kappa_rho**2 I); the certificate
measures divergence against a prior from N(theta1, kappa_rho**2 I).  Training
minimizes the two-level certificate itself, in two stages: first with the two
centers tied to a single parameter vector, then with the initialization
center frozen while the regularization center and the per-task posteriors
keep moving.

Prior parameters live in a ``2d``-dimensional space for a ``d``-weight
network: the first half are weight means, the second half weight
log-variances.  Task posteriors use the same layout and are stacked into one
``(n, 2d)`` array with a row per task, so a training step puts every task on
one tape as a single leaf and the tape's size depends on the layers, not on
``n``.
"""

from __future__ import annotations

import math
import os
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diff
from .bounds import adaptation_bound, multitask_slack, task_level_slack
from .env import Task
from .gauss import DiagonalGaussian, kl_diag_gaussian
from .model import (
    LossSpec,
    ModelArchitecture,
    StochasticModel,
    _check_clipped_loss,
    _check_labels,
    glorot_init,
    mc_empirical_risk,
    taped_mc_risk,
)
from .rng import stream

__all__ = [
    "MetaPosterior",
    "TrainConfig",
    "TrainingTrace",
    "TrainingDiverged",
    "meta_kl",
    "meta_objective",
    "adaptation_objective",
    "train_meta",
    "adapt",
    "adapt_many",
    "adaptation_certificate",
    "independent_baseline",
    "save_meta_posterior",
    "load_meta_posterior",
]


@dataclass(frozen=True)
class MetaPosterior:
    """The hyper-posterior N(theta0, kappa_rho**2 I) x N(theta1, kappa_rho**2 I)
    over the initialization prior and the regularization prior.

    ``theta0`` and ``theta1`` are the centers, ``2d`` prior parameters each;
    ``kappa_rho`` is the one spread of both components.
    """

    theta0: np.ndarray
    theta1: np.ndarray
    kappa_rho: float

    def __post_init__(self) -> None:
        theta0 = np.asarray(self.theta0, dtype=np.float64)
        theta1 = np.asarray(self.theta1, dtype=np.float64)
        if theta0.shape != theta1.shape:
            raise ValueError("theta0 and theta1 must have equal dimension")
        if theta0.ndim != 1 or theta0.size == 0 or theta0.size % 2 != 0:
            raise ValueError("centers must be nonempty 1-d vectors of even length: "
                             "weight means plus log-variances")
        if not (np.isfinite(theta0).all() and np.isfinite(theta1).all()):
            raise ValueError("center entries must be finite")
        if not 0.0 < self.kappa_rho < math.inf:
            raise ValueError("kappa_rho must be positive and finite")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "theta1", theta1)

    @property
    def weight_dim(self) -> int:
        return self.theta0.size // 2


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the tasks themselves."""

    arch: ModelArchitecture
    loss: LossSpec
    epochs_stage1: int = 100
    epochs_stage2: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 128
    delta: float = 0.1
    kappa_pi: float = 100.0
    kappa_rho: float = 1e-3
    mc_train: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        for name, kappa in (("kappa_pi", self.kappa_pi), ("kappa_rho", self.kappa_rho)):
            # the meta-KL divides by kappa_pi squared and adds kappa_rho squared
            if not (kappa > 0.0 and 0.0 < kappa * kappa < math.inf):
                raise ValueError(f"{name} must be positive with a finite, nonzero square")
        if self.mc_train < 1:
            raise ValueError("mc_train must be positive")
        if self.loss.kind == "zero_one":
            raise ValueError("training requires a differentiable loss")
        _check_clipped_loss(self.arch, self.loss)


@dataclass
class TrainingTrace:
    """Per-epoch mean objective values; one entry per completed epoch, across
    both stages of meta-training or over one task's adaptation."""

    objectives: list = field(default_factory=list)
    stage_boundary: int = 0


class TrainingDiverged(RuntimeError):
    """The optimized objective stopped being finite.

    Carries the trace of the epochs completed before the failing step and,
    when several tasks were adapted together, the index of the task that
    failed.  Also raised when trained parameters are finite but a
    certificate priced from them is not.
    """

    def __init__(self, message: str, trace: TrainingTrace, task: int | None = None):
        super().__init__(message if task is None else f"task {task}: {message}")
        self.message = message
        self.trace = trace
        self.task = task

    def __reduce__(self):
        # worker processes send exceptions back by pickle, which by default
        # rebuilds them from ``args`` alone
        return (TrainingDiverged, (self.message, self.trace, self.task))


def _meta_kl_coefficients(d: int, kappa_rho: float, kappa_pi: float) -> tuple[float, float]:
    """``(scale, shift)`` with meta-KL ``= squares * scale + shift``, where
    ``squares`` sums the squares of both components' centers.

    Closed form for equal-spread Gaussians against the zero-centered
    reference.
    """
    scale = 1.0 / (2.0 * kappa_pi**2)
    shift = 4.0 * d * kappa_rho**2 * scale - 2.0 * d + 4.0 * d * math.log(kappa_pi / kappa_rho)
    return scale, shift


def meta_kl(rho: MetaPosterior, kappa_pi: float) -> float:
    """Divergence of the two-component meta-posterior from the zero-centered
    reference N(0, kappa_pi**2 I) x N(0, kappa_pi**2 I); equals the sum of
    the two component KLs."""
    squares = float(rho.theta0 @ rho.theta0 + rho.theta1 @ rho.theta1)
    scale, shift = _meta_kl_coefficients(rho.weight_dim, rho.kappa_rho, kappa_pi)
    return squares * scale + shift


# Tape-side certificates. Parameter nodes are stacked: the task posteriors
# are one (n, 2d) node, the prior centers (2d,) nodes that broadcast against
# it. What is not optimized (data, noise, fixed priors, the frozen stage-two
# center) enters as a constant array. Each certificate has one builder, used
# by training and, on the same tape, by the public objective functions that
# gradcheck it.
#
# A certificate's arithmetic on the per-task risks, and the divergence of
# the task posteriors from their prior, is one node. Its value and adjoints
# repeat, in the same order, the float operations of the chain of
# elementary ops that spells the certificate out (the divergence, sums,
# sums of squares, scalings, square roots), adjoint accumulation included,
# so training follows the chain's path bit for bit; the tests build that
# reference chain from the ops in tests/oracles.py. A node hands q the
# divergence's adjoint, to which backward then adds the risk node's, the
# order in which the chain accumulates them. A negative square-root
# argument, which no valid TrainConfig makes, gives NaN, and NaN reaches the
# training loops' finiteness checks.


def _gaussian_kl(q: np.ndarray, p_mean: np.ndarray, p_lv: np.ndarray, inv_var: np.ndarray):
    """KL of diagonal Gaussians, one value per row of the (n, 2d) array q.

    Each row of q holds d means then d log-variances. The prior is given by
    its means p_mean, log-variances p_lv and inverse variances inv_var =
    exp(-p_lv), each one (d,) row that serves every row of q or an (n, d)
    row per row. The prior is taken as it is: its caller has checked it to
    be finite. Returns the (n,) values and their vjp. ``vjp(g)`` gives q's
    adjoint and a function of no arguments that gives the prior's, as one
    row of means then log-variances, so that a certificate whose prior is
    constant never computes it. Value and adjoints repeat, in the same
    order, the float operations of the 12-op chain
    ``sum(exp(dlv) + dm * dm * exp(-p_lv) - dlv + (-1), axis=-1) * 0.5``
    with ``dlv = q_lv - p_lv`` and ``dm = q_mean - p_mean``.
    """
    d = q.shape[1] // 2
    dlv = q[:, d:] - p_lv
    dm = q[:, :d] - p_mean
    e = np.exp(dlv)
    sq = dm * dm
    value = np.add.reduce(e + sq * inv_var - dlv + (-1.0), axis=-1) * 0.5

    def vjp(g):
        # the chain spreads g * 0.5 across each row; broadcasting gives each
        # entry the same floats, and g_dm + g_dm those of its two equal terms
        g = (g * 0.5)[:, None]
        g_dm = g * inv_var * dm
        g_dm = g_dm + g_dm
        g_dlv = -g + g * e

        def prior_adjoint():
            g_mean, g_lv, g_inv = -g_dm, -g_dlv, g * sq
            if p_mean.ndim == 1:
                # one row serves every task, so its adjoint sums theirs
                g_mean, g_lv, g_inv = (np.add.reduce(a, axis=0) for a in (g_mean, g_lv, g_inv))
            return np.concatenate([g_mean, g_lv - g_inv * inv_var], axis=-1)

        return np.concatenate([g_dm, g_dlv], axis=1), prior_adjoint

    return value, vjp


def _meta_certificate_node(cfg: TrainConfig, m: int, theta0, theta1, q, risk):
    """The two-level certificate of the (n, 2d) task posteriors q and their
    (n,) risks as one node: the mean risk plus the task-level and multitask
    square-root terms.

    theta1 is a node; theta0 is the same node (tied) or a constant array
    (frozen). Each task's divergence is its expectation over regularization
    priors drawn from N(theta1, kappa_rho**2 I), in the closed form that
    prices the trained certificate (gauss.expected_kl_fixed_spread_arrays):
    the KL from N(a, exp(b - h)), where theta1 = (a, b) and
    h = kappa_rho**2 / 2, plus n spread terms h * sum(exp(h - b) + 1/2).
    The node stands for the chain
    ``sum(risk) * (1/n) + sqrt((mkl + task_level_slack) * (1/(2n)))
    + sqrt((mkl + sum(kl) + spread + multitask_slack) * (1/(2nm)))`` with
    ``kl`` the KL of q from ``theta1 - (0, h)``, ``spread = sum(exp(h - b)
    + 0.5) * (h * n)``, b sliced from theta1 before the meta-KL
    ``mkl = (sum(theta0 * theta0) + sum(theta1 * theta1)) * scale + shift``.
    """
    n = risk.shape[0]
    tied = theta0 is theta1
    t1 = theta1.value
    d = t1.shape[0] // 2
    half = 0.5 * cfg.kappa_rho**2
    # exp(h - b) is exp(-(b - h)) bit for bit: the shifted prior's inverse variances
    inv_var = np.exp(half - t1[d:])
    kl, kl_vjp = _gaussian_kl(q.value, t1[:d], t1[d:] - half, inv_var)
    spread = np.add.reduce(inv_var + 0.5, axis=None) * (half * n)
    sq1 = np.add.reduce(t1 * t1, axis=None)
    squares = (sq1 if tied else np.add.reduce(theta0 * theta0, axis=None)) + sq1
    scale, shift = _meta_kl_coefficients(d, cfg.kappa_rho, cfg.kappa_pi)
    mkl = squares * scale + shift
    task_scale = 1.0 / (2.0 * n)
    multi_scale = 1.0 / (2.0 * n * m)
    task_arg = (mkl + task_level_slack(n, cfg.delta)) * task_scale
    multi_arg = (mkl + np.add.reduce(kl, axis=None) + spread
                 + multitask_slack(n, m, cfg.delta)) * multi_scale
    task_term = np.sqrt(task_arg)
    multi_term = np.sqrt(multi_arg)
    value = np.add.reduce(risk.value, axis=None) * (1.0 / n) + task_term + multi_term

    def vjp(g):
        g_multi = g * 0.5 / multi_term * multi_scale
        # the chain reaches mkl through the multitask term first
        g_squares = (g_multi + g * 0.5 / task_term * task_scale) * scale
        g_q, g_prior = kl_vjp(np.full(n, g_multi))
        # each sum of squares hands its center two equal adjoints; the chain
        # accumulates theta1's pair, then the tied theta0's, then the
        # spread's, and last the divergence's, through the shifted prior
        g1 = g_squares * t1
        g_theta = (g1 + g1 + g1 + g1) if tied else (g1 + g1)
        g_theta[d:] -= g_multi * (half * n) * inv_var
        return np.full(n, g * (1.0 / n)), g_q, g_theta + g_prior()

    return diff.Tensor(risk.tape, value, (risk, q, theta1), vjp)


def _adaptation_certificate_node(cfg: TrainConfig, m: int, q, prior: np.ndarray, risk):
    """Single-task certificates of the (n, 2d) posteriors q against the
    fixed (n, 2d) priors, given their (n,) risks, summed as one scalar node:
    the chain ``sum(risk + sqrt((kl + multitask_slack) * (1/(2m))))`` with
    ``kl`` the KL of q from the priors. Returns the node and the (n,)
    certificates it sums."""
    d = prior.shape[1] // 2
    kl, kl_vjp = _gaussian_kl(q.value, prior[:, :d], prior[:, d:], np.exp(-prior[:, d:]))
    scale = 1.0 / (2.0 * m)
    arg = (kl + multitask_slack(1, m, cfg.delta)) * scale
    root = np.sqrt(arg)
    values = risk.value + root

    def vjp(g):
        g = np.full(values.shape, g)
        g_q, _ = kl_vjp(g * 0.5 / root * scale)
        return g, g_q

    return (diff.Tensor(risk.tape, np.asarray(np.add.reduce(values, axis=None)), (risk, q), vjp),
            values)


def _meta_certificate(cfg: TrainConfig, m: int, theta0, theta1, q, x, y,
                      rng: np.random.Generator):
    """The two-level certificate on one tape.

    theta1 is the (2d,) regularization-center node and theta0 the same node
    (tied) or a constant array (frozen); q is the (n, 2d) task-posterior
    node, x and y one minibatch per task.  ``m`` is each task's full sample
    count, which sets the slack constants whatever the minibatch size.
    Draws every task's weight noise, and nothing else, from rng.
    """
    n, width = q.shape
    eps = rng.standard_normal((n, cfg.mc_train, width // 2))
    risk = taped_mc_risk(cfg.arch, q, x, y, cfg.loss, eps)
    return _meta_certificate_node(cfg, m, theta0, theta1, q, risk)


def _adaptation_certificates(cfg: TrainConfig, m: int, q, prior: np.ndarray,
                             x, y, eps: np.ndarray):
    """Single-task certificates of stacked posteriors against fixed priors.

    q is the (n, 2d) posterior node and prior the (n, 2d) array of prior
    parameters, which the caller has checked to be finite (the divergence
    takes it unchecked). Returns the scalar node of their sum, which each
    row's gradient sees as its own task's certificate, and the (n,)
    certificates.
    """
    risk = taped_mc_risk(cfg.arch, q, x, y, cfg.loss, eps)
    return _adaptation_certificate_node(cfg, m, q, prior, risk)


def _flat(dist: DiagonalGaussian) -> np.ndarray:
    return np.concatenate([dist.mean, dist.log_var])


def _shared_sample_count(tasks) -> int:
    counts = {task.m for task in tasks}
    if len(counts) != 1:
        raise ValueError("tasks must share a sample count")
    return counts.pop()


def _stacked_data(tasks, arch: ModelArchitecture) -> tuple[np.ndarray, np.ndarray]:
    """The tasks' training inputs and labels, stacked with a row per task.

    The risk node takes the data unchecked, so it is checked here, once per
    run: a non-finite input, or a label that is not an integer in the
    architecture's classes, raises ValueError.
    """
    x, y = np.stack([t.train_x for t in tasks]), np.stack([t.train_y for t in tasks])
    diff.constant(x)
    diff.constant(y)
    _check_labels(arch, y)
    return x, y


def meta_objective(rho: MetaPosterior, task_posteriors, tasks, cfg: TrainConfig,
                   rng: np.random.Generator | None = None,
                   leaves_out: dict | None = None):
    """Differentiable certificate at the given parameter point.

    Evaluates on each task's full training set with ``cfg.mc_train`` weight
    draws and the exact expectation over regularization priors drawn from
    N(theta1, kappa_rho**2 I), so ``rng`` gives the weight noise alone.  The
    meta-KL and that expectation are priced at rho's own spread
    ``rho.kappa_rho``, not at ``cfg.kappa_rho``.  The tape is a stage-two
    training step's: ``theta0`` enters as a constant, and the leaves are
    ``rho.theta1`` (2d,) and the task posteriors stacked into one (n, 2d)
    leaf, row i for task i.  Returns the scalar tape node; when
    ``leaves_out`` is a dict it receives those leaves under ``"theta1"`` and
    ``"q"``, so callers can read gradients after a backward pass.
    """
    if len(task_posteriors) != len(tasks):
        raise ValueError("need exactly one task posterior per task")
    if not tasks:
        raise ValueError("at least one task is required")
    arch = cfg.arch
    if rho.weight_dim != arch.param_count:
        raise ValueError("meta-posterior dimension does not match the architecture")
    for model in task_posteriors:
        if model.arch != arch:
            raise ValueError("task posterior architecture differs from the config's")
    m = _shared_sample_count(tasks)
    if rng is None:
        rng = stream(cfg.seed, "objective")
    cfg = replace(cfg, kappa_rho=rho.kappa_rho)

    tape = diff.Tape()
    theta1 = tape.tensor(rho.theta1)
    q = tape.tensor(np.stack([_flat(mdl.posterior) for mdl in task_posteriors]))
    if leaves_out is not None:
        leaves_out.update(theta1=theta1, q=q)
    return _meta_certificate(cfg, m, rho.theta0, theta1, q, *_stacked_data(tasks, arch), rng)


def adaptation_objective(model: StochasticModel, prior: DiagonalGaussian, task: Task,
                         cfg: TrainConfig, rng: np.random.Generator | None = None,
                         leaves_out: dict | None = None):
    """Differentiable single-task certificate against a fixed prior: the
    objective :func:`adapt` minimizes, here on the full training set.  The
    tape is an adapt step's, with the posterior as its one (1, 2d) leaf;
    ``leaves_out`` receives that leaf under ``"q"``."""
    arch = cfg.arch
    if model.arch != arch:
        raise ValueError("model architecture differs from the config's")
    if prior.dim != arch.param_count:
        raise ValueError("prior dimension does not match the architecture")
    if rng is None:
        rng = stream(cfg.seed, "adapt-objective")
    tape = diff.Tape()
    q = tape.tensor(_flat(model.posterior)[None])
    if leaves_out is not None:
        leaves_out["q"] = q
    eps = rng.standard_normal((1, cfg.mc_train, arch.param_count))
    node, _ = _adaptation_certificates(cfg, task.m, q, _flat(prior)[None],
                                       *_stacked_data([task], arch), eps)
    return node


class _Adam:
    """Moment-tracking update rule on one flat parameter vector."""

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - 0.9**self.t
        bc2 = 1.0 - 0.999**self.t
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * (grad * grad)
        step = (self.m / bc1) / (np.sqrt(self.v / bc2) + 1e-8)
        params -= self.lr * step


def _packed(**arrays) -> tuple[np.ndarray, dict]:
    """One flat float64 vector holding ``arrays`` in order, and a view of it
    per array, of that array's shape: the parameters a run descends."""
    flat = np.concatenate([np.ravel(a) for a in arrays.values()])
    views, start = {}, 0
    for key, a in arrays.items():
        views[key] = flat[start:start + a.size].reshape(a.shape)
        start += a.size
    return flat, views


def _check_finite(values: np.ndarray, traces: list, message: str,
                  name_task: bool = True) -> None:
    """Raise TrainingDiverged for the first task whose row of ``values``
    holds a non-finite entry, with that task's trace; the task is named
    when ``name_task``."""
    if np.isfinite(values).all():
        return
    task = int(np.argmin(np.isfinite(values.reshape(len(traces), -1)).all(axis=1)))
    raise TrainingDiverged(message, traces[task], task=task if name_task else None)


def _descend(cfg: TrainConfig, x: np.ndarray, y: np.ndarray, flat: np.ndarray,
             params: dict, rngs, epochs: int, objective, traces: list, *,
             name_task: bool = True) -> None:
    """Minibatch Adam descent on ``flat``, of which ``params`` are the views
    that :func:`_packed` made: the loop that both stages of meta-training
    and adaptation run.

    Each epoch task i draws its sample order from ``rngs[i]``.  Each step
    puts one leaf per ``params`` entry on a fresh tape, holding the view
    itself, neither copied nor checked: the parameters start finite, and
    every step checks them after its update.  ``objective(leaves, xb, yb)``
    returns the node to differentiate and one value per trace.  Those
    values, and the parameters after the step, must stay finite (see
    :func:`_check_finite`).  Each epoch appends the mean of its steps'
    values to each trace, as np.mean computes it.
    """
    m = y.shape[1]
    rows = np.arange(len(rngs))[:, None]
    opt = _Adam(cfg.learning_rate, flat.size)
    for _ in range(epochs):
        # step j takes chunk j of every task's order, so each task visits
        # each sample once
        perms = np.array([rng.permutation(m) for rng in rngs])
        per_step = []
        for j in range(0, m, cfg.batch_size):
            idx = perms[:, j:j + cfg.batch_size]
            xb, yb = x[rows, idx], y[rows, idx]
            with diff.Tape() as tape:
                leaves = {key: diff.Tensor(tape, value, (), None)
                          for key, value in params.items()}
                node, values = objective(leaves, xb, yb)
                _check_finite(values, traces, "objective became non-finite", name_task)
                diff.backward(node)
                opt.step(flat, np.concatenate([leaf.grad for leaf in leaves.values()],
                                              axis=None))
            _check_finite(flat, traces, "parameters became non-finite", name_task)
            per_step.append(values)
        for trace, value in zip(traces, np.add.reduce(per_step, axis=0) / len(per_step)):
            trace.objectives.append(float(value))


def train_meta(env_tasks, cfg: TrainConfig) -> tuple[MetaPosterior, TrainingTrace]:
    """Fit the meta-posterior on the training tasks by the two-stage schedule.

    Stage one optimizes a single tied prior-parameter vector together with
    all task posteriors.  Stage two freezes that vector as the
    initialization component, resamples every task posterior from it, and
    optimizes the regularization component and the posteriors.  Optimizer
    state does not survive the boundary.  Every step is one stacked tape
    over all tasks.  Returns the final meta-posterior and the per-epoch
    objective trace.
    """
    if not env_tasks:
        raise ValueError("at least one training task is required")
    arch = cfg.arch
    d = arch.param_count
    n = len(env_tasks)
    m = _shared_sample_count(env_tasks)
    x, y = _stacked_data(env_tasks, arch)
    trace = TrainingTrace()

    def stage(flat: np.ndarray, params: dict, theta0: np.ndarray | None, epochs: int,
              name: str) -> None:
        # with theta0 None the two components are tied to params["theta"];
        # otherwise theta0 is the frozen initialization center
        rng = stream(cfg.seed, name)

        def objective(leaves, xb, yb):
            theta1 = leaves["theta"]
            value = _meta_certificate(cfg, m, theta1 if theta0 is None else theta0, theta1,
                                      leaves["q"], xb, yb, rng)
            return value, value.value.reshape(1)

        _descend(cfg, x, y, flat, params, [rng] * n, epochs, objective, [trace],
                 name_task=False)

    flat, params = _packed(
        theta=_flat(glorot_init(arch, stream(cfg.seed, "init", "prior"))),
        q=np.stack([_flat(glorot_init(arch, stream(cfg.seed, "init", f"task{i}")))
                    for i in range(n)]),
    )
    stage(flat, params, None, cfg.epochs_stage1, "stage1")
    trace.stage_boundary = len(trace.objectives)

    theta0 = params["theta"]
    theta1 = theta0
    if cfg.epochs_stage2 > 0:
        flat, stage2 = _packed(
            theta=theta0,
            q=np.stack([
                theta0 + cfg.kappa_rho * stream(cfg.seed, "reinit", f"task{i}").standard_normal(2 * d)
                for i in range(n)
            ]),
        )
        stage(flat, stage2, theta0, cfg.epochs_stage2, "stage2")
        theta1 = stage2["theta"]

    return MetaPosterior(theta0, theta1, cfg.kappa_rho), trace


def adapt_many(rho: MetaPosterior, tasks, cfg: TrainConfig, *, adapt_epochs: int = 100,
               rngs) -> list[tuple[StochasticModel, DiagonalGaussian]]:
    """Adapt to several fresh tasks at once.

    The tasks must share a sample count.  Their posteriors are the rows of
    one stacked array, optimized together with one tape per step; since the
    summed objective separates by task, each row follows exactly the path a
    single-task run would.  Task i draws only from ``rngs[i]``, in the order
    of a single-task run: its initialization from N(theta0, kappa_rho**2 I),
    its prior from N(theta1, kappa_rho**2 I), both at ``rho.kappa_rho``, then
    per epoch a permutation and per step its weight noise.
    Returns one ``(model, prior)`` pair per task; pass it to
    :func:`adaptation_certificate` with the same generator to certify it.

    Raises TrainingDiverged naming the first task whose draws, objective or
    parameters stop being finite, with that task's completed epochs.
    """
    arch = cfg.arch
    d = arch.param_count
    if rho.weight_dim != d:
        raise ValueError("meta-posterior dimension does not match the architecture")
    if not tasks:
        raise ValueError("at least one task is required")
    if len(rngs) != len(tasks):
        raise ValueError("need exactly one generator per task")
    m = _shared_sample_count(tasks)
    starts, priors = [], []
    for rng in rngs:
        starts.append(rho.theta0 + rho.kappa_rho * rng.standard_normal(2 * d))
        priors.append(rho.theta1 + rho.kappa_rho * rng.standard_normal(2 * d))
    flat, params = _packed(q=np.stack(starts))
    prior = np.stack(priors)
    x, y = _stacked_data(tasks, arch)
    traces = [TrainingTrace() for _ in tasks]
    _check_finite(np.concatenate([params["q"], prior], axis=1), traces,
                  "sampled initialization or prior is non-finite")

    def objective(leaves, xb, yb):
        eps = np.array([rng.standard_normal((cfg.mc_train, d)) for rng in rngs])
        return _adaptation_certificates(cfg, m, leaves["q"], prior, xb, yb, eps)

    _descend(cfg, x, y, flat, params, rngs, adapt_epochs, objective, traces)
    return [(StochasticModel(arch, DiagonalGaussian(row[:d], row[d:])),
             DiagonalGaussian(prior_row[:d], prior_row[d:]))
            for row, prior_row in zip(params["q"], prior)]


def adaptation_certificate(model: StochasticModel, prior: DiagonalGaussian, task: Task,
                           cfg: TrainConfig, *, mc_eval: int,
                           rng: np.random.Generator) -> tuple[float, float]:
    """Certificate of an adapted posterior against the prior it was trained
    against, with the empirical risk estimated from ``mc_eval`` weight draws.

    Returns ``(empirical_risk, bound)``: the estimate the bound was priced
    from, and the bound.  Raises TrainingDiverged when the posterior is
    finite but its risk or divergence is not.
    """
    empirical = mc_empirical_risk(model, task.train_x, task.train_y, cfg.loss, mc_eval, rng)
    kl = kl_diag_gaussian(model.posterior, prior)
    if not (math.isfinite(empirical) and math.isfinite(kl)):
        raise TrainingDiverged("adapted posterior has a non-finite certificate",
                               TrainingTrace())
    return empirical, adaptation_bound(empirical, kl, task.m, cfg.delta)


def adapt(rho: MetaPosterior, new_task: Task, cfg: TrainConfig,
          adapt_epochs: int = 100, rng: np.random.Generator | None = None,
          mc_eval: int = 1000) -> tuple[StochasticModel, float]:
    """Train a posterior for a fresh task and certify it.

    Samples an initialization from N(theta0, kappa_rho**2 I) and a prior
    from N(theta1, kappa_rho**2 I), then minimizes the single-task
    certificate for ``adapt_epochs`` epochs.
    Returns the model and its certificate value, with the empirical risk in
    the certificate estimated from ``mc_eval`` weight draws.  This is
    :func:`adapt_many` on one task followed by :func:`adaptation_certificate`.
    """
    if rng is None:
        rng = stream(cfg.seed, "adapt")
    [(model, prior)] = adapt_many(rho, [new_task], cfg, adapt_epochs=adapt_epochs, rngs=[rng])
    _, bound = adaptation_certificate(model, prior, new_task, cfg, mc_eval=mc_eval, rng=rng)
    return model, bound


def independent_baseline(tasks, cfg: TrainConfig, *, adapt_epochs: int = 100,
                         rngs) -> list[StochasticModel]:
    """Single-task training from scratch against the fixed zero-centered prior.

    Runs :func:`adapt_many` with both meta-posterior components collapsed
    onto the zero parameter vector, i.e. a unit-variance zero-mean prior over
    weights and an initialization sampled from the same point; task i draws
    from ``rngs[i]``.  Returns one model per task.
    """
    d = cfg.arch.param_count
    base = MetaPosterior(np.zeros(2 * d), np.zeros(2 * d), cfg.kappa_rho)
    return [model for model, _ in adapt_many(base, tasks, cfg, adapt_epochs=adapt_epochs,
                                             rngs=rngs)]


_ARTIFACT_TAG = "metaposterior"
_ARTIFACT_VERSION = 1


def save_meta_posterior(rho: MetaPosterior, path) -> None:
    """Write the meta-posterior as plain text, atomically; round-trips
    bit-exactly."""
    lines = [
        f"{_ARTIFACT_TAG} {_ARTIFACT_VERSION} {rho.theta0.size} {rho.kappa_rho:.17g}"
    ]
    for vec in (rho.theta0, rho.theta1):
        lines.append(" ".join(format(v, ".17g") for v in vec))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, text: str) -> None:
    """Write text to path through a new file beside it and one rename, so
    that path holds its old content or all of the new, never part. Makes
    missing parent directories and leaves no temporary file; the file gets
    the mode the umask gives any new file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_meta_posterior(path) -> MetaPosterior:
    lines = Path(path).read_text().strip().splitlines()
    if len(lines) != 3:
        raise ValueError("artifact must hold a header and two parameter rows")
    head = lines[0].split()
    if len(head) != 4 or head[0] != _ARTIFACT_TAG:
        raise ValueError("unrecognized artifact header")
    if int(head[1]) != _ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {head[1]}")
    dim = int(head[2])
    kappa_rho = float(head[3])
    theta0 = np.array([float(tok) for tok in lines[1].split()])
    theta1 = np.array([float(tok) for tok in lines[2].split()])
    if theta0.size != dim or theta1.size != dim:
        raise ValueError("parameter rows do not match the declared dimension")
    return MetaPosterior(theta0, theta1, kappa_rho)
