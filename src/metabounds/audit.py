"""Independent verification oracles and the bound-validity auditor.

The quadrature oracle checks the closed-form Gaussian KLs against direct
numerical integration. The auditor statistically tests the high-probability
guarantee itself: it reruns a full learning pipeline on freshly sampled
training tasks many times and counts how often the certified bound is
violated by the true (oracle-estimated) transfer risk.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bounds import kl_decomposition_check, random_discrete_system
from .env import sample_tasks, true_risk_mc
from .gauss import DiagonalGaussian
from .metalearn import TrainConfig, adapt_many
from .metalearn import adapt  # noqa: F401 - bench/tracer.py wraps it on this module
from .pipelines import fit_two_prior_system, trained_bound_breakdown
from .rng import spawn_seed, stream

# Least trials and held-out tasks per trial that give the audit's violation
# rate and its standard errors meaning.
MIN_TRIALS = 50
MIN_EVAL_TASKS = 20


def quadrature_kl_1d(
    q: DiagonalGaussian, p: DiagonalGaussian, grid: int = 100_000
) -> float:
    """Trapezoidal estimate of KL(q || p) for 1-d Gaussians.

    Integrates q(x) log(q(x)/p(x)) over a window of 12 combined standard
    deviations around both means, which keeps the truncated tail mass far
    below the 1e-6 agreement tolerance used in tests.
    """
    if q.dim != 1 or p.dim != 1:
        raise ValueError("quadrature oracle is 1-d only")
    mq, sq = float(q.mean[0]), float(q.std[0])
    mp_, sp = float(p.mean[0]), float(p.std[0])
    span = 12.0 * (sq + sp)
    lo = min(mq, mp_) - span
    hi = max(mq, mp_) + span
    x = np.linspace(lo, hi, int(grid))
    # log q - log p, written out to avoid under/overflow in the densities
    log_ratio = (
        np.log(sp / sq)
        - 0.5 * ((x - mq) / sq) ** 2
        + 0.5 * ((x - mp_) / sp) ** 2
    )
    dens_q = np.exp(-0.5 * ((x - mq) / sq) ** 2) / (sq * np.sqrt(2.0 * np.pi))
    return float(np.trapezoid(dens_q * log_ratio, x))


@dataclass(frozen=True)
class AuditRecord:
    """Outcome of a single audit trial."""

    trial_index: int
    seed: int
    bound: float
    true_risk_est: float
    true_risk_se: float
    margin: float
    violated: bool


@dataclass(frozen=True)
class AuditReport:
    """Aggregate of an audit run: how often the certificate failed."""

    trials: int
    violations: int
    delta: float
    records: tuple[AuditRecord, ...]

    def __post_init__(self) -> None:
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")
        if len(self.records) != self.trials:
            raise ValueError("one record per trial is required")

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials


def _audit_trial(env_spec, n: int, m: int, cfg: TrainConfig, index: int,
                 seed: int, eval_tasks: int, eval_points: int,
                 mc_eval: int) -> AuditRecord:
    """Run one full pipeline on fresh tasks and compare bound to oracle risk."""
    trial_cfg = replace(cfg, seed=seed)
    tasks = sample_tasks(env_spec, n, m, stream(seed, "audit-tasks"))
    system = fit_two_prior_system(tasks, trial_cfg)
    breakdown = trained_bound_breakdown(system, tasks, trial_cfg)
    bound = breakdown.bound_thm2

    eval_rng = stream(seed, "audit-eval")
    fresh = sample_tasks(env_spec, eval_tasks, m, eval_rng)
    adapted = adapt_many(system.rho, fresh, trial_cfg, adapt_epochs=cfg.epochs_stage2,
                         rngs=[stream(seed, "audit-adapt", i) for i in range(len(fresh))])
    risks = [
        true_risk_mc(task, model, cfg.loss, eval_points, eval_rng, mc_samples=mc_eval)[0]
        for task, (model, _) in zip(fresh, adapted)
    ]
    est = float(np.mean(risks))
    se = float(np.std(risks, ddof=1) / math.sqrt(len(risks)))

    # Cross-check the discrete decomposition oracle alongside every trial so
    # a regression in the KL bookkeeping cannot hide behind a loose bound.
    _, _, gap = kl_decomposition_check(random_discrete_system(stream(seed, "audit-decomp")))
    if gap > 1e-12:
        raise RuntimeError(f"discrete KL decomposition failed in trial {index}: {gap}")

    return AuditRecord(
        trial_index=index,
        seed=seed,
        bound=bound,
        true_risk_est=est,
        true_risk_se=se,
        margin=bound - est,
        violated=bool(est > bound + 3.0 * se),
    )


def audit_bound_validity(env_spec, n: int, m: int, cfg: TrainConfig,
                         trials: int, rng: np.random.Generator, *,
                         eval_tasks: int = 20, eval_points: int = 200,
                         mc_eval: int = 200, jobs: int = 1) -> AuditReport:
    """Empirically test the high-probability guarantee of the certificate.

    Each trial samples fresh training tasks, fits the two-prior pipeline,
    certifies it, and estimates the true transfer risk on held-out tasks.  A
    violation is recorded only when the oracle estimate exceeds the bound by
    more than three standard errors, so Monte-Carlo noise cannot trigger
    false alarms.  Trials are independent and seeded individually; the
    report is identical whatever the degree of parallelism.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"a meaningful audit needs at least {MIN_TRIALS} trials")
    if eval_tasks < MIN_EVAL_TASKS:
        raise ValueError(f"true-risk oracle needs at least {MIN_EVAL_TASKS} evaluation tasks")
    root = int(rng.integers(2**63))
    seeds = [spawn_seed(root, "trial", k) for k in range(trials)]
    args = [
        (env_spec, n, m, cfg, k, seeds[k], eval_tasks, eval_points, mc_eval)
        for k in range(trials)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_audit_trial_star, args, chunksize=8))
    else:
        records = [_audit_trial(*a) for a in args]
    violations = sum(1 for r in records if r.violated)
    return AuditReport(
        trials=trials,
        violations=violations,
        delta=cfg.delta,
        records=tuple(records),
    )


def _audit_trial_star(packed):
    return _audit_trial(*packed)
