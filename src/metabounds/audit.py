"""The bound-validity auditor.

The auditor statistically tests the high-probability guarantee of the
certificate: it reruns a full learning pipeline on freshly sampled training
tasks many times and counts how often the certified bound is violated by
the true (oracle-estimated) transfer risk.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bounds import kl_decomposition_check  # noqa: F401 - bench/tracer.py wraps it on this module
from .env import sample_tasks, true_risks_mc
from .env import true_risk_mc  # noqa: F401 - bench/tracer.py wraps it on this module
from .metalearn import TrainConfig
from .metalearn import adapt  # noqa: F401 - bench/tracer.py wraps it on this module
from .pipelines import fit_two_prior_system, trained_bound_breakdown
from .rng import spawn_seed, stream

# Least trials and held-out tasks per trial that give the audit's violation
# rate and its standard errors meaning.
MIN_TRIALS = 50
MIN_EVAL_TASKS = 20


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

    @property
    def vacuous_trials(self) -> int:
        """Trials whose bound is at least 1, which any [0, 1] risk meets."""
        return sum(1 for r in self.records if r.bound >= 1.0)

    @property
    def margin_quartiles(self) -> tuple[float, float, float]:
        """25th, 50th and 75th percentiles of bound minus estimated risk."""
        q = np.percentile([r.margin for r in self.records], (25, 50, 75))
        return float(q[0]), float(q[1]), float(q[2])


def _audit_trial(env_spec, n: int, m: int, cfg: TrainConfig, index: int,
                 seed: int, eval_tasks: int, eval_points: int,
                 mc_eval: int) -> AuditRecord:
    """Run one full pipeline on fresh tasks and compare bound to oracle risk.

    The held-out tasks are adapted in the pass that adapts the training
    tasks, each on its own ``audit-adapt`` stream, and scored in one oracle
    call that draws from the ``audit-eval`` stream after their sampling.
    """
    trial_cfg = replace(cfg, seed=seed)
    tasks = sample_tasks(env_spec, n, m, stream(seed, "audit-tasks"))
    eval_rng = stream(seed, "audit-eval")
    fresh = sample_tasks(env_spec, eval_tasks, m, eval_rng)
    system = fit_two_prior_system(
        tasks, trial_cfg, held_out=fresh,
        held_out_rngs=[stream(seed, "audit-adapt", i) for i in range(len(fresh))])
    bound = trained_bound_breakdown(system, tasks, trial_cfg).bound_thm2
    risks = [risk for risk, _ in true_risks_mc(fresh, system.held_out_models, cfg.loss,
                                               eval_points, [eval_rng] * len(fresh),
                                               mc_samples=mc_eval)]
    est = float(np.mean(risks))
    se = float(np.std(risks, ddof=1) / math.sqrt(len(risks)))

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
