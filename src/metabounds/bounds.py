"""Risk certificates and an exact checker of the decomposition behind them.

Everything in this module is pure arithmetic on numbers that training code has
already produced: empirical risks, KL divergences, sample counts.  The
functions turn those numbers into high-probability upper bounds on true risk.
The two-level certificates take the complexity of each learning algorithm
drawn from the meta-posterior as a plain ``(kl_hyper, sum_task_kl)`` pair.
A :class:`MetaBoundInput` computes its terms once, when it is built, and
rejects an input it cannot price; the theorem bounds add the stored terms.

The discrete system at the bottom exists so the chain-rule decomposition the
two-level certificates rely on can be verified by brute-force enumeration on
finite supports, rather than trusted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence parameter must lie in (0, 1), got {delta}")


def _check_risk(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_kl(value: float, name: str) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite nonnegative real, got {value}")


def _check_count(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


@dataclass(frozen=True)
class MetaBoundInput:
    """Inputs for the two-level transfer-risk certificates.

    ``per_algorithm_complexity`` holds one ``(kl_hyper, sum_task_kl)`` pair
    of floats per algorithm sampled from the meta-posterior; the list
    estimates the expectation over algorithms, so it must be nonempty.
    ``kl_hyper`` is the divergence of the algorithm's prior distribution from
    its reference (algorithm-specific or shared, depending on which
    certificate consumes the pair).  ``sum_task_kl`` is the expected sum over
    training tasks of the divergence of each task posterior from a prior drawn
    from the algorithm's prior distribution.

    Construction prices the input once: ``task_term`` is the task-level
    term, ``multitask_roots`` the multitask root of each sampled algorithm
    (Theorem 2's terms) and ``pooled_root`` the root of the meta-level
    divergence plus the mean complexity (Theorem 1's).  It raises
    ValueError when a term is not finite or a count overflows a float.
    """

    empirical_multitask_risk: float
    kl_rho_pi: float
    per_algorithm_complexity: tuple[tuple[float, float], ...]
    n: int
    m: int
    delta: float
    task_term: float = field(init=False)
    multitask_roots: tuple[float, ...] = field(init=False)
    pooled_root: float = field(init=False)

    def __post_init__(self) -> None:
        entries = tuple((float(kl_hyper), float(sum_task_kl))
                        for kl_hyper, sum_task_kl in self.per_algorithm_complexity)
        if not entries:
            raise ValueError("per_algorithm_complexity must hold at least one sampled algorithm")
        for kl_hyper, sum_task_kl in entries:
            _check_kl(kl_hyper, "kl_hyper")
            _check_kl(sum_task_kl, "sum_task_kl")
        object.__setattr__(self, "per_algorithm_complexity", entries)
        _check_risk(self.empirical_multitask_risk, "empirical_multitask_risk")
        complexities = [kl_hyper + sum_task_kl for kl_hyper, sum_task_kl in entries]
        try:  # the term functions check kl_rho_pi, n, m and delta
            task_term = task_level_term(self.kl_rho_pi, self.n, self.delta)
            # the sums of finite terms may overflow; name them, not the term
            # functions' arguments
            for c in complexities:
                _check_kl(c, "kl_hyper + sum_task_kl")
            roots = tuple(multitask_sqrt_term(c, self.n, self.m, self.delta)
                          for c in complexities)
            pooled_complexity = self.kl_rho_pi + fmean(complexities)
            _check_kl(pooled_complexity, "kl_rho_pi + mean(kl_hyper + sum_task_kl)")
            pooled = multitask_sqrt_term(pooled_complexity, self.n, self.m, self.delta)
        except OverflowError as exc:
            raise ValueError(f"cannot price the certificate: {exc}") from None
        if not all(map(math.isfinite, (task_term, pooled, *roots))):
            raise ValueError(f"cannot price the certificate: task-level term {task_term}, "
                             f"multitask roots {roots}, pooled root {pooled}")
        object.__setattr__(self, "task_term", task_term)
        object.__setattr__(self, "multitask_roots", roots)
        object.__setattr__(self, "pooled_root", pooled)


def task_level_slack(n: int, delta: float) -> float:
    """Confidence constant added to the meta-level divergence in
    :func:`task_level_term`."""
    return math.log(4.0 * math.sqrt(n) / delta)


def multitask_slack(n: int, m: int, delta: float) -> float:
    """Confidence constant added to the complexity in
    :func:`multitask_sqrt_term`; at ``n = 1`` it is the slack of
    :func:`adaptation_bound`."""
    return math.log(8.0 * (float(n) * float(m)) / delta) + 1.0


def adaptation_bound(empirical_risk: float, kl_q_p1: float, m: int, delta: float) -> float:
    """Certificate minimized when adapting to a fresh task.

    Empirical risk plus a square-root slack term, with the slack constant
    inherited from the two-level analysis, so the value certified during
    adaptation is the one the meta-level objective controls in expectation.
    """
    _check_risk(empirical_risk, "empirical_risk")
    return empirical_risk + multitask_sqrt_term(kl_q_p1, 1, m, delta)


def task_level_term(kl_rho_pi: float, n: int, delta: float) -> float:
    """Environment-level slack, decaying in the number of training tasks."""
    _check_kl(kl_rho_pi, "kl_rho_pi")
    _check_count(n, "n")
    _check_delta(delta)
    return math.sqrt((kl_rho_pi + task_level_slack(n, delta)) / (2.0 * n))


def multitask_sqrt_term(complexity: float, n: int, m: int, delta: float) -> float:
    """Within-task slack, decaying in the total sample count ``n * m``."""
    _check_kl(complexity, "complexity")
    _check_count(n, "n")
    _check_count(m, "m")
    _check_delta(delta)
    nm = float(n) * float(m)
    return math.sqrt((complexity + multitask_slack(n, m, delta)) / (2.0 * nm))


def theorem1_bound(inp: MetaBoundInput) -> float:
    """Transfer-risk certificate with algorithm-dependent reference priors.

    The expectation over algorithms sits inside the square root, together with
    the meta-level divergence, so heavy-tailed complexity across algorithms is
    penalized at its mean.
    """
    return inp.empirical_multitask_risk + inp.task_term + inp.pooled_root


def theorem2_bound(inp: MetaBoundInput) -> float:
    """Transfer-risk certificate with one shared reference prior.

    Caller is responsible for computing every ``kl_hyper`` entry against the
    same shared reference.  The expectation over algorithms is applied outside
    the square root and the meta-level divergence is dropped from it, so by
    Jensen's inequality the value never exceeds :func:`theorem1_bound` on the
    same inputs.
    """
    return inp.empirical_multitask_risk + inp.task_term + fmean(inp.multitask_roots)


def _as_table(value: np.ndarray, name: str, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must hold finite nonnegative probabilities")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        raise ValueError(f"every distribution in {name} must sum to 1 within 1e-12")
    return arr


@dataclass(frozen=True)
class DiscreteMetaSystem:
    """Finite-support meta-learning system; every distribution is a table.

    With ``a`` algorithms, ``p`` priors, ``f`` models and ``n`` tasks:
    ``rho`` and ``pi`` have shape ``(a,)``, ``hyper_posterior`` and
    ``hyper_prior`` have shape ``(a, p)`` (row per algorithm),
    ``task_posteriors`` has shape ``(a, n, f)`` (the model distribution each
    algorithm produces on each task's data) and ``prior_models`` has shape
    ``(p, f)`` (each prior as a distribution over models).
    """

    rho: np.ndarray
    pi: np.ndarray
    hyper_posterior: np.ndarray
    hyper_prior: np.ndarray
    task_posteriors: np.ndarray
    prior_models: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim != 1 or rho.size == 0:
            raise ValueError("rho must be a nonempty vector of probabilities")
        num_alg = rho.size
        post = np.asarray(self.hyper_posterior, dtype=float)
        if post.ndim != 2 or post.shape[0] != num_alg or post.shape[1] == 0:
            raise ValueError("hyper_posterior must have one row per algorithm")
        num_priors = post.shape[1]
        tasks = np.asarray(self.task_posteriors, dtype=float)
        if tasks.ndim != 3 or tasks.shape[0] != num_alg or 0 in tasks.shape:
            raise ValueError("task_posteriors must have shape (algorithms, tasks, models)")
        num_models = tasks.shape[2]
        object.__setattr__(self, "rho", _as_table(rho, "rho", (num_alg,)))
        object.__setattr__(self, "pi", _as_table(self.pi, "pi", (num_alg,)))
        object.__setattr__(
            self, "hyper_posterior", _as_table(post, "hyper_posterior", (num_alg, num_priors))
        )
        object.__setattr__(
            self, "hyper_prior", _as_table(self.hyper_prior, "hyper_prior", (num_alg, num_priors))
        )
        object.__setattr__(
            self,
            "task_posteriors",
            _as_table(tasks, "task_posteriors", (num_alg, tasks.shape[1], num_models)),
        )
        object.__setattr__(
            self, "prior_models", _as_table(self.prior_models, "prior_models", (num_priors, num_models))
        )

    @property
    def num_algorithms(self) -> int:
        return self.rho.size

    @property
    def num_priors(self) -> int:
        return self.hyper_posterior.shape[1]

    @property
    def num_tasks(self) -> int:
        return self.task_posteriors.shape[1]

    @property
    def num_models(self) -> int:
        return self.task_posteriors.shape[2]


def _kl_categorical(q: np.ndarray, p: np.ndarray, what: str) -> float:
    terms = []
    for i, qi in enumerate(q):
        if qi == 0.0:
            continue
        if p[i] == 0.0:
            raise ValueError(
                f"support violation: {what} places mass {qi} on outcome {i} "
                "where the reference probability is zero"
            )
        terms.append(qi * math.log(qi / p[i]))
    return math.fsum(terms)


def kl_decomposition_check(system: DiscreteMetaSystem) -> tuple[float, float, float]:
    """Verify the chain-rule split of the joint divergence by enumeration.

    The left side enumerates the full generating process (algorithm, then
    prior, then one model per task) on both the posterior and reference
    joints.  The right side is the decomposed formula: meta-level divergence
    plus, averaged over algorithms, the prior-level divergence and the
    expected per-task divergences.  Returns ``(lhs, rhs, abs difference)``;
    raises when the posterior joint puts mass where the reference has none,
    naming the offending tuple.
    """
    rho, pi = system.rho, system.pi
    hyper_post, hyper_prior = system.hyper_posterior, system.hyper_prior
    tasks, priors = system.task_posteriors, system.prior_models
    n = system.num_tasks

    lhs_terms = []
    for a in range(system.num_algorithms):
        for p in range(system.num_priors):
            base_q = rho[a] * hyper_post[a, p]
            for models in itertools.product(range(system.num_models), repeat=n):
                joint_q = base_q
                for i, f in enumerate(models):
                    joint_q *= tasks[a, i, f]
                if joint_q == 0.0:
                    continue
                joint_ref = pi[a] * hyper_prior[a, p]
                for f in models:
                    joint_ref *= priors[p, f]
                if joint_ref == 0.0:
                    raise ValueError(
                        f"support violation: posterior joint places mass {joint_q} on "
                        f"(algorithm={a}, prior={p}, models={models}) where the "
                        "reference joint is zero"
                    )
                lhs_terms.append(joint_q * math.log(joint_q / joint_ref))
    lhs = math.fsum(lhs_terms)

    rhs_terms = [_kl_categorical(rho, pi, "the algorithm distribution")]
    for a in range(system.num_algorithms):
        if rho[a] == 0.0:
            continue
        inner = [_kl_categorical(hyper_post[a], hyper_prior[a], f"the prior distribution of algorithm {a}")]
        for p in range(system.num_priors):
            if hyper_post[a, p] == 0.0:
                continue
            task_sum = math.fsum(
                _kl_categorical(tasks[a, i], priors[p], f"task posterior {i} of algorithm {a}")
                for i in range(n)
            )
            inner.append(hyper_post[a, p] * task_sum)
        rhs_terms.append(rho[a] * math.fsum(inner))
    rhs = math.fsum(rhs_terms)

    return lhs, rhs, abs(lhs - rhs)
