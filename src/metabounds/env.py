"""Synthetic task environments: task sampling and a true-risk oracle.

Three families. The linear environment draws a task weight vector w* from
an isotropic Gaussian and labels uniform inputs by the sign test
y = 1(w*.x <= 0). The permuted-labels and shuffled-features environments
share a fixed small Gaussian-blobs dataset; tasks differ by a uniformly
drawn label permutation, or by a permutation of a fixed coordinate
subset. The oracle estimates the unobservable true risk of a stochastic
model on a task by fresh sampling.

The oracle draws a task's B = n_eval inputs from its generator. For a
linear model it then needs no weight draws: under a diagonal Gaussian
posterior N(mu, diag sigma^2) the score of a point x is Gaussian,
N(mu.x, sum_j sigma_j^2 x_j^2), so the expected loss over the weights is a
one-dimensional integral per point. The 0-1 risk is then an exact normal
tail, and the clipped logistic risk a fixed Gauss-Hermite sum over
``QUADRATURE_NODES`` scores per point. For mlp1 the oracle draws K =
mc_samples weight vectors after the inputs. Both price the clipped loss of
the training risk node (``model.loss_values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gauss import normal_cdf
from .model import (LossSpec, StochasticModel, _check_labels, _clipped_loss, _mc_losses,
                    predicted_labels, scores_batch)

# Gauss-Hermite nodes per point behind the linear oracle's clipped logistic
# risk. The clip's kink limits the rule: against a 200,001-point trapezoid
# reference over 400 points spread around the kink, the worst point is off
# by 2.3e-5, 2.3e-3 and 2.4e-2 at score sd 0.01, 1 and 10, and their mean
# by at most 1.0e-6 (tests/test_env.py). Audited posteriors have score sd
# about 0.005.
QUADRATURE_NODES = 32


@dataclass(frozen=True)
class LinearEnvSpec:
    """Binary linear-classification environment over [-1, 1]^d inputs."""

    d: int
    mu_tau: np.ndarray | None = None
    sigma_tau: float = 3.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.sigma_tau <= 0.0:
            raise ValueError("sigma_tau must be positive")
        mu = self.mu_tau
        mu = 10.0 * np.ones(self.d) if mu is None else np.asarray(mu, dtype=float)
        if mu.shape != (self.d,):
            raise ValueError(f"mu_tau must have shape ({self.d},)")
        object.__setattr__(self, "mu_tau", mu)


@dataclass(frozen=True)
class BlobsSpec:
    """A fixed multiclass dataset of Gaussian blobs, reproduced from a seed."""

    num_points: int = 256
    dim: int = 10
    num_classes: int = 4
    center_scale: float = 1.0
    noise: float = 1.0
    seed: int = 0

    def build(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the dataset; identical for identical specs."""
        rng = np.random.default_rng(self.seed)
        centers = self.center_scale * rng.standard_normal(
            (self.num_classes, self.dim)
        )
        per = self.num_points // self.num_classes
        counts = [per + (1 if c < self.num_points % self.num_classes else 0)
                  for c in range(self.num_classes)]
        xs, ys = [], []
        for c, k in enumerate(counts):
            xs.append(centers[c] + self.noise * rng.standard_normal((k, self.dim)))
            ys.append(np.full(k, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)


@dataclass(frozen=True)
class PermutedEnvSpec:
    """Tasks built on a shared base dataset, differing by a permutation.

    mode "permute_labels" permutes the label space per task; mode
    "shuffle_features" permutes a fixed subset of num_shuffled coordinates
    per task.
    """

    base: BlobsSpec = field(default_factory=BlobsSpec)
    mode: str = "permute_labels"
    num_shuffled: int = 5

    def __post_init__(self):
        if self.mode not in ("permute_labels", "shuffle_features"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "shuffle_features" and not (
            0 < self.num_shuffled <= self.base.dim
        ):
            raise ValueError("num_shuffled must be in 1..dim")

    def shuffled_subset(self) -> np.ndarray:
        """The fixed coordinate subset that tasks permute (stable per base seed)."""
        rng = np.random.default_rng(self.base.seed + 1)
        return np.sort(rng.choice(self.base.dim, size=self.num_shuffled,
                                  replace=False))


@dataclass(frozen=True)
class Task:
    """A data distribution (spec plus per-task latent) and a drawn train set."""

    spec: object
    latent: np.ndarray
    train_x: np.ndarray
    train_y: np.ndarray

    @property
    def m(self) -> int:
        return self.train_x.shape[0]

    def draw(self, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Fresh i.i.d. samples from this task's distribution."""
        return _draw(self.spec, self.latent, k, rng)


def _sign_labels(x: np.ndarray, latents: np.ndarray) -> np.ndarray:
    """The sign-test labels 1(w*.x <= 0) of inputs (..., k, d) under latents
    w* (..., d): one matmul, the same gemv call per task as ``x @ latent``."""
    return (np.matmul(x, latents[..., None])[..., 0] <= 0.0).astype(np.int64)


def draw_linear(latents: np.ndarray, k: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k fresh points (..., k, d) and labels (..., k) per linear task of
    latent (..., d), from one uniform call: the floats that drawing task
    after task gives."""
    x = rng.uniform(-1.0, 1.0, size=latents.shape[:-1] + (k, latents.shape[-1]))
    return x, _sign_labels(x, latents)


def _draw(spec, latent, k, rng):
    if isinstance(spec, LinearEnvSpec):
        return draw_linear(latent, k, rng)
    if isinstance(spec, PermutedEnvSpec):
        base_x, base_y = _base_cache(spec.base)
        idx = rng.integers(0, base_x.shape[0], size=k)
        if spec.mode == "permute_labels":
            perm = latent.astype(np.int64)
            return base_x[idx], perm[base_y[idx]]
        subset = spec.shuffled_subset()
        x = base_x[idx].copy()
        x[:, subset] = x[:, subset[latent.astype(np.int64)]]
        return x, base_y[idx]
    raise ValueError(f"invalid environment spec {type(spec).__name__}")


_BASE_CACHE: dict[BlobsSpec, tuple[np.ndarray, np.ndarray]] = {}


def _base_cache(base: BlobsSpec):
    if base not in _BASE_CACHE:
        _BASE_CACHE[base] = base.build()
    return _BASE_CACHE[base]


def sample_tasks(spec, n: int, m: int, rng: np.random.Generator) -> list[Task]:
    """Draw n independent tasks with m training samples each.

    Task after task draws its latent, then its inputs. A linear environment
    then maps all latents and labels all inputs at once, on stacked arrays.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if isinstance(spec, LinearEnvSpec):
        noise = np.empty((n, spec.d))
        x = np.empty((n, m, spec.d))
        for i in range(n):
            rng.standard_normal(out=noise[i])
            x[i] = rng.uniform(-1.0, 1.0, size=(m, spec.d))
        latents = spec.mu_tau + spec.sigma_tau * noise
        y = _sign_labels(x, latents)
        return [Task(spec, latents[i], x[i], y[i]) for i in range(n)]
    if not isinstance(spec, PermutedEnvSpec):
        raise ValueError(f"invalid environment spec {type(spec).__name__}")
    size = spec.base.num_classes if spec.mode == "permute_labels" else spec.num_shuffled
    tasks = []
    for _ in range(n):
        latent = rng.permutation(size).astype(np.float64)
        tasks.append(Task(spec, latent, *_draw(spec, latent, m, rng)))
    return tasks


@lru_cache(maxsize=None)
def _normal_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Points z_i and weights w_i, both read-only, of the Gauss-Hermite rule
    E f(Z) ~ sum_i w_i f(z_i) for Z ~ N(0, 1), exact for polynomials of
    degree below 2 * nodes.

    The points are the roots of p_nodes, the orthonormal Hermite polynomial
    of that degree, bracketed by sign changes on a grid and polished by
    Newton's method with p_n' = sqrt(n) p_(n-1); the weights are the
    Christoffel numbers 1 / sum_(k < nodes) p_k(z_i)^2. Unlike
    numpy.polynomial's hermgauss, this imports nothing and calls no
    eigenvalue solver, which would cost the process memory.
    """
    def hermite(z):
        """p_(nodes-1)(z), p_nodes(z) and sum_(k < nodes) p_k(z)^2, by the
        three-term recurrence."""
        prev, cur, squares = np.zeros_like(z), np.ones_like(z), np.zeros_like(z)
        for k in range(nodes):
            squares += cur * cur
            prev, cur = cur, (z * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
        return prev, cur, squares

    # the roots lie within sqrt(4 nodes + 2) of 0 and at least 1 / sqrt(nodes)
    # apart, so each grid cell holds at most one, and Newton converges from
    # the cells' midpoints in a few steps
    reach = 2.0 * math.sqrt(nodes) + 1.0
    grid = np.linspace(-reach, reach, 20 * nodes + 1)
    top = hermite(grid)[1]
    left = np.flatnonzero(np.signbit(top[:-1]) != np.signbit(top[1:]))
    points = 0.5 * (grid[left] + grid[left + 1])
    for _ in range(6):
        below, top, _ = hermite(points)
        points = points - top / (math.sqrt(nodes) * below)
    weights = 1.0 / hermite(points)[2]
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def _linear_point_risks(model: StochasticModel, x: np.ndarray, y: np.ndarray,
                        loss: LossSpec) -> np.ndarray:
    """(B,) expected losses of a linear model on its B points, over the
    weights: the score of x is N(m, sd^2) with m = mu.x and sd^2 =
    sum_j sigma_j^2 x_j^2. The 0-1 loss is the normal tail Phi((2y - 1) m / sd),
    or the 0-1 loss of m where sd is 0; a clipped loss is the weighted sum
    of its values at the Gauss-Hermite scores m + sd * z_i. y must hold
    labels in {0, 1}."""
    _check_labels(model.arch, y)
    post = model.posterior
    mean = scores_batch(model.arch, post.mean, x)
    sd = np.sqrt(scores_batch(model.arch, post.var, x * x))
    if loss.kind == "zero_one":
        spread = sd > 0.0
        tail = normal_cdf(mean / np.where(spread, sd, 1.0) * (2.0 * y - 1.0))
        return np.where(spread, tail, predicted_labels(model.arch, mean) != y)
    points, weights = _normal_rule(QUADRATURE_NODES)
    losses, _ = _clipped_loss(loss, model.arch, points[:, None] * sd + mean, y)
    losses *= weights[:, None]
    return np.add.reduce(losses, axis=0)


def true_risks_mc(tasks: list[Task], models: list[StochasticModel], loss: LossSpec,
                  n_eval: int, rngs: list[np.random.Generator], *,
                  mc_samples: int) -> list[tuple[float, float]]:
    """Estimate of the true risk of ``models[i]`` on ``tasks[i]``, with its
    standard error, for every task.

    Averages the loss over n_eval fresh samples. Over the weights, a linear
    model's loss is exact (0-1) or a ``QUADRATURE_NODES``-point quadrature
    (clipped logistic) per sample, so the standard error is the sample
    spread alone. An mlp1 model's loss is averaged over mc_samples
    posterior weight draws, and its standard error combines both noise
    sources (sample spread at fixed weights, weight spread at fixed
    samples). Task i draws its samples, then any weights, from ``rngs[i]``;
    one generator passed for every task is drawn from task after task. A
    label outside the model's classes raises ValueError.
    """
    if n_eval < 1 or mc_samples < 1:
        raise ValueError("n_eval and mc_samples must be >= 1")
    if not len(tasks) == len(models) == len(rngs):
        raise ValueError("need one model and one generator per task")
    estimates = []
    for task, model, rng in zip(tasks, models, rngs):
        x, y = task.draw(n_eval, rng)
        var_w = 0.0
        if model.arch.kind == "linear":
            per_sample = _linear_point_risks(model, x, y, loss)
        else:
            vals = _mc_losses(model, x, y, loss, mc_samples, rng)
            per_sample = vals.mean(axis=0)
            if mc_samples > 1:
                var_w = float(vals.mean(axis=1).var(ddof=1)) / mc_samples
        risk = float(per_sample.mean())
        var_x = float(per_sample.var(ddof=1)) / n_eval if n_eval > 1 else 0.0
        estimates.append((risk, float(np.sqrt(var_x + var_w))))
    return estimates


def true_risk_mc(task: Task, model: StochasticModel, loss: LossSpec,
                 n_eval: int, rng: np.random.Generator,
                 mc_samples: int = 1000) -> tuple[float, float]:
    """:func:`true_risks_mc` for one task: the risk estimate and its
    standard error."""
    [estimate] = true_risks_mc([task], [model], loss, n_eval, [rng], mc_samples=mc_samples)
    return estimate
