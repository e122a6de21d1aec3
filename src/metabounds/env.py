"""Synthetic task environments: task sampling and a true-risk oracle.

Three families. The linear environment draws a task weight vector w* from
an isotropic Gaussian and labels uniform inputs by the sign test
y = 1(w*.x <= 0). The permuted-labels and shuffled-features environments
share a fixed small Gaussian-blobs dataset; tasks differ by a uniformly
drawn label permutation, or by a permutation of a fixed coordinate
subset. The oracle estimates the unobservable true risk of a stochastic
model on a task by fresh sampling.

The oracle draws a task's B = n_eval inputs first and its K = mc_samples
weight vectors second, from the same generator. A clipped loss is computed
in place in the K x B buffer of linear scores (320 KB at K = B = 200); the
logistic loss repeats the float operations of the reference ``softplus``
in ``tests/oracles.py`` and holds one more K x B scratch buffer for its
relu. The 0-1 loss is one new K x B array. For mlp1 the forward pass holds one K x B x hidden buffer and one
K x B x classes buffer of logits. One oracle call makes these buffers once
and reuses them for each of its tasks, so scoring many tasks in one call
does not fault fresh pages in per task (arrays this large are
memory-mapped anew by the allocator); they are freed when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import LossSpec, StochasticModel, _mc_losses


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


def _draw(spec, latent, k, rng):
    if isinstance(spec, LinearEnvSpec):
        x = rng.uniform(-1.0, 1.0, size=(k, spec.d))
        y = (x @ latent <= 0.0).astype(np.int64)
        return x, y
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
    """Draw n independent tasks with m training samples each."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    tasks = []
    for _ in range(n):
        if isinstance(spec, LinearEnvSpec):
            latent = spec.mu_tau + spec.sigma_tau * rng.standard_normal(spec.d)
        elif isinstance(spec, PermutedEnvSpec):
            if spec.mode == "permute_labels":
                size = spec.base.num_classes
            else:
                size = spec.num_shuffled
            latent = rng.permutation(size).astype(np.float64)
        else:
            raise ValueError(f"invalid environment spec {type(spec).__name__}")
        x, y = _draw(spec, latent, m, rng)
        tasks.append(Task(spec, latent, x, y))
    return tasks


def true_risks_mc(tasks: list[Task], models: list[StochasticModel], loss: LossSpec,
                  n_eval: int, rngs: list[np.random.Generator], *,
                  mc_samples: int) -> list[tuple[float, float]]:
    """Monte-Carlo estimate of the true risk of ``models[i]`` on
    ``tasks[i]``, with its standard error, for every task.

    Averages the loss over n_eval fresh samples and mc_samples posterior
    weight draws. The reported standard error combines both noise sources
    (sample spread at fixed weights, weight spread at fixed samples).
    Task i draws its samples, then its weights, from ``rngs[i]``; one
    generator passed for every task is drawn from task after task. The
    tasks share one set of loss buffers, freed when the call returns.
    """
    if n_eval < 1 or mc_samples < 1:
        raise ValueError("n_eval and mc_samples must be >= 1")
    if not len(tasks) == len(models) == len(rngs):
        raise ValueError("need one model and one generator per task")
    buffers = {}
    estimates = []
    for task, model, rng in zip(tasks, models, rngs):
        x, y = task.draw(n_eval, rng)
        vals = _mc_losses(model, x, y, loss, mc_samples, rng, buffers)
        per_sample = vals.mean(axis=0)
        per_draw = vals.mean(axis=1)
        risk = float(per_sample.mean())
        var_x = float(per_sample.var(ddof=1)) / n_eval if n_eval > 1 else 0.0
        var_w = float(per_draw.var(ddof=1)) / mc_samples if mc_samples > 1 else 0.0
        estimates.append((risk, float(np.sqrt(var_x + var_w))))
    return estimates


def true_risk_mc(task: Task, model: StochasticModel, loss: LossSpec,
                 n_eval: int, rng: np.random.Generator,
                 mc_samples: int = 1000) -> tuple[float, float]:
    """:func:`true_risks_mc` for one task: the risk estimate and its
    standard error."""
    [estimate] = true_risks_mc([task], [model], loss, n_eval, [rng], mc_samples=mc_samples)
    return estimate
