"""Stochastic models with Gaussian weight posteriors and bounded losses.

Two architectures: a linear score classifier (binary, label 1 when the
score is nonpositive) and a one-hidden-layer tanh network with softmax
outputs. Weights are drawn from a diagonal Gaussian posterior over the
flattened parameter vector. Losses are clipped and rescaled into [0, 1],
which is what the generalization bounds require of the loss they certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diff
from .gauss import DiagonalGaussian


@dataclass(frozen=True)
class ModelArchitecture:
    """Shape description of the hypothesis family."""

    kind: str
    input_dim: int
    num_classes: int = 2
    hidden_dim: int | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "mlp1"):
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 1:
            raise ValueError("dimensions must be positive")
        if self.kind == "linear":
            if self.hidden_dim is not None:
                raise ValueError("linear architecture takes no hidden_dim")
            if self.num_classes != 2:
                raise ValueError("linear architecture is binary (num_classes 2)")
        else:
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ValueError("mlp1 requires a positive hidden_dim")

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Named parameter blocks, in flattening order."""
        if self.kind == "linear":
            return [("w", (self.input_dim,))]
        h, c = self.hidden_dim, self.num_classes
        return [
            ("w1", (self.input_dim, h)),
            ("b1", (h,)),
            ("w2", (h, c)),
            ("b2", (c,)),
        ]

    @property
    def param_count(self) -> int:
        return sum(math.prod(s) for _, s in self.layer_shapes())


@lru_cache(maxsize=None)
def block_layout(arch: ModelArchitecture) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    """Each named block with its span in the flat vector and its shape."""
    out = []
    pos = 0
    for name, shape in arch.layer_shapes():
        size = math.prod(shape)
        out.append((name, slice(pos, pos + size), shape))
        pos += size
    return tuple(out)


def split_flat(arch: ModelArchitecture, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Cut flat parameter vectors into the architecture's named blocks.

    The last axis of ``flat`` is the flat vector; any leading axes (draws,
    tasks) are kept in front of each block's shape.
    """
    flat = np.asarray(flat)
    if flat.ndim < 1 or flat.shape[-1] != arch.param_count:
        raise ValueError(
            f"expected flat vector of length {arch.param_count}, got {flat.shape}"
        )
    lead = flat.shape[:-1]
    return {name: flat[..., span].reshape(lead + shape)
            for name, span, shape in block_layout(arch)}


def join_flat(arch: ModelArchitecture, blocks: dict[str, np.ndarray]) -> np.ndarray:
    """Inverse of split_flat."""
    return np.concatenate(
        [np.asarray(blocks[name]).ravel() for name, _ in arch.layer_shapes()]
    )


@dataclass(frozen=True)
class StochasticModel:
    """An architecture together with a posterior over its flat weights."""

    arch: ModelArchitecture
    posterior: DiagonalGaussian

    def __post_init__(self):
        if self.posterior.dim != self.arch.param_count:
            raise ValueError(
                f"posterior dimension {self.posterior.dim} does not match "
                f"parameter count {self.arch.param_count}"
            )


@dataclass(frozen=True)
class LossSpec:
    """A [0, 1]-valued loss: raw losses are clipped at clip_max and rescaled."""

    kind: str
    clip_max: float = 4.0

    def __post_init__(self):
        if self.kind not in ("zero_one", "logistic_clipped", "cross_entropy_clipped"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.clip_max <= 0.0:
            raise ValueError("clip_max must be positive")


def scores_batch(arch: ModelArchitecture, flat_w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Scores for a batch of inputs under one weight vector or a stack of them.

    flat_w is (d,) or (K, d). Returns (B,) raw scores for linear and (B, C)
    logits for mlp1, with a leading K axis when K weight vectors are given.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"inputs must be (B, {arch.input_dim}), got {x.shape}")
    blocks = split_flat(arch, flat_w)
    if arch.kind == "linear":
        return blocks["w"] @ x.T
    h = np.tanh(x @ blocks["w1"] + blocks["b1"][..., None, :])
    return h @ blocks["w2"] + blocks["b2"][..., None, :]


def predicted_labels(arch: ModelArchitecture, scores: np.ndarray) -> np.ndarray:
    """Decision rule on raw scores: sign test for linear, argmax for mlp1."""
    if arch.kind == "linear":
        return (scores <= 0.0).astype(np.int64)
    return np.argmax(scores, axis=-1)


def loss_values(loss: LossSpec, arch: ModelArchitecture,
                scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample losses in [0, 1] for raw scores against integer labels.

    scores may carry leading axes in front of the sample axis (for example
    one row per weight draw); y broadcasts against the sample axis.
    """
    y = np.asarray(y)
    if loss.kind == "zero_one":
        return (predicted_labels(arch, scores) != y).astype(np.float64)
    if loss.kind == "logistic_clipped":
        if arch.kind != "linear":
            raise ValueError("logistic loss applies to the linear architecture")
        # class-0 logit is the score, class-1 logit is 0
        t = (2.0 * y - 1.0) * scores
        raw = np.logaddexp(0.0, t)
    else:
        if arch.kind != "mlp1" or scores.ndim < 2:
            raise ValueError("cross-entropy expects logit rows")
        shifted = scores - scores.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1))
        labels = np.broadcast_to(y, shifted.shape[:-1])[..., None]
        raw = lse - np.take_along_axis(shifted, labels, axis=-1)[..., 0]
    return np.minimum(raw, loss.clip_max) / loss.clip_max


def mc_empirical_risk(model: StochasticModel, x: np.ndarray, y: np.ndarray,
                      loss: LossSpec, mc_samples: int,
                      rng: np.random.Generator) -> float:
    """Average loss over the dataset and mc_samples posterior weight draws."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    post = model.posterior
    eps = rng.standard_normal((mc_samples, post.dim))
    draws = post.mean + post.std * eps
    return float(loss_values(loss, model.arch, scores_batch(model.arch, draws, x), y).mean())


def glorot_init(arch: ModelArchitecture, rng: np.random.Generator) -> DiagonalGaussian:
    """Posterior initialization: Glorot-uniform means, noisy small log-variances.

    Weight matrices use the uniform fan rule limit sqrt(6 / (fan_in +
    fan_out)); biases start at zero. Every log-variance is an independent
    N(-10, 0.1^2) draw, i.e. initial per-weight variance near 4.5e-5.
    """
    means = {}
    for name, shape in arch.layer_shapes():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            means[name] = rng.uniform(-limit, limit, size=shape)
        elif arch.kind == "linear":
            limit = np.sqrt(6.0 / (shape[0] + 1))
            means[name] = rng.uniform(-limit, limit, size=shape)
        else:
            means[name] = np.zeros(shape)
    mean = join_flat(arch, means)
    log_var = rng.normal(-10.0, 0.1, size=arch.param_count)
    return DiagonalGaussian(mean, log_var)


# Tape-side builders. These mirror the numpy paths above but take the
# posterior parameters as nodes so that bound objectives are differentiable
# through them (pathwise, with the noise draws held fixed per step); data and
# noise enter as constant arrays. Weight blocks carry a draw axis in front of
# the block shape, and optionally a task axis in front of that, so one tape
# serves every task and every draw.


def taped_weights(mean_nodes: dict, log_var_nodes: dict, eps: dict[str, np.ndarray]) -> dict:
    """Reparametrized weight draw per block: mean + exp(log_var / 2) * eps."""
    return {name: diff.reparam(mean_nodes[name], log_var_nodes[name], eps[name])
            for name in mean_nodes}


def _bias_row(b):
    """Insert the sample axis in front of a bias block's last axis."""
    return diff.slice(b, (Ellipsis, None, slice(None)))


def taped_scores(arch: ModelArchitecture, weights: dict, x: np.ndarray):
    """Forward pass with weight-block nodes; x enters as a constant.

    Weight blocks are (..., K, *block shape) for K draws; x is (B, in), or
    (n, B, in) when the blocks carry a leading task axis of n. Returns
    (..., K, B) scores for linear and (..., K, B, C) logits for mlp1.
    """
    x = np.asarray(x, dtype=np.float64)
    if arch.kind == "linear":
        # contiguous, so that BLAS sums in the same order as for a copied leaf
        return diff.matmul(weights["w"], np.ascontiguousarray(np.swapaxes(x, -1, -2)))
    h = diff.tanh(diff.matmul(x[..., None, :, :], weights["w1"]) + _bias_row(weights["b1"]))
    return diff.matmul(h, weights["w2"]) + _bias_row(weights["b2"])


def taped_loss(arch: ModelArchitecture, loss: LossSpec, scores, y: np.ndarray):
    """Mean clipped loss over the draw and sample axes of the scores from
    taped_scores: a scalar node, or one entry per task when the scores carry
    a task axis (then y is (n, B)). zero_one has no usable gradient and is
    rejected here."""
    y = np.asarray(y)[..., None, :]
    if loss.kind == "logistic_clipped":
        t = scores * (2.0 * y - 1.0)
        # softplus(t) = relu(t) + log(1 + exp(-|t|)), overflow-free
        abs_t = diff.relu(t) + diff.relu(-t)
        raw = diff.relu(t) + diff.log(diff.exp(-abs_t) + 1.0)
    elif loss.kind == "cross_entropy_clipped":
        raw = diff.softmax_cross_entropy(scores, y)
    else:
        raise ValueError(f"loss kind {loss.kind!r} is not differentiable")
    c = loss.clip_max
    clipped = (diff.relu((-raw) + c) * (-1.0) + c) * (1.0 / c)
    return diff.mean(clipped, axis=(-2, -1))


def taped_mc_risk(arch: ModelArchitecture, mean_nodes: dict, log_var_nodes: dict,
                  x: np.ndarray, y: np.ndarray, loss: LossSpec,
                  eps_draws: list[dict[str, np.ndarray]]):
    """Empirical risk averaged over fixed reparametrization draws.

    Each draw maps block names to noise of the block's shape, or of (n,
    *block shape) for n stacked tasks; then the mean and log-variance nodes
    are (n, 1, *block shape), x is (n, B, in), y is (n, B) and the result
    holds one risk per task. All draws share one tape pass.
    """
    eps = {
        name: np.stack([draw[name] for draw in eps_draws], axis=-len(shape) - 1)
        for name, shape in arch.layer_shapes()
    }
    weights = taped_weights(mean_nodes, log_var_nodes, eps)
    return taped_loss(arch, loss, taped_scores(arch, weights, x), y)
