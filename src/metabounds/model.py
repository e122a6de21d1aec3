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
        # an infinite clip would rescale every loss to 0, a NaN one to NaN
        if not 0.0 < self.clip_max < math.inf:
            raise ValueError("clip_max must be positive and finite")


def _buffer(buffers: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 array ``buffers[name]`` of ``shape``, made on first use
    and made again when the shape asked for changes."""
    buf = buffers.get(name)
    if buf is None or buf.shape != shape:
        buf = buffers[name] = np.empty(shape)
    return buf


def scores_batch(arch: ModelArchitecture, flat_w: np.ndarray, x: np.ndarray,
                 buffers: dict | None = None) -> np.ndarray:
    """Scores for a batch of inputs under one weight vector or a stack of them.

    flat_w is (d,) or (K, d). Returns (B,) raw scores for linear and (B, C)
    logits for mlp1, with a leading K axis when K weight vectors are given.
    The result is a new array, so the caller may overwrite it; with
    ``buffers`` it is ``buffers["scores"]`` instead, and the mlp1 hidden
    layer ``buffers["hidden"]``, reused by the next call of the same shapes.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"inputs must be (B, {arch.input_dim}), got {x.shape}")
    buffers = {} if buffers is None else buffers
    flat_w = np.asarray(flat_w)
    blocks = split_flat(arch, flat_w)
    lead = flat_w.shape[:-1] + (x.shape[0],)
    if arch.kind == "linear":
        return np.matmul(blocks["w"], x.T, out=_buffer(buffers, "scores", lead))
    h = np.matmul(x, blocks["w1"], out=_buffer(buffers, "hidden", lead + (arch.hidden_dim,)))
    h += blocks["b1"][..., None, :]
    np.tanh(h, out=h)
    out = np.matmul(h, blocks["w2"], out=_buffer(buffers, "scores", lead + (arch.num_classes,)))
    out += blocks["b2"][..., None, :]
    return out


def predicted_labels(arch: ModelArchitecture, scores: np.ndarray) -> np.ndarray:
    """Decision rule on raw scores: sign test for linear, argmax for mlp1."""
    if arch.kind == "linear":
        return (scores <= 0.0).astype(np.int64)
    return np.argmax(scores, axis=-1)


def loss_values(loss: LossSpec, arch: ModelArchitecture,
                scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample losses in [0, 1] for raw scores against integer labels.

    scores may carry leading axes in front of the sample axis (for example
    one row per weight draw); y broadcasts against the sample axis. scores
    is left as it is: a clipped loss is computed in a copy of its own.
    """
    y = np.asarray(y)
    if loss.kind == "zero_one":
        return (predicted_labels(arch, scores) != y).astype(np.float64)
    return _clipped_loss_in_place(loss, arch, np.array(scores, dtype=np.float64), y, {})


def _clipped_loss_in_place(loss: LossSpec, arch: ModelArchitecture,
                           s: np.ndarray, y: np.ndarray, buffers: dict) -> np.ndarray:
    """The clipped logistic or cross-entropy loss of the float64 scores s,
    which this overwrites: the logistic losses are s itself, cross-entropy
    leaves the exponentials of its shifted logits in s.

    The logistic branch repeats ``diff.softplus``'s float operations,
    relu(t) + log(exp(-|t|) + 1), so before the clip its losses equal that
    node's values bit for bit; it holds one scratch array of s's shape for
    the relu, ``buffers["relu"]``.
    """
    if loss.kind == "logistic_clipped":
        if arch.kind != "linear":
            raise ValueError("logistic loss applies to the linear architecture")
        # class-0 logit is the score, class-1 logit is 0
        s *= 2.0 * y - 1.0
        relu = np.maximum(s, 0.0, out=_buffer(buffers, "relu", s.shape))
        np.abs(s, out=s)
        s *= -1.0
        np.exp(s, out=s)
        s += 1.0
        raw = np.log(s, out=s)
        raw += relu
    else:
        if arch.kind != "mlp1" or s.ndim < 2:
            raise ValueError("cross-entropy expects logit rows")
        s -= s.max(axis=-1, keepdims=True)
        labels = np.broadcast_to(y, s.shape[:-1])[..., None]
        picked = np.take_along_axis(s, labels, axis=-1)[..., 0]
        raw = np.exp(s, out=s).sum(axis=-1)
        np.log(raw, out=raw)
        raw -= picked
    np.minimum(raw, loss.clip_max, out=raw)
    raw /= loss.clip_max
    return raw


def _mc_losses(model: StochasticModel, x: np.ndarray, y: np.ndarray,
               loss: LossSpec, mc_samples: int, rng: np.random.Generator,
               buffers: dict) -> np.ndarray:
    """(K, B) losses of K = mc_samples fresh posterior draws on the B inputs.

    The draws are mean + std * N(0, 1) of shape (K, d), taken from rng here.
    The scores go into ``buffers``, so a clipped loss overwrites them: one
    K x B buffer, plus one K x B scratch buffer for the logistic relu (for
    mlp1 one K x B x hidden buffer and one K x B x classes buffer). A
    clipped loss is returned in the scores buffer, so it is valid until the
    next call with the same ``buffers``.
    """
    post = model.posterior
    draws = post.mean + post.std * rng.standard_normal((mc_samples, post.dim))
    scores = scores_batch(model.arch, draws, x, buffers)
    if loss.kind == "zero_one":
        return loss_values(loss, model.arch, scores, y)
    return _clipped_loss_in_place(loss, model.arch, scores, np.asarray(y), buffers)


def mc_empirical_risk(model: StochasticModel, x: np.ndarray, y: np.ndarray,
                      loss: LossSpec, mc_samples: int,
                      rng: np.random.Generator) -> float:
    """Average loss over the dataset and mc_samples posterior weight draws."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    return float(_mc_losses(model, x, y, loss, mc_samples, rng, {}).mean())


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
# noise enter as constant arrays. Weight draws carry a draw axis in front of
# the flat weight vector, and optionally a task axis in front of that, so one
# tape serves every task and every draw.


def taped_scores(arch: ModelArchitecture, draws, x: np.ndarray):
    """Forward pass with the flat weight draws as a node; x enters as a
    constant.

    draws is (..., K, d) for K draws; x is (B, in), or (n, B, in) when the
    draws carry a leading task axis of n. Returns (..., K, B) scores for
    linear and (..., K, B, C) logits for mlp1.
    """
    x = np.asarray(x, dtype=np.float64)
    if arch.kind == "linear":
        # the one block is the whole vector; x contiguous, so that BLAS sums
        # in the same order as for a copied leaf
        return diff.matmul(draws, np.ascontiguousarray(np.swapaxes(x, -1, -2)))
    lead = draws.shape[:-1]
    # biases are cut to (..., K, 1, width), broadcasting over the samples
    w1, b1, w2, b2 = (diff.slice(draws, (Ellipsis, span), lead + (1,) * (2 - len(shape)) + shape)
                      for _, span, shape in block_layout(arch))
    h = diff.tanh(diff.matmul(x[..., None, :, :], w1) + b1)
    return diff.matmul(h, w2) + b2


def taped_loss(arch: ModelArchitecture, loss: LossSpec, scores, y: np.ndarray):
    """Mean clipped loss over the draw and sample axes of the scores from
    taped_scores: a scalar node, or one entry per task when the scores carry
    a task axis (then y is (n, B)). zero_one has no usable gradient and is
    rejected here."""
    y = np.asarray(y)[..., None, :]
    if loss.kind == "logistic_clipped":
        raw = diff.softplus(scores * (2.0 * y - 1.0))
    elif loss.kind == "cross_entropy_clipped":
        raw = diff.softmax_cross_entropy(scores, y)
    else:
        raise ValueError(f"loss kind {loss.kind!r} is not differentiable")
    return diff.mean(diff.clip_rescale(raw, loss.clip_max), axis=(-2, -1))


def taped_mc_risk(arch: ModelArchitecture, q, x: np.ndarray, y: np.ndarray,
                  loss: LossSpec, eps: np.ndarray):
    """Empirical risk averaged over fixed reparametrization draws.

    q is the stacked posterior node, d weight means then d log-variances:
    (2d,) for one task with eps (K, d) for K draws, or (n, 2d) for n stacked
    tasks with eps (n, K, d), x (n, B, in), y (n, B) and one risk per task
    as the result. The draws are one ``diff.reparam`` node; all draws share
    one tape pass.
    """
    return taped_loss(arch, loss, taped_scores(arch, diff.reparam(q, eps), x), y)
