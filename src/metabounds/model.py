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
from functools import cached_property, lru_cache

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

    @cached_property
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


# The one clipped loss each architecture's scores take, and so the loss it
# trains with: logistic for a linear score, cross-entropy for mlp1 logits.
CLIPPED_LOSS = {"linear": "logistic_clipped", "mlp1": "cross_entropy_clipped"}


def _check_clipped_loss(arch: ModelArchitecture, loss: LossSpec) -> None:
    if loss.kind != CLIPPED_LOSS[arch.kind]:
        raise ValueError(f"the {arch.kind} architecture takes the {CLIPPED_LOSS[arch.kind]} "
                         f"loss, not {loss.kind}")


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
    if flat_w.ndim < 1 or flat_w.shape[-1] != arch.param_count:
        raise ValueError(f"expected flat vector of length {arch.param_count}, got {flat_w.shape}")
    lead = flat_w.shape[:-1] + (x.shape[0],)
    if arch.kind == "linear":
        return np.matmul(flat_w, x.T, out=_buffer(buffers, "scores", lead))
    w1, b1, w2, b2 = (flat_w[..., span].reshape(flat_w.shape[:-1] + shape)
                      for _, span, shape in block_layout(arch))
    h = np.matmul(x, w1, out=_buffer(buffers, "hidden", lead + (arch.hidden_dim,)))
    h += b1[..., None, :]
    np.tanh(h, out=h)
    out = np.matmul(h, w2, out=_buffer(buffers, "scores", lead + (arch.num_classes,)))
    out += b2[..., None, :]
    return out


def _class_max(z: np.ndarray) -> np.ndarray:
    """Maximum over the last (class) axis, one ``np.maximum`` per class.

    numpy reduces a short last axis with one inner loop per row, which on a
    training step's logits costs several times these column calls. The
    result equals ``np.maximum.reduce(z, axis=-1)`` bit for bit, except that
    from 9 classes on a maximum tied between -0.0 and +0.0 may take the other
    sign; the losses only subtract it and exponentiate, where that sign
    vanishes. Class sums stay ``np.add.reduce``: column sums round
    differently from 8 classes on.
    """
    out = z[..., 0]
    for c in range(1, z.shape[-1]):
        out = np.maximum(out, z[..., c])
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

    The logistic branch repeats the float operations of the reference
    ``softplus`` in ``tests/oracles.py``, relu(t) + log(exp(-|t|) + 1), so
    before the clip its losses equal that op's values bit for bit; it holds
    one scratch array of s's shape for the relu, ``buffers["relu"]``.
    """
    _check_clipped_loss(arch, loss)
    if loss.kind == "logistic_clipped":
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
        if s.ndim < 2:
            raise ValueError("cross-entropy expects logit rows")
        s -= _class_max(s)[..., None]
        labels = np.broadcast_to(y, s.shape[:-1])[..., None]
        picked = np.take_along_axis(s, labels, axis=-1)[..., 0]
        raw = np.add.reduce(np.exp(s, out=s), axis=-1)
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
    mean = np.zeros(arch.param_count)
    for _, span, shape in block_layout(arch):
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            mean[span] = rng.uniform(-limit, limit, size=shape).ravel()
        elif arch.kind == "linear":
            limit = np.sqrt(6.0 / (shape[0] + 1))
            mean[span] = rng.uniform(-limit, limit, size=shape)
    log_var = rng.normal(-10.0, 0.1, size=arch.param_count)
    return DiagonalGaussian(mean, log_var)


# The tape-side risk. It mirrors the numpy path above but takes the
# posterior parameters as a node, so that bound objectives are differentiable
# through them (pathwise, with the noise draws held fixed per step). Weight
# draws carry a draw axis in front of the flat weight vector, and optionally
# a task axis in front of that, so one tape serves every task and every draw.


def _row_sum(g: np.ndarray) -> np.ndarray:
    """Adjoint of an operand broadcast along the second-to-last axis: g summed
    over that axis, kept, as ``diff`` unbroadcasts it; g itself when that axis
    has length 1."""
    return g if g.shape[-2] == 1 else np.add.reduce(g, axis=(g.ndim - 2,), keepdims=True)


def taped_mc_risk(arch: ModelArchitecture, q, x: np.ndarray, y: np.ndarray,
                  loss: LossSpec, eps: np.ndarray):
    """Empirical risk averaged over fixed reparametrization draws, as one
    node whose only parent is q.

    q is the stacked posterior node, d weight means then d log-variances:
    (2d,) for one task with eps (K, d) for K draws, x (B, in) and y (B,); or
    (n, 2d) for n stacked tasks with eps (n, K, d), x (n, B, in), y (n, B)
    and one risk per task as the result. eps must be finite and is checked;
    x and y must be too, and y must hold class indices in [0, C), but a
    training run checks its data once, not here.
    zero_one has no usable gradient and is rejected, as is a clipped loss
    that is not ``CLIPPED_LOSS[arch.kind]``.

    Value and adjoint repeat, in the same order, the float operations of the
    chain of reference ops in ``tests/oracles.py``: ``reparam``, the forward
    pass (``draws @ x^T`` with x^T contiguous, or ``tanh(x @ w1 + b1) @ w2 +
    b2`` on the four blocks ``slice`` cuts from the draws), ``softplus`` of
    the scores times ``2y - 1`` or ``softmax_cross_entropy``,
    ``clip_rescale`` and ``mean`` over the draw and sample axes, so node and
    chain agree bit for bit. The chain adds the four blocks' adjoints, each
    zero-filled to the draws' shape; here they tile one array, each entry
    plus 0.0 as in that sum.
    """
    if loss.kind == "zero_one":
        raise ValueError(f"loss kind {loss.kind!r} is not differentiable")
    _check_clipped_loss(arch, loss)
    eps = diff.constant(eps)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    d = arch.param_count
    if not (q.shape[-1] == 2 * d and eps.ndim == x.ndim == len(q.shape) + 1
            and eps.shape[:-2] == x.shape[:-2] == q.shape[:-1] and eps.shape[-1] == d
            and x.shape[-1] == arch.input_dim and y.shape == x.shape[:-1]):
        raise ValueError(f"shapes do not match: q {q.shape}, eps {eps.shape}, "
                         f"x {x.shape}, y {y.shape}")
    rows = q.value[..., None, :]
    std = np.exp(rows[..., d:] * 0.5)
    draws = rows[..., :d] + std * eps
    labels = y[..., None, :]
    if arch.kind == "linear":
        # x^T contiguous, so that BLAS sums in the same order as for a copied leaf
        xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
        signs = 2.0 * labels - 1.0
        # the class-0 logit is the score, the class-1 logit is 0
        t = (draws @ xt) * signs
        pos = t > 0.0
        neg = t < 0.0
        relu_t = np.maximum(t, 0.0)
        # abs(t) is the reference's relu(t) + relu(-t), bit for bit
        shrink = np.exp(np.negative(np.abs(t)))
        one_plus = shrink + 1.0
        raw = relu_t + np.log(one_plus)
    else:
        lead = draws.shape[:-1]
        w1, b1, w2, b2 = (draws[..., span].reshape(lead + (1,) * (2 - len(shape)) + shape)
                          for _, span, shape in block_layout(arch))
        xs = x[..., None, :, :]
        h = np.tanh(xs @ w1 + b1)
        logits = h @ w2 + b2
        shifted = logits - _class_max(logits)[..., None]
        lse = np.log(np.add.reduce(np.exp(shifted), axis=-1))
        onehot = labels[..., None] == np.arange(arch.num_classes)
        # the label's entry, one class column at a time (see _class_max); the
        # run checked every label before its first step
        picked = shifted[..., 0].copy()
        for k in range(1, arch.num_classes):
            np.copyto(picked, shifted[..., k], where=onehot[..., k])
        raw = lse - picked
        residual = np.exp(shifted - lse[..., None]) - onehot
    c = loss.clip_max
    scale = 1.0 / c
    # c - v is the reference's v * -1 + c, bit for bit
    gap = c - raw
    below = gap > 0.0
    clipped = (c - np.where(below, gap, 0.0)) * scale
    total = np.add.reduce(clipped, axis=(-2, -1))
    count = clipped.size // total.size

    def vjp(g):
        g_raw = (g / count * scale)[..., None, None] * below
        if arch.kind == "linear":
            g_abs = g_raw / one_plus * shrink * -1.0
            g_t = np.where(t == 0.0, g_raw * 0.5,
                           g_raw * pos + g_abs * neg * -1.0 + g_abs * pos)
            g_draws = (g_t * signs) @ xt.swapaxes(-1, -2)
        else:
            g_logits = residual * g_raw[..., None]
            g_z = g_logits @ w2.swapaxes(-1, -2) * (1.0 - h * h)
            g_blocks = (xs.swapaxes(-1, -2) @ g_z, _row_sum(g_z),
                        h.swapaxes(-1, -2) @ g_logits, _row_sum(g_logits))
            g_draws = np.concatenate([g_block.reshape(lead + (-1,)) for g_block in g_blocks],
                                     axis=-1)
            g_draws += 0.0
        return (np.concatenate([_row_sum(g_draws), _row_sum(g_draws * eps) * std * 0.5],
                               axis=-1).reshape(q.shape),)

    return diff.Tensor(q.tape, np.asarray(total / count), (q,), vjp)
