"""Tape-based reverse-mode automatic differentiation over real tensors.

Deliberately minimal: exactly the operations the bound objectives need
(broadcasting elementwise arithmetic, batched matmul, full and axis-wise
reductions, slicing, exp/log/sqrt/tanh, a stable softmax cross-entropy),
recorded on an explicit tape whose node order is a topological order by
construction. backward() is one reverse pass over that list. Everything is
float64; a finite-difference gradcheck is included as the accompanying
oracle.

The cost of a step is Python overhead per node, not flops: the arrays are
tiny. So the certificates' hot chains are fused into single nodes: the
diagonal-Gaussian divergence ``gaussian_kl`` here, the Monte-Carlo risk
``model.taped_mc_risk`` (reparametrized draws, forward pass, loss, clip and
mean), and each certificate's arithmetic in ``metalearn``. A diagonal
Gaussian enters both of its nodes in one layout, a stacked row of d means
then d log-variances, so no step slices off the halves as nodes of their
own. Each fused node repeats, in the same order, the float operations of
the chain of ops it stands for, adjoint accumulation included, so a fused
tape and the chain agree bit for bit. The ops of those chains that no
training step calls any more (``reparam``, ``slice``, ``tanh``,
``softplus``, ``softmax_cross_entropy``, ``clip_rescale``, ``mean``) stay
here: the tests build the reference chains from them. For the same
reason the ops reduce with ufunc methods (``np.add.reduce`` rather than
``ndarray.sum``) and read ``.shape`` rather than ``np.shape``: numpy's
Python-level wrappers would add Python calls per node for the same floats.

Only what is differentiated is a node. ``add``, ``sub``, ``mul`` and
``matmul`` take a constant on either side, a number or an ndarray (data,
noise draws, fixed priors); the resulting node has only its Tensor operand
as parent and no adjoint is computed for the constant. Constant arrays are
not copied and, like leaves, must be finite; numbers pass as they are.

Every Tensor refers to its tape and an open tape lists its nodes, so a
step's graph is a reference cycle. Run each step in ``with Tape() as
tape:``: leaving the block drops the node list, so the graph is freed by
reference counting, whether the block ends normally or by an exception. A
closed tape records nothing more; its nodes keep their values and the last
pass's adjoints. A tape used without ``with`` keeps its nodes while it lives.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


class Tape:
    """Append-only record of operations, in construction order; a context
    manager that releases the record when its block ends."""

    def __init__(self):
        # None once the tape is closed.
        self.nodes: list[Tensor] | None = []
        # Adjoints of the last backward pass, by node index.
        self.grads: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc_info) -> None:
        # the node list is the only reference from the tape to its nodes
        self.nodes = None

    def tensor(self, value) -> "Tensor":
        """Create a leaf node holding a copy of value."""
        return Tensor(self, _finite(np.array(value, dtype=np.float64)), (), None)


class Tensor:
    """A node on a Tape: an ndarray value plus how it was computed.

    parents holds the input nodes and vjp maps the adjoint of this node to
    adjoints of those parents. Leaves have no parents and no vjp.
    """

    __slots__ = ("tape", "idx", "value", "parents", "vjp")
    # numpy defers every operator with a Tensor operand to the Tensor's
    # reflected method, so ``ndarray * Tensor`` is a node and not an object
    # array of nodes
    __array_ufunc__ = None

    def __init__(self, tape: Tape, value: np.ndarray,
                 parents: tuple["Tensor", ...],
                 vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None):
        nodes = tape.nodes
        if nodes is None:
            raise ValueError("the tape is closed")
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.idx = len(nodes)
        nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        """Adjoint from the tape's last backward pass; zeros where that pass
        did not reach this node."""
        g = self.tape.grads.get(self.idx)
        return np.zeros_like(self.value) if g is None else g

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint over the axes along which an operand of ``shape`` was
    broadcast, so it comes back in the operand's own shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = np.add.reduce(g, axis=tuple(range(lead)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return np.add.reduce(g, axis=axes, keepdims=True) if axes else g


def constant(value):
    """A constant operand: a number as a float, anything else as a finite
    float64 array (not copied). Raises ValueError on a non-finite entry.
    Nodes built outside this module check their constants with it too."""
    if isinstance(value, (int, float)):
        return float(value)
    return _finite(np.asarray(value, dtype=np.float64))


def _operands(a, b):
    """Values of a binary op's operands: Tensors on one tape, or one Tensor
    and one constant."""
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            _same_tape(a, b)
            return a.value, b.value
        return a.value, constant(b)
    if not isinstance(b, Tensor):
        raise TypeError("at least one operand must be a Tensor")
    return constant(a), b.value


def _node(a, b, value, vjp_a, vjp_b) -> Tensor:
    """Node of a binary op whose adjoints vjp_a and vjp_b give. An operand
    that is no Tensor is a constant: no parent, and its vjp is never called."""
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return Tensor(a.tape, value, (a, b), lambda g: (vjp_a(g), vjp_b(g)))
        return Tensor(a.tape, value, (a,), lambda g: (vjp_a(g),))
    return Tensor(b.tape, value, (b,), lambda g: (vjp_b(g),))


# A vjp reads its operand's shape only when that operand is a Tensor, whose
# value is an ndarray or numpy scalar; a constant may be a plain float.


def add(a, b):
    """a + b under numpy broadcasting."""
    av, bv = _operands(a, b)
    return _node(a, b, av + bv, lambda g: _unbroadcast(g, av.shape),
                 lambda g: _unbroadcast(g, bv.shape))


def sub(a, b):
    """a - b under numpy broadcasting."""
    av, bv = _operands(a, b)
    return _node(a, b, av - bv, lambda g: _unbroadcast(g, av.shape),
                 lambda g: _unbroadcast(-g, bv.shape))


def mul(a, b):
    """Elementwise product under numpy broadcasting."""
    av, bv = _operands(a, b)
    return _node(a, b, av * bv, lambda g: _unbroadcast(g * bv, av.shape),
                 lambda g: _unbroadcast(g * av, bv.shape))


def reparam(q: Tensor, eps) -> Tensor:
    """Reparametrized draws from a diagonal Gaussian as one node.

    q is laid out as for gaussian_kl: d means then d log-variances, (2d,)
    for one Gaussian or (n, 2d) for a row per task. eps is constant
    (..., K, d) noise for K draws, against which each row broadcasts with a
    draw axis in front of its halves: the result is the (..., K, d) draws
    ``mean + exp(log_var * 0.5) * eps``. Value and adjoint repeat, in the
    same order, the float operations of that expression built from mul,
    exp, mul and add on the two (..., 1, d) halves sliced off q, so both
    agree with it bit for bit.
    """
    eps = constant(eps)
    d = q.shape[-1] // 2
    rows = q.value[..., None, :]
    mean, log_var = rows[..., :d], rows[..., d:]
    std = np.exp(log_var * 0.5)
    half = mean.shape
    return Tensor(q.tape, mean + std * eps, (q,), lambda g: (np.concatenate([
        _unbroadcast(g, half),
        _unbroadcast(g * eps, half) * std * 0.5,
    ], axis=-1).reshape(q.shape),))


def gaussian_kl(q: Tensor, p) -> Tensor:
    """KL of diagonal Gaussians, one value per row: (..., 2d) -> (...).

    Each row of q, and of p, holds d means then d log-variances; p is a node
    or a constant array and broadcasts against q, so a (2d,) prior serves
    every row of an (n, 2d) posterior. Value and adjoints repeat, in the same
    order, the float operations of the 12-op chain
    ``sum(exp(dlv) + dm * dm * exp(-p_lv) - dlv + (-1), axis=-1) * 0.5``
    with ``dlv = q_lv - p_lv`` and ``dm = q_mean - p_mean``.
    """
    prior_is_node = isinstance(p, Tensor)
    if prior_is_node:
        _same_tape(q, p)
    pv = p.value if prior_is_node else constant(p)
    d = q.shape[-1] // 2
    q_mean, q_lv = q.value[..., :d], q.value[..., d:]
    p_mean, p_lv = pv[..., :d], pv[..., d:]
    dlv = q_lv - p_lv
    dm = q_mean - p_mean
    inv_var = np.exp(p_lv * -1.0)
    e = np.exp(dlv)
    sq = dm * dm
    per_weight = e + sq * inv_var - dlv + (-1.0)
    value = np.add.reduce(per_weight, axis=-1) * 0.5

    def vjp(g):
        g = _spread(g * 0.5, -1, per_weight.shape)
        g_sq = g * inv_var
        g_dm = g_sq * dm + g_sq * dm
        g_dlv = -g + g * e
        g_q = np.concatenate([_unbroadcast(g_dm, q_mean.shape),
                              _unbroadcast(g_dlv, q_lv.shape)], axis=-1)
        if not prior_is_node:
            return (g_q,)
        g_inv = _unbroadcast(g * sq, inv_var.shape)
        g_p_lv = g_inv * inv_var * -1.0 + _unbroadcast(-g_dlv, p_lv.shape)
        return g_q, np.concatenate([_unbroadcast(-g_dm, p_mean.shape), g_p_lv], axis=-1)

    return Tensor(q.tape, value, (q, p) if prior_is_node else (q,), vjp)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(a)), overflow-free, as one node.

    Value and adjoint repeat, in the same order, the float operations of the
    10-op chain ``relu(a) + log(exp(-(relu(a) + relu(-a))) + 1)``, relu
    having subgradient 0 at 0; at a = 0 alone the adjoint is instead
    softplus's derivative 1/2. A NaN input gives NaN, value and adjoint.
    """
    t = a.value
    pos = t > 0.0
    relu_t = np.maximum(t, 0.0)
    neg_t = t * -1.0
    neg = neg_t > 0.0
    shrink = np.exp((relu_t + np.where(neg, neg_t, 0.0)) * -1.0)
    one_plus = shrink + 1.0

    def vjp(g):
        g_abs = g / one_plus * shrink * -1.0
        chain = g * pos + g_abs * neg * -1.0 + g_abs * pos
        return (np.where(t == 0.0, g * 0.5, chain),)

    return Tensor(a.tape, relu_t + np.log(one_plus), (a,), vjp)


def clip_rescale(a: Tensor, c: float) -> Tensor:
    """min(a, c) / c as one node, with adjoint 0 where a >= c.

    Value and adjoint repeat, in the same order, the float operations of the
    6-op chain ``(relu(-a + c) * -1 + c) * (1 / c)``.
    """
    scale = 1.0 / c
    gap = a.value * -1.0 + c
    below = gap > 0.0
    value = (np.where(below, gap, 0.0) * -1.0 + c) * scale
    return Tensor(a.tape, value, (a,), lambda g: (g * scale * -1.0 * below * -1.0,))


def matmul(a, b):
    """Matrix product with numpy semantics; either side may be a constant
    array.

    (p,q)@(q,) -> (p,) is the matrix-vector product. Otherwise both operands
    have at least two axes: the last two multiply as matrices and any leading
    axes are batch axes that broadcast, so (n,k,p,q)@(n,1,q,r) -> (n,k,p,r).
    """
    av, bv = _operands(a, b)
    sa, sb = getattr(av, "shape", ()), getattr(bv, "shape", ())
    if len(sa) < 2:
        raise ValueError(f"matmul left operand must be at least 2-d, got {sa}")
    if len(sb) == 1:
        if len(sa) != 2 or sa[1] != sb[0]:
            raise ValueError(f"matmul shape mismatch: {sa} @ {sb}")
        return _node(a, b, av @ bv, lambda g: np.outer(g, bv), lambda g: av.T @ g)
    try:
        value = av @ bv
    except ValueError as exc:
        raise ValueError(f"matmul shape mismatch: {sa} @ {sb}") from exc
    return _node(a, b, value,
                 lambda g: _unbroadcast(g @ bv.swapaxes(-1, -2), sa),
                 lambda g: _unbroadcast(av.swapaxes(-1, -2) @ g, sb))


def _spread(g: np.ndarray, axis, shape: tuple) -> np.ndarray:
    """Copy the adjoint of a reduction over ``axis`` (None for all axes) back
    across the reduced axes of an operand of ``shape``."""
    full = np.empty(shape)
    if axis is None:
        full[...] = g
        return full
    kept = list(shape)
    for ax in (axis,) if isinstance(axis, int) else axis:
        kept[ax] = 1
    full[...] = g.reshape(kept)
    return full


def sum(a: Tensor, axis=None):  # noqa: A001 - mirrors the op set on purpose
    """Sum over ``axis`` (an int or a tuple of ints), or of all entries as a
    scalar."""
    return Tensor(a.tape, np.asarray(np.add.reduce(a.value, axis=axis)), (a,),
                  lambda g: (_spread(g, axis, a.shape),))


def mean(a: Tensor, axis=None):
    """Arithmetic mean over ``axis`` (an int or a tuple of ints), or of all
    entries as a scalar."""
    total = np.add.reduce(a.value, axis=axis)
    count = a.value.size // total.size
    return Tensor(a.tape, np.asarray(total / count), (a,),
                  lambda g: (_spread(g / count, axis, a.shape),))


def slice(a: Tensor, index, shape: tuple | None = None):  # noqa: A001
    """a[index] for basic indexing (ints, slices, None, Ellipsis), optionally
    reshaped to ``shape``. The adjoint lands back in the indexed entries."""
    part = a.value[index]
    src_shape = part.shape
    value = part if shape is None else part.reshape(shape)

    def vjp(g):
        full = np.zeros(a.shape)
        full[index] = g.reshape(src_shape)
        return (full,)

    return Tensor(a.tape, value, (a,), vjp)


def exp(a: Tensor):
    out = np.exp(a.value)
    return Tensor(a.tape, out, (a,), lambda g: (g * out,))


# log and sqrt reject nonpositive input but let NaN through, so that a
# diverging objective reaches the callers' finiteness checks.


def log(a: Tensor):
    if np.any(a.value <= 0.0):
        raise ValueError("log requires strictly positive input")
    return Tensor(a.tape, np.log(a.value), (a,), lambda g: (g / a.value,))


def sqrt(a: Tensor):
    if np.any(a.value <= 0.0):
        raise ValueError("sqrt requires strictly positive input")
    out = np.sqrt(a.value)
    return Tensor(a.tape, out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a: Tensor):
    out = np.tanh(a.value)
    return Tensor(a.tape, out, (a,), lambda g: (g * (1.0 - out * out),))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray):
    """Per-sample cross-entropy of softmax(logits) against integer labels.

    logits is (..., B, C); labels holds integers in [0, C) and broadcasts
    against the (..., B) leading shape. Returns the (..., B) losses
    -log softmax(logits)[label], computed with the usual max-shift for
    stability.
    """
    if logits.value.ndim < 2:
        raise ValueError(f"logits must be at least 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    z = logits.value
    lead = z.shape[:-1]
    if labels.ndim == 0 or labels.shape[-1] != lead[-1]:
        raise ValueError(f"labels shape {labels.shape} does not match batch {lead}")
    if (np.minimum.reduce(labels, axis=None) < 0
            or np.maximum.reduce(labels, axis=None) >= z.shape[-1]):
        raise ValueError("label out of range")
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    onehot = labels[..., None] == np.arange(z.shape[-1])
    # one term per row is not zero, so the sum is the label's entry exactly
    picked = np.add.reduce(np.where(onehot, shifted, 0.0), axis=-1)
    if picked.shape != lead:
        raise ValueError(f"labels shape {labels.shape} does not match batch {lead}")
    losses = lse - picked
    residual = np.exp(shifted - lse[..., None]) - onehot

    return Tensor(logits.tape, losses, (logits,), lambda g: (residual * g[..., None],))


def backward(out: Tensor) -> None:
    """Reverse-mode pass from a scalar output.

    Afterwards .grad of every node the output depends on holds its adjoint;
    every other node reads zeros, including adjoints left by an earlier pass
    over the same tape. One linear sweep suffices because the tape is
    topologically ordered by construction. Adjoints are accumulated out of
    place, since a vjp may hand the same array to several parents.
    """
    if out.value.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {out.shape}")
    nodes = out.tape.nodes
    if nodes is None:
        raise ValueError("the tape is closed")
    adjoint = {out.idx: np.ones_like(out.value)}
    for i in range(out.idx, -1, -1):
        g = adjoint.get(i)
        if g is None:
            continue
        node = nodes[i]
        if node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            j = parent.idx
            prev = adjoint.get(j)
            adjoint[j] = pg if prev is None else prev + pg
    out.tape.grads = adjoint


def gradcheck(build: Callable[[Sequence[np.ndarray]],
                              tuple[Tensor, Sequence[Tensor]]],
              points: Sequence[np.ndarray],
              h: float = 1e-5) -> float:
    """Compare tape gradients against central finite differences.

    build takes a list of ndarrays, constructs a fresh tape, and returns
    (scalar output tensor, list of leaf tensors in the same order as
    points). Returns the worst relative error over all coordinates, with
    denominator max(|analytic|, |numeric|, 1e-8).
    """
    points = [np.array(p, dtype=np.float64) for p in points]

    def value_at(ps):
        out, _ = build(ps)
        v = np.asarray(out.value)
        if v.size != 1 or not np.all(np.isfinite(v)):
            raise ValueError("objective must evaluate to a finite scalar")
        return float(v)

    out, leaves = build(points)
    if not np.all(np.isfinite(out.value)):
        raise ValueError("objective must evaluate to a finite scalar")
    backward(out)
    analytic = [leaf.grad.copy() for leaf in leaves]

    worst = 0.0
    for k, p in enumerate(points):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = value_at(points)
            flat[j] = orig - h
            down = value_at(points)
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[k].ravel()[j])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
