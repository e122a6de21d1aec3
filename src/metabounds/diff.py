"""The tape a training step runs: reverse-mode differentiation of fused nodes.

A step records a handful of nodes on an explicit tape whose node order is a
topological order by construction, and backward() is one reverse pass over
that list. Everything is float64.

The cost of a step is Python overhead per node, not flops: the arrays are
tiny. So the certificates' hot chains are fused into single nodes: the
diagonal-Gaussian divergence ``gaussian_kl`` here, the Monte-Carlo risk
``model.taped_mc_risk`` (reparametrized draws, forward pass, loss, clip and
mean), and each certificate's arithmetic in ``metalearn``. A diagonal
Gaussian enters both of its nodes in one layout, a stacked row of d means
then d log-variances, so no step slices off the halves as nodes of their
own. Each fused node repeats, in the same order, the float operations of
the chain of elementary ops it stands for, adjoint accumulation included,
so a fused tape and the chain agree bit for bit. The tests build those
reference chains from the elementary ops in ``tests/oracles.py``. For the
same reason the nodes reduce with ufunc methods (``np.add.reduce`` rather
than ``ndarray.sum``) and read ``.shape`` rather than ``np.shape``: numpy's
Python-level wrappers would add Python calls per node for the same floats.

Only what is differentiated is a node: data, noise draws and fixed priors
enter a node's value and adjoint as constant arrays, with no node of their
own and no adjoint.

Every Tensor refers to its tape and an open tape lists its nodes, so a
step's graph is a reference cycle. Run each step in ``with Tape() as
tape:``: leaving the block drops the node list, so the graph is freed by
reference counting, whether the block ends normally or by an exception. A
closed tape records nothing more; its nodes keep their values and the last
pass's adjoints. A tape used without ``with`` keeps its nodes while it lives.
"""

from __future__ import annotations

from typing import Callable

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


def gaussian_kl(q: Tensor, p) -> Tensor:
    """KL of diagonal Gaussians, one value per row: (..., 2d) -> (...).

    Each row of q, and of p, holds d means then d log-variances; p is a node
    or a constant float64 array and broadcasts against q, so a (2d,) prior
    serves every row of an (n, 2d) posterior. A constant prior is taken as
    it is: its caller has checked it to be finite once, before a run's
    first step, not on every step. Value and adjoints repeat, in the same
    order, the float operations of the 12-op chain
    ``sum(exp(dlv) + dm * dm * exp(-p_lv) - dlv + (-1), axis=-1) * 0.5``
    with ``dlv = q_lv - p_lv`` and ``dm = q_mean - p_mean``.
    """
    prior_is_node = isinstance(p, Tensor)
    if prior_is_node:
        _same_tape(q, p)
    pv = p.value if prior_is_node else p
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


def sum(a: Tensor, axis=None):  # noqa: A001 - named for the op it records
    """Sum over ``axis`` (an int or a tuple of ints), or of all entries as a
    scalar."""
    return Tensor(a.tape, np.asarray(np.add.reduce(a.value, axis=axis)), (a,),
                  lambda g: (_spread(g, axis, a.shape),))


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
