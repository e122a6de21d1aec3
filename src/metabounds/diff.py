"""A tape for reverse-mode differentiation, on which the tests run their
reference chains and criterion 3 its gradchecks. Everything is float64.

A training step runs no tape: each certificate's step is one function that
returns its value and flat gradient (``metalearn._meta_step``,
``metalearn._adaptation_step``). Criterion 3 puts one call of such a step
on a tape as a single node over its parameters (``step_node`` in
``tests/oracles.py``) and gradchecks it, and ``model.taped_mc_risk`` puts
the training risk on a tape the same way. The tests spell each step out as
a chain of elementary ops (``tests/oracles.py``) on a tape and compare its
values and adjoints with the step's, bit for bit.

A tape records nodes in construction order, which is a topological order,
so backward() is one reverse pass over that list, which returns the
adjoints it computes. Only what is differentiated is a node: data, noise
draws and fixed priors enter a node's value and adjoint as constant arrays,
with no node of their own and no adjoint. A tape and its nodes refer to
each other, so the cyclic garbage collector frees them; no training step
builds one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


class Tape:
    """Append-only record of operations, in construction order."""

    def __init__(self):
        self.nodes: list[Tensor] = []

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
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.idx = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape


def constant(value) -> np.ndarray:
    """A constant operand as a finite float64 array (not copied). Raises
    ValueError on a non-finite entry. Nodes built outside this module check
    their constants with it too."""
    return _finite(np.asarray(value, dtype=np.float64))


def backward(out: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode pass from a scalar output.

    Returns the adjoint of every node the pass reached, keyed by node index
    (``Tensor.idx``); a node the output does not depend on has no entry.
    One linear sweep suffices because the tape is topologically ordered by
    construction. Adjoints are accumulated out of place, since a vjp may
    hand the same array to several parents.
    """
    if out.value.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {out.shape}")
    nodes = out.tape.nodes
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
    return adjoint
