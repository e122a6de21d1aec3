"""Reference code that the tests check the program against.

Nothing here runs in a CLI command or a training step:

- the elementary tape ops on ``metabounds.diff`` nodes, from which the tests
  spell out the chains that the risk node ``model.taped_mc_risk`` and the
  training steps of ``metalearn`` (Gaussian divergence included:
  ``kl_chain``) stand for and must equal bit for bit, and criterion 3's
  hand-built single-task certificate;
- ``step_node``, which puts one call of a training step on a tape,
  ``adjoint``, which reads a node's adjoint from what ``backward`` returns,
  and ``gradcheck``, the finite-difference oracle of criterion 3;
- the trade-off parameter machinery of criterion 8: ``lemma2_lambda_form``,
  ``lambda_star`` and ``lemma2_grid_minimum``;
- the statements of Theorems 1 and 2 (``theorem1_statement``,
  ``theorem2_statement`` and their two terms), transcribed with no code of
  ``metabounds.bounds``, from which every sweep row is re-derived;
- ``random_discrete_system``, the finite systems of criterion 1;
- ``quadrature_kl_1d``, the numerical-integration oracle of criterion 2;
- ``gaussian_row`` and ``isotropic_row``, which spell a diagonal Gaussian as
  the (2d,) row of means then log-variances that the program takes.

Only what is differentiated is a node. ``add``, ``sub``, ``mul`` and
``matmul`` take a constant on either side, a number or an ndarray (data,
noise draws, fixed priors); the resulting node has only its Tensor operand
as parent and no adjoint is computed for the constant. Constant arrays are
not copied and, like leaves, must be finite; numbers pass as they are. The
ops reduce with ufunc methods (``np.add.reduce`` rather than
``ndarray.sum``), as the fused nodes do, so that chain and node run the
same float operations.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from metabounds.bounds import DiscreteMetaSystem, _check_count, _check_delta, _check_kl
from metabounds.diff import Tensor, backward, constant


def _same_tape(*tensors: Tensor):
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


def _constant(value):
    """A constant operand: a number as a float, anything else as
    ``diff.constant`` checks it."""
    if isinstance(value, (int, float)):
        return float(value)
    return constant(value)


def _operands(a, b):
    """Values of a binary op's operands: Tensors on one tape, or one Tensor
    and one constant."""
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            _same_tape(a, b)
            return a.value, b.value
        return a.value, _constant(b)
    if not isinstance(b, Tensor):
        raise TypeError("at least one operand must be a Tensor")
    return _constant(a), b.value


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

    q is laid out as for kl_chain: d means then d log-variances, (2d,)
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
    """``np.minimum(a, c) / c`` as one node, the clip the program takes; NaN
    stays NaN. The adjoint is 0 where a >= c and repeats, in the same order,
    the float operations of the 6-op chain ``(relu(-a + c) * -1 + c) * (1 /
    c)``.
    """
    scale = 1.0 / c
    below = a.value * -1.0 + c > 0.0
    return Tensor(a.tape, np.minimum(a.value, c) / c, (a,),
                  lambda g: (g * scale * -1.0 * below * -1.0,))


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


def sum(a: Tensor, axis=None):  # noqa: A001 - named for the op it records
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


def kl_chain(q: Tensor, p) -> Tensor:
    """KL of diagonal Gaussians, one value per row, as the 12-op chain
    ``sum(exp(dlv) + dm * dm * exp(-p_lv) - dlv + (-1), axis=-1) * 0.5``
    with ``dlv = q_lv - p_lv`` and ``dm = q_mean - p_mean``: the reference of
    the divergence that each certificate node of ``metalearn`` takes in.

    Each row of q, and of p, holds d means then d log-variances; p is a node
    or a constant array and broadcasts against q.
    """
    d = q.shape[-1] // 2
    q_mean, q_lv = slice(q, np.s_[..., :d]), slice(q, np.s_[..., d:])
    if isinstance(p, Tensor):
        p_mean, p_lv = slice(p, np.s_[..., :d]), slice(p, np.s_[..., d:])
        inv_var = exp(mul(p_lv, -1.0))
    else:
        p_mean, p_lv = p[..., :d], p[..., d:]
        inv_var = np.exp(-p_lv)
    dlv = sub(q_lv, p_lv)
    dm = sub(q_mean, p_mean)
    per_weight = add(sub(add(exp(dlv), mul(mul(dm, dm), inv_var)), dlv), -1.0)
    return mul(sum(per_weight, axis=-1), 0.5)


def step_node(step, x: np.ndarray, y: np.ndarray, leaves: Sequence[Tensor],
              total: bool = False) -> Tensor:
    """One call ``step(x, y)`` of a training step of ``metalearn`` as one
    node on the leaves' tape, so that ``gradcheck`` can sweep it.

    The leaves hold the parameters the step reads, in the order its flat
    gradient lists them, and must cover that gradient. The node's value is
    the step's first value, or with ``total`` the sum of its values; its vjp
    hands each leaf its part of the gradient times the node's adjoint.
    """
    gradient, values = step(x, y)
    value = np.add.reduce(values, axis=None) if total else values[0]
    parts, start = [], 0
    for leaf in leaves:
        parts.append(gradient[start:start + leaf.value.size].reshape(leaf.shape))
        start += leaf.value.size
    if start != gradient.size:
        raise ValueError(f"leaves of {start} entries for a gradient of {gradient.size}")
    return Tensor(leaves[0].tape, np.asarray(value), tuple(leaves),
                  lambda g: tuple(g * part for part in parts))


def adjoint(adjoints: dict[int, np.ndarray], node: Tensor) -> np.ndarray:
    """``node``'s adjoint in the dict a ``backward`` pass returned; zeros
    where that pass did not reach ``node``."""
    g = adjoints.get(node.idx)
    return np.zeros_like(node.value) if g is None else g


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
    adjoints = backward(out)
    analytic = [adjoint(adjoints, leaf).copy() for leaf in leaves]

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


def lemma2_lambda_form(kl_joint: float, lam: float, n: int, m: int, delta: float) -> float:
    """Gap bound on the multi-task risk at a fixed trade-off parameter.

    This is the quantity the square-root certificates are distilled from:
    divergence and confidence slack scaled by ``1 / lam`` plus a moment term
    growing linearly in ``lam``.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    _check_kl(kl_joint, "kl_joint")
    _check_count(n, "n")
    _check_count(m, "m")
    _check_delta(delta)
    return (kl_joint + math.log(2.0 / delta)) / lam + lam / (8.0 * n * m)


def lambda_star(kl_joint: float, n: int, m: int, delta: float) -> tuple[float, bool]:
    """Optimal trade-off parameter and whether it overshoots the usable grid.

    Returns ``(value, clipped)``.  The grid of certifiable values stops at
    ``4 * n * m``; when the optimum lies beyond it the resulting certificate
    is vacuous (exceeds 1) and the flag is set.
    """
    _check_kl(kl_joint, "kl_joint")
    _check_count(n, "n")
    _check_count(m, "m")
    _check_delta(delta)
    nm = float(n) * float(m)
    star = math.sqrt(8.0 * nm * (kl_joint + math.log(8.0 * nm / delta)) + 1.0)
    return star, star > 4.0 * nm


def lemma2_grid_minimum(kl_joint: float, n: int, m: int, delta: float) -> float:
    """Exact minimum of the union-bound gap expression over the integer grid.

    The grid is ``{1, ..., 4 n m}`` and each grid point pays the union-bound
    confidence ``delta / (4 n m)``, which folds into a ``log(8 n m / delta)``
    slack.  The expression is convex in ``lam``, so the integer minimizer is a
    neighbour of the unconstrained one and no scan is needed.
    """
    _check_kl(kl_joint, "kl_joint")
    _check_count(n, "n")
    _check_count(m, "m")
    _check_delta(delta)
    nm = float(n) * float(m)
    cap = int(4 * n * m)
    slack = kl_joint + math.log(8.0 * nm / delta)

    def value(lam: float) -> float:
        return slack / lam + lam / (8.0 * nm)

    smooth = math.sqrt(8.0 * nm * slack)
    candidates = {1, cap}
    for near in (math.floor(smooth), math.ceil(smooth)):
        if 1 <= near <= cap:
            candidates.add(int(near))
    return min(value(float(c)) for c in candidates)


def task_level_statement(kl_rho_pi: float, n: int, delta: float) -> float:
    """sqrt((KL(rho || pi) + ln(4 sqrt(n) / delta)) / (2 n)): what both
    theorems charge for generalizing from n training tasks."""
    return math.sqrt((kl_rho_pi + math.log(4.0 * math.sqrt(n) / delta)) / (2.0 * n))


def within_task_statement(complexity: float, n: int, m: int, delta: float) -> float:
    """sqrt((C + ln(8 n m / delta) + 1) / (2 n m)): what both theorems
    charge for generalizing from the n m training samples at complexity C."""
    return math.sqrt((complexity + math.log(8.0 * n * m / delta) + 1.0) / (2.0 * n * m))


def theorem1_statement(er: float, kl_rho_pi: float, pairs, n: int, m: int,
                       delta: float) -> float:
    """Theorem 1 with ``pairs`` the (kl_hyper, sum_task_kl) of each sampled
    algorithm: C is KL(rho || pi) plus the mean over algorithms of
    kl_hyper + sum_task_kl."""
    mean_complexity = np.mean([kl_hyper + sum_kl for kl_hyper, sum_kl in pairs])
    return (er + task_level_statement(kl_rho_pi, n, delta)
            + within_task_statement(kl_rho_pi + mean_complexity, n, m, delta))


def theorem2_statement(er: float, kl_rho_pi: float, pairs, n: int, m: int,
                       delta: float) -> float:
    """Theorem 2, shared reference prior: the within-task term is taken per
    algorithm at C = kl_hyper + sum_task_kl and then averaged."""
    return er + task_level_statement(kl_rho_pi, n, delta) + np.mean(
        [within_task_statement(kl_hyper + sum_kl, n, m, delta) for kl_hyper, sum_kl in pairs])


def random_discrete_system(
    rng: np.random.Generator,
    *,
    num_algorithms: int = 2,
    num_priors: int = 2,
    num_models: int = 3,
    num_tasks: int = 2,
) -> DiscreteMetaSystem:
    """Draw a fully-supported random system with small-integer ratio tables.

    Entries are integers from 1 to 10 normalized per distribution, so every
    outcome has positive probability and the enumeration in
    :func:`kl_decomposition_check` never hits a support violation.
    """

    def table(*shape: int) -> np.ndarray:
        raw = rng.integers(1, 11, size=shape).astype(float)
        return raw / raw.sum(axis=-1, keepdims=True)

    return DiscreteMetaSystem(
        rho=table(num_algorithms),
        pi=table(num_algorithms),
        hyper_posterior=table(num_algorithms, num_priors),
        hyper_prior=table(num_algorithms, num_priors),
        task_posteriors=table(num_algorithms, num_tasks, num_models),
        prior_models=table(num_priors, num_models),
    )


def gaussian_row(mean, log_var) -> np.ndarray:
    """N(mean, diag exp(log_var)) as its float64 (2d,) row: the d means,
    then the d log-variances."""
    return np.concatenate([np.asarray(mean, dtype=np.float64),
                           np.asarray(log_var, dtype=np.float64)])


def isotropic_row(mean, variance: float) -> np.ndarray:
    """N(mean, variance * I) as its (2d,) row."""
    mean = np.asarray(mean, dtype=np.float64)
    return gaussian_row(mean, np.full(mean.shape, np.log(variance)))


def quadrature_kl_1d(q: np.ndarray, p: np.ndarray, grid: int = 100_000) -> float:
    """Trapezoidal estimate of KL(q || p) for 1-d Gaussians, each given as
    its (2,) row of mean and log-variance.

    Integrates q(x) log(q(x)/p(x)) over a window of 12 combined standard
    deviations around both means, which keeps the truncated tail mass far
    below the 1e-6 agreement tolerance used in tests.
    """
    if q.shape != (2,) or p.shape != (2,):
        raise ValueError("quadrature oracle is 1-d only")
    mq, sq = float(q[0]), float(np.exp(0.5 * q[1]))
    mp_, sp = float(p[0]), float(np.exp(0.5 * p[1]))
    span = 12.0 * (sq + sp)
    lo = min(mq, mp_) - span
    hi = max(mq, mp_) + span
    x = np.linspace(lo, hi, int(grid))
    # log q - log p, written out to avoid under/overflow in the densities
    log_ratio = (
        np.log(sp / sq)
        - 0.5 * ((x - mq) / sq) ** 2
        + 0.5 * ((x - mp_) / sp) ** 2
    )
    dens_q = np.exp(-0.5 * ((x - mq) / sq) ** 2) / (sq * np.sqrt(2.0 * np.pi))
    return float(np.trapezoid(dens_q * log_ratio, x))
