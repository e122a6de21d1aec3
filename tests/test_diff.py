"""Tests for the training step's tape and for the elementary ops and the
finite-difference oracle that tests/oracles.py builds on it."""

import numpy as np
import pytest

from metabounds import diff
from metabounds.diff import Tape, backward

import oracles as ops
from oracles import adjoint, gradcheck


class TestForwardOps:
    def test_matmul_shape_rule(self):
        tape = Tape()
        a = tape.tensor(np.ones((2, 3)))
        b = tape.tensor(np.ones((3, 1)))
        assert ops.matmul(a, b).shape == (2, 1)

    def test_matmul_rejects_mismatch(self):
        tape = Tape()
        a = tape.tensor(np.ones((2, 3)))
        b = tape.tensor(np.ones((2, 1)))
        with pytest.raises(ValueError):
            ops.matmul(a, b)

    def test_softmax_cross_entropy_uniform_logits(self):
        tape = Tape()
        logits = tape.tensor(np.zeros((1, 2)))
        loss = ops.softmax_cross_entropy(logits, np.array([0]))
        np.testing.assert_allclose(loss.value, [np.log(2.0)])

    def test_clip_rescale_values(self):
        tape = Tape()
        x = tape.tensor(np.array([-1.0, 2.0, 4.0, 5.0]))
        np.testing.assert_array_equal(ops.clip_rescale(x, 4.0).value, [-0.25, 0.5, 1.0, 1.0])

    def test_log_rejects_nonpositive(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ops.log(tape.tensor(np.array([1.0, 0.0])))

    def test_sqrt_rejects_nonpositive(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ops.sqrt(tape.tensor(np.array([-1.0])))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_log_and_sqrt_pass_nan_through(self):
        """A NaN objective must reach the training loops' finiteness checks."""
        tape = Tape()
        nan = ops.mul(tape.tensor(np.array([0.0, 4.0])), np.inf)
        assert np.isnan(ops.log(nan).value[0])
        assert np.isnan(ops.sqrt(nan).value[0])
        assert np.isnan(ops.softplus(nan).value[0])

    def test_add_bias_broadcast(self):
        tape = Tape()
        a = tape.tensor(np.ones((2, 3)))
        b = tape.tensor(np.array([1.0, 2.0, 3.0]))
        out = ops.add(a, b)
        np.testing.assert_array_equal(out.value[0], [2.0, 3.0, 4.0])

    def test_add_rejects_bad_shapes(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ops.add(tape.tensor(np.ones(2)), tape.tensor(np.ones(3)))

    def test_leaf_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Tape().tensor(np.array([np.nan]))


class TestBackward:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.tensor(np.array(3.0))
        adjoints = backward(ops.mul(x, x))
        np.testing.assert_allclose(adjoint(adjoints, x), 6.0)

    def test_sum_of_clip_rescale_subgradient(self):
        tape = Tape()
        x = tape.tensor(np.array([-1.0, 2.0, 5.0]))
        adjoints = backward(ops.sum(ops.clip_rescale(x, 4.0)))
        np.testing.assert_array_equal(adjoint(adjoints, x), [0.25, 0.25, 0.0])

    def test_clip_rescale_subgradient_at_the_clip_is_zero(self):
        tape = Tape()
        x = tape.tensor(np.array([4.0]))
        adjoints = backward(ops.sum(ops.clip_rescale(x, 4.0)))
        np.testing.assert_array_equal(adjoint(adjoints, x), [0.0])

    def test_rejects_nonscalar_output(self):
        tape = Tape()
        x = tape.tensor(np.ones(3))
        with pytest.raises(ValueError):
            backward(ops.mul(x, x))

    def test_reused_operand_accumulates(self):
        tape = Tape()
        x = tape.tensor(np.array(2.0))
        y = ops.mul(ops.mul(x, x), x)
        adjoints = backward(y)
        np.testing.assert_allclose(adjoint(adjoints, x), 12.0)

    def test_linearity(self):
        """grad(a*f + b*g) = a*grad(f) + b*grad(g) for scalar constants."""
        rng = np.random.default_rng(5)
        for trial in range(20):
            x0 = rng.normal(size=4)
            a, b = float(rng.normal()), float(rng.normal())

            def f_of(x):
                return ops.sum(ops.mul(ops.tanh(x), x))

            def g_of(x):
                return ops.mean(ops.mul(x, x))

            tape = Tape()
            x = tape.tensor(x0)
            combined = adjoint(backward(ops.add(ops.mul(f_of(x), a), ops.mul(g_of(x), b))), x)

            tape = Tape()
            x = tape.tensor(x0)
            gf = adjoint(backward(f_of(x)), x)
            tape = Tape()
            x = tape.tensor(x0)
            gg = adjoint(backward(g_of(x)), x)
            np.testing.assert_allclose(combined, a * gf + b * gg, rtol=1e-10)

    def test_identical_tapes_give_identical_gradients(self):
        def run():
            tape = Tape()
            x = tape.tensor(np.array([0.3, -0.7, 1.1]))
            w = tape.tensor(np.array([[0.2, -0.1, 0.5]]))
            out = ops.sum(ops.tanh(ops.matmul(w, x)))
            adjoints = backward(out)
            return adjoint(adjoints, x), adjoint(adjoints, w)

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestGradcheck:
    def test_quadratic_is_exact(self):
        def build(ps):
            tape = Tape()
            x = tape.tensor(ps[0])
            return ops.sum(ops.mul(x, x)), [x]

        err = gradcheck(build, [np.array([1.0, -2.0, 0.5])])
        assert err <= 1e-9

    def test_three_layer_composite(self):
        rng = np.random.default_rng(17)
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))

        def build(ps):
            tape = Tape()
            x = tape.tensor(ps[0])
            a = tape.tensor(ps[1])
            b = tape.tensor(ps[2])
            h = ops.tanh(ops.matmul(x, a))
            out = ops.mean(ops.exp(ops.mul(ops.tanh(ops.matmul(h, b)), 0.5)))
            return out, [x, a, b]

        err = gradcheck(build, [rng.normal(size=(5, 3)), w1, w2])
        assert err <= 1e-4

    def test_gaussian_kl_objective(self):
        """The closed-form KL as a function of the posterior parameters."""
        rng = np.random.default_rng(23)
        p_mean = rng.normal(size=4)
        p_log_var = rng.normal(size=4)

        def build(ps):
            tape = Tape()
            q_mean = tape.tensor(ps[0])
            q_log_var = tape.tensor(ps[1])
            pm = tape.tensor(p_mean)
            plv = tape.tensor(p_log_var)
            dlv = ops.sub(q_log_var, plv)
            delta = ops.sub(q_mean, pm)
            terms = ops.sub(ops.sub(ops.add(ops.exp(dlv),
                                            ops.mul(ops.mul(delta, delta),
                                                    ops.exp(ops.mul(plv, -1.0)))),
                                    1.0), dlv)
            return ops.mul(ops.sum(terms), 0.5), [q_mean, q_log_var]

        err = gradcheck(build, [rng.normal(size=4), rng.normal(size=4)])
        assert err <= 1e-5

    def test_reparametrized_hidden_layer_loss(self):
        """One-hidden-layer network with weights mean + std * eps, eps fixed."""
        rng = np.random.default_rng(31)
        x_data = rng.uniform(-1.0, 1.0, size=(6, 3))
        labels = rng.integers(0, 2, size=6)
        shapes = [(3, 4), (4,), (4, 2), (2,)]
        means = [0.3 * rng.standard_normal(s) for s in shapes]
        log_vars = [rng.normal(-2.0, 0.3, s) for s in shapes]
        eps = [rng.standard_normal(s) for s in shapes]

        def build(ps):
            tape = Tape()
            leaves = [tape.tensor(p) for p in ps]
            w = [ops.add(leaves[i], ops.mul(ops.exp(ops.mul(leaves[i + 4], 0.5)),
                                            tape.tensor(eps[i])))
                 for i in range(4)]
            h = ops.tanh(ops.add(ops.matmul(tape.tensor(x_data), w[0]), w[1]))
            logits = ops.add(ops.matmul(h, w[2]), w[3])
            return ops.mean(ops.softmax_cross_entropy(logits, labels)), leaves

        err = gradcheck(build, means + log_vars)
        assert err <= 1e-4


class TestLazyGradients:
    def test_unreached_nodes_read_zeros(self):
        tape = Tape()
        x = tape.tensor(np.array([1.0, 2.0]))
        unused = tape.tensor(np.ones((2, 3)))
        side = ops.exp(unused)
        square = ops.mul(x, x)
        out = ops.sum(square)
        adjoints = backward(out)
        assert sorted(adjoints) == [x.idx, square.idx, out.idx]
        np.testing.assert_array_equal(adjoint(adjoints, unused), np.zeros((2, 3)))
        np.testing.assert_array_equal(adjoint(adjoints, side), np.zeros((2, 3)))
        np.testing.assert_array_equal(adjoint(adjoints, x), [2.0, 4.0])

    def test_aliased_adjoints_accumulate_out_of_place(self):
        """add hands one adjoint array to both operands; accumulating into
        one of them must not leak into the other."""
        tape = Tape()
        x = tape.tensor(np.array([1.0, -2.0]))
        y = tape.tensor(np.array([0.5, 3.0]))
        u = ops.add(x, y)
        adjoints = backward(ops.add(ops.sum(ops.mul(u, u)), ops.sum(x)))
        np.testing.assert_array_equal(adjoint(adjoints, y), 2.0 * u.value)
        np.testing.assert_array_equal(adjoint(adjoints, x), 2.0 * u.value + 1.0)


class TestStackedOps:
    """Finite-difference checks of the ops that carry a task axis."""

    @pytest.fixture
    def rng(self):
        """A generator of the test's own, so that adding, removing, reordering
        or selecting tests moves no other test's points."""
        return np.random.default_rng(101)

    def test_broadcasting_add_sub_mul(self, rng):
        def build(ps):
            tape = Tape()
            a, b, c = (tape.tensor(p) for p in ps)
            out = ops.sum(ops.mul(ops.tanh(ops.sub(ops.mul(ops.add(a, b), c), b)), ops.sub(a, c)))
            return out, [a, b, c]

        points = [rng.normal(size=(3, 1, 4)), rng.normal(size=(4,)),
                  rng.normal(size=(1, 2, 1))]
        assert gradcheck(build, points) <= 1e-6

    def test_batched_matmul(self, rng):
        def build(ps):
            tape = Tape()
            a, b = tape.tensor(ps[0]), tape.tensor(ps[1])
            return ops.sum(ops.tanh(ops.matmul(a, b))), [a, b]

        points = [rng.normal(size=(3, 1, 5, 2)), rng.normal(size=(3, 4, 2, 6))]
        assert gradcheck(build, points) <= 1e-6
        tape = Tape()
        out = ops.matmul(tape.tensor(points[0]), tape.tensor(points[1]))
        assert out.shape == (3, 4, 5, 6)

    def test_batched_matmul_rejects_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError):
            ops.matmul(tape.tensor(np.ones((2, 3, 4))), tape.tensor(np.ones((2, 3, 4))))

    def test_axis_sum_and_mean(self, rng):
        def build(ps):
            tape = Tape()
            a = tape.tensor(ps[0])
            rows = ops.sum(ops.exp(ops.mul(a, 0.3)), axis=-1)
            cols = ops.mean(ops.mul(a, a), axis=(0, 2))
            return ops.add(ops.sum(ops.tanh(rows)), ops.sum(ops.mul(cols, cols))), [a]

        assert gradcheck(build, [rng.normal(size=(2, 3, 4))]) <= 1e-6
        tape = Tape()
        a = tape.tensor(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(ops.mean(a, axis=(0, 2)).value,
                                      np.arange(24.0).reshape(2, 3, 4).mean(axis=(0, 2)))

    def test_slice_with_new_axis_and_reshape(self, rng):
        def build(ps):
            tape = Tape()
            a = tape.tensor(ps[0])
            head = ops.slice(a, (slice(None), None, slice(0, 6)), (3, 1, 2, 3))
            tail = ops.slice(a, (Ellipsis, slice(6, None)))
            return ops.add(ops.sum(ops.tanh(head)), ops.sum(ops.mul(tail, tail))), [a]

        assert gradcheck(build, [rng.normal(size=(3, 8))]) <= 1e-6
        tape = Tape()
        a = tape.tensor(np.arange(8.0).reshape(2, 4))
        part = ops.slice(a, (slice(None), None, slice(1, 3)))
        assert part.shape == (2, 1, 2)
        np.testing.assert_array_equal(part.value[:, 0], [[1.0, 2.0], [5.0, 6.0]])

    def test_batched_softmax_cross_entropy(self, rng):
        labels = np.array([[0, 2, 1, 1], [2, 2, 0, 1]])[:, None, :]

        def build(ps):
            tape = Tape()
            logits = tape.tensor(ps[0])
            return ops.sum(ops.softmax_cross_entropy(logits, labels)), [logits]

        logits = rng.normal(size=(2, 3, 4, 3))
        assert gradcheck(build, [logits]) <= 1e-6
        tape = Tape()
        batched = ops.softmax_cross_entropy(tape.tensor(logits), labels).value
        for t in range(2):
            for k in range(3):
                row = ops.softmax_cross_entropy(tape.tensor(logits[t, k]), labels[t, 0]).value
                np.testing.assert_allclose(batched[t, k], row, rtol=1e-14)


class TestConstantOperands:
    """A constant operand (a number or an ndarray) is no node: it is not a
    parent and gets no adjoint."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(103)

    @pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("constant_first", [False, True], ids=["right", "left"])
    def test_broadcasting_constant_on_either_side(self, rng, op, constant_first):
        const = rng.normal(size=(3, 1, 4))

        def apply(t):
            return op(const, t) if constant_first else op(t, const)

        def build(ps):
            tape = Tape()
            a = tape.tensor(ps[0])
            return ops.sum(ops.tanh(apply(a))), [a]

        point = rng.normal(size=(2, 1))
        assert gradcheck(build, [point]) <= 1e-6
        tape = Tape()
        a = tape.tensor(point)
        out = apply(a)
        assert out.parents == (a,)
        assert len(tape.nodes) == 2
        expected = op(tape.tensor(const), a) if constant_first else op(a, tape.tensor(const))
        assert np.array_equal(out.value, expected.value)

    @pytest.mark.parametrize("constant_first", [False, True], ids=["right", "left"])
    def test_matmul_with_a_broadcasting_constant(self, rng, constant_first):
        left = rng.normal(size=(3, 1, 5, 2))
        right = rng.normal(size=(3, 4, 2, 6))

        def apply(t):
            return ops.matmul(left, t) if constant_first else ops.matmul(t, right)

        def build(ps):
            tape = Tape()
            a = tape.tensor(ps[0])
            return ops.sum(ops.tanh(apply(a))), [a]

        point = right if constant_first else left
        assert gradcheck(build, [point]) <= 1e-6
        tape = Tape()
        a = tape.tensor(point)
        out = apply(a)
        assert out.parents == (a,)
        assert out.shape == (3, 4, 5, 6)

    def test_nonfinite_constant_array_is_rejected(self):
        tape = Tape()
        a = tape.tensor(np.ones(2))
        bad = np.array([1.0, np.nan])
        for build in (lambda: ops.add(a, bad), lambda: ops.sub(bad, a), lambda: ops.mul(a, bad),
                      lambda: ops.matmul(tape.tensor(np.ones((2, 2))), bad),
                      lambda: ops.reparam(a, bad)):
            with pytest.raises(ValueError, match="finite"):
                build()

    def test_two_constants_are_not_an_op(self):
        with pytest.raises(TypeError):
            ops.add(np.ones(2), np.ones(2))


class TestReparam:
    """reparam takes the stacked (2d,) or (n, 2d) posterior, as the risk
    node does, against (..., K, d) noise."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(107)

    # (rows of the posterior, noise shape) with d = 2: one Gaussian or three
    # stacked rows, each with a single draw and with several
    LAYOUTS = [((), (1, 2)), ((), (4, 2)), ((3,), (3, 1, 2)), ((3,), (3, 4, 2))]

    def _row(self, rng, lead):
        return np.concatenate([rng.normal(size=lead + (2,)),
                               rng.normal(-1.0, 0.5, lead + (2,))], axis=-1)

    def test_gradcheck(self, rng):
        for lead, noise_shape in self.LAYOUTS:
            eps = rng.standard_normal(noise_shape)

            def build(ps):
                tape = Tape()
                q = tape.tensor(ps[0])
                return ops.sum(ops.tanh(ops.reparam(q, eps))), [q]

            assert gradcheck(build, [self._row(rng, lead)]) <= 1e-6

    def test_matches_the_four_op_chain_bit_for_bit(self, rng):
        for lead, noise_shape in self.LAYOUTS:
            q_v = self._row(rng, lead)
            eps = rng.standard_normal(noise_shape)
            weights = rng.normal(size=noise_shape)

            def run(draw):
                tape = Tape()
                q = tape.tensor(q_v)
                w = draw(q)
                adjoints = backward(ops.sum(ops.mul(ops.tanh(w), weights)))
                return w.value, adjoint(adjoints, q), len(tape.nodes)

            def chain(q):
                # the halves sliced off the stacked row, as (..., 1, d)
                mean = ops.slice(q, (Ellipsis, None, slice(None, 2)))
                log_var = ops.slice(q, (Ellipsis, None, slice(2, None)))
                return ops.add(mean, ops.mul(ops.exp(ops.mul(log_var, 0.5)), eps))

            fused = run(lambda q: ops.reparam(q, eps))
            sliced = run(chain)
            assert fused[0].shape == noise_shape and fused[1].shape == q_v.shape
            for a, b in zip(fused[:2], sliced[:2]):
                assert np.array_equal(a, b)
            assert sliced[2] - fused[2] == 5


def _relu(a):
    """max(a, 0) with subgradient 0 at 0: the op the fused chains were built
    from, kept here as their reference."""
    mask = a.value > 0.0
    return diff.Tensor(a.tape, np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def _chain_softplus(t):
    abs_t = ops.add(_relu(t), _relu(ops.mul(t, -1.0)))
    return ops.add(_relu(t), ops.log(ops.add(ops.exp(ops.mul(abs_t, -1.0)), 1.0)))


def _chain_clip_rescale(raw, c):
    return ops.mul(ops.add(ops.mul(_relu(ops.add(ops.mul(raw, -1.0), c)), -1.0), c), 1.0 / c)


class TestFusedOps:
    """Each fused op is its elementwise chain as one node: same gradient, and
    the same floats, value and adjoints, as the chain; clip_rescale's value
    is the program's clip instead."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(113)

    def test_softplus_gradcheck(self):
        def build(ps):
            tape = Tape()
            t = tape.tensor(ps[0])
            return ops.sum(ops.mul(ops.softplus(t), np.arange(1.0, 7.0))), [t]

        assert gradcheck(build, [np.array([-6.0, -2.0, -0.3, 0.4, 3.0, 6.0])]) <= 1e-6

    def test_softplus_gradcheck_at_zero(self):
        def build(ps):
            tape = Tape()
            t = tape.tensor(ps[0])
            return ops.sum(ops.mul(ops.softplus(t), np.array([1.0, -3.0]))), [t]

        assert gradcheck(build, [np.array([0.0, -0.0])]) <= 1e-6

    def test_softplus_equals_its_chain(self, rng):
        """Bit for bit off zero; at +-0 the adjoint is the derivative 1/2,
        where the chain's relu subgradient gives 0."""
        t_value = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, -800.0, 800.0, 40.0, -40.0],
                                  rng.normal(0.0, 3.0, 9)])
        weights = rng.normal(size=t_value.size)

        def run(op):
            tape = Tape()
            t = tape.tensor(t_value)
            out = op(t)
            adjoints = backward(ops.sum(ops.mul(out, weights)))
            return out.value, adjoint(adjoints, t)

        fused, chain = run(ops.softplus), run(_chain_softplus)
        assert np.all(np.isfinite(fused[0]))
        np.testing.assert_allclose(fused[0], np.logaddexp(0.0, t_value), rtol=0.0, atol=1e-15)
        assert np.array_equal(fused[0], chain[0])
        off_zero = t_value != 0.0
        assert np.array_equal(fused[1][off_zero], chain[1][off_zero])
        assert np.array_equal(fused[1][~off_zero], 0.5 * weights[~off_zero])

    def test_clip_rescale_gradcheck(self):
        def build(ps):
            tape = Tape()
            raw = tape.tensor(ps[0])
            return ops.sum(ops.mul(ops.clip_rescale(raw, 3.0), np.arange(1.0, 5.0))), [raw]

        assert gradcheck(build, [np.array([0.2, 1.5, 2.9, 3.4])]) <= 1e-6

    def test_clip_rescale_equals_its_chain(self, rng):
        """The value is np.minimum(raw, c) / c, which the chain's
        c - (c - raw) can miss by a rounding; the adjoint is the chain's."""
        c = 3.0
        raw_value = np.concatenate([[c, np.nextafter(c, 0.0), np.nextafter(c, 9.0), 0.0, 1e3],
                                    rng.uniform(0.0, 2.0 * c, 60)])
        weights = rng.normal(size=raw_value.size)

        def run(op):
            tape = Tape()
            raw = tape.tensor(raw_value)
            out = op(raw, c)
            adjoints = backward(ops.sum(ops.mul(out, weights)))
            return out.value, adjoint(adjoints, raw)

        fused, chain = run(ops.clip_rescale), run(_chain_clip_rescale)
        assert fused[1][0] == 0.0 and fused[1][1] != 0.0
        # the value is the program's clip; the adjoint is the chain's
        assert np.array_equal(fused[0], np.minimum(raw_value, c) / c)
        assert np.array_equal(fused[1], chain[1])

