"""The training path's ops against their former arithmetic, bit for bit.

Each rewritten op keeps the arithmetic that forms its values, in its order;
these tests pin its forward and backward to the frozen references in
``oracles`` on float64 and float32 inputs. The simplex check keeps its
verdicts and messages against a frozen copy of itself.
"""
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocrseg.tensor as T
from ocrseg.context import SIMPLEX_TOL, SIMPLEX_TOL_SINGLE, _check_simplex_rows
from ocrseg.errors import ParameterError

import oracles

DTYPES = [np.float64, np.float32]


def same(got, want):
    """Bitwise equality of two arrays, dtype and sign of zero included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def leaves(*arrays):
    return [T.Tensor(a, requires_grad=True) for a in arrays]


def block(rng, c_in, c_out, dtype, kernel=None):
    shape = (c_out, c_in) if kernel is None else (c_out, c_in, kernel, kernel)
    return (rng.normal(0, 0.5, shape).astype(dtype),
            rng.uniform(0.5, 1.5, c_out).astype(dtype),
            rng.uniform(-0.3, 0.3, c_out).astype(dtype))


class TestConvBnRelu:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shapes", [((5, 7),), ((3, 4, 5),), ((3, 6), (2, 6)),
                                        ((3, 6), (2, 1)), ((4, 2, 3), (2, 1, 1)),
                                        ((32, 40), (32, 40)), ((32, 6),)])
    def test_pointwise_forward_and_backward(self, rng, dtype, shapes):
        parts = [rng.normal(0, 1, s).astype(dtype) for s in shapes]
        weight, gain, shift = block(rng, sum(s[0] for s in shapes), 4, dtype)
        out = T.conv_bn_relu(leaves(*parts), *leaves(weight, gain, shift))
        g = rng.normal(0, 1, out.shape).astype(dtype)
        want, want_grads = oracles.frozen_conv_bn_relu(parts, weight, gain, shift, g)
        same(out.data, want)
        for got, expected in zip(out._backward_fn(g), want_grads, strict=True):
            same(got, expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape,kernel", [((3, 5, 7), 3), ((16, 12, 10), 3),
                                              ((2, 1, 6), 3), ((4, 6, 1), 3), ((3, 6, 5), 5)])
    def test_taps_forward_and_backward(self, rng, dtype, shape, kernel):
        x = rng.normal(0, 1, shape).astype(dtype)
        weight, gain, shift = block(rng, shape[0], 5, dtype, kernel)
        out = T.conv_bn_relu(leaves(x), *leaves(weight, gain, shift))
        g = rng.normal(0, 1, out.shape).astype(dtype)
        want, want_grads = oracles.frozen_conv_bn_relu([x], weight, gain, shift, g)
        same(out.data, want)
        for got, expected in zip(out._backward_fn(g), want_grads, strict=True):
            same(got, expected)


class TestConvolutions:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape,dilation", [((3, 5, 7), 1), ((2, 6, 4), 2),
                                                ((4, 7, 9), 3), ((16, 12, 10), 1)])
    def test_conv_spatial_forward_and_backward(self, rng, dtype, shape, dilation):
        x = rng.normal(0, 1, shape).astype(dtype)
        weight = rng.normal(0, 0.5, (3, shape[0], 3, 3)).astype(dtype)
        xt, wt = leaves(x, weight)
        out = T.conv_spatial(xt, [(dilation, wt)])
        g = rng.normal(0, 1, out.shape).astype(dtype)
        want, want_gx, want_gw = oracles.frozen_conv_spatial(x, weight, dilation, g)
        same(out.data, want)
        gx, gw = out._backward_fn(g)
        same(gx, want_gx)
        same(gw, want_gw)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(5, 7), (16, 3, 4)])
    def test_conv1x1_forward_and_backward(self, rng, dtype, shape):
        x = rng.normal(0, 1, shape).astype(dtype)
        weight = rng.normal(0, 0.5, (4, shape[0])).astype(dtype)
        bias = rng.normal(0, 0.5, 4).astype(dtype)
        out = T.conv1x1(*leaves(x, weight, bias))
        xm = x.reshape(shape[0], -1)
        want = np.empty((4,) + shape[1:], dtype=dtype)
        np.matmul(weight, xm, out=want.reshape(4, -1))
        want += bias.reshape((-1,) + (1,) * (want.ndim - 1))
        same(out.data, want)
        g = rng.normal(0, 1, out.shape).astype(dtype)
        g2 = g.reshape(4, -1)
        gx, gw, gb = out._backward_fn(g)
        same(gx, (weight.T @ g2).reshape(shape))
        same(gw, g2 @ xm.T)
        same(gb, g2.sum(axis=1))


class TestCrossEntropy:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("ignored", [0, 5, 40])
    def test_forward_and_backward(self, rng, dtype, ignored):
        n, ignore = 40, 255
        labels = rng.integers(0, 6, n)
        labels[rng.permutation(n)[:ignored]] = ignore
        logits = [rng.normal(0, 3, (6, n)).astype(dtype) for _ in range(2)]
        terms = list(zip(leaves(*logits), (1.0, 0.4)))
        with pytest.warns(RuntimeWarning) if ignored == n else contextlib.nullcontext():
            loss = T.cross_entropy_logits(terms, labels)
        want, want_grads = oracles.frozen_cross_entropy(
            list(zip(logits, (1.0, 0.4))), labels, ignore)
        same(loss.data, want)
        for got, expected in zip(loss._backward_fn(np.ones((), dtype=loss.dtype)),
                                 want_grads, strict=True):
            same(got, expected)


def narrow_and_wide_logits(rng, dtype, n, m):
    x = (rng.normal(0, 4, (n, m)) * 10.0 ** rng.integers(-3, 3, (n, m))).astype(dtype)
    x[0] = -0.0  # a row of negative zeros, whose sum numpy takes from +0
    if m > 1:
        x[1, ::2] = 0.0
    return x


class TestRowSoftmax:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 8, 9, 16])
    def test_reduce_rows_is_numpys_row_reduction(self, rng, dtype, m):
        x = narrow_and_wide_logits(rng, dtype, 300, m)
        same(T._reduce_rows(np.add, x), x.sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(T._reduce_rows(np.maximum, x),
                                      x.max(axis=1, keepdims=True))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", [1, 3, 6, 7, 8, 11])
    def test_softmax_rows_forward_and_backward(self, rng, dtype, m):
        x = narrow_and_wide_logits(rng, dtype, 200, m)
        out = T.softmax_rows(*leaves(x))
        same(out.data, oracles.frozen_softmax_rows(x))
        g = rng.normal(0, 1, out.shape).astype(dtype)
        (got,) = out._backward_fn(g)
        same(got, oracles.frozen_softmax_grad(out.data, g))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m,scale", [(6, 1.0), (6, 0.25), (3, 1.0), (9, 0.5)])
    def test_relation_softmax_and_attend(self, rng, dtype, m, scale):
        q, k, v = (rng.normal(0, 1, shape).astype(dtype) for shape in ((4, 50), (4, m), (3, m)))
        # the relation: the scaled row softmax of the product's logits
        temperature = 1.0 / scale
        x = q.T @ k
        s = oracles.frozen_softmax_rows(x / temperature)
        rel = T.softmax_rows(*leaves(x), scale)
        same(rel.data, s)
        g = rng.normal(0, 1, rel.shape).astype(dtype)
        (dx,) = rel._backward_fn(g)
        same(dx, oracles.frozen_softmax_grad(s, g, temperature))

        ctx = T.attend(*leaves(q, k, v), scale)
        same(ctx.data, s @ v.T)
        g = rng.normal(0, 1, ctx.shape).astype(dtype)
        ds = oracles.frozen_softmax_grad(s, g @ v, temperature)
        dq, dk, dv = ctx._backward_fn(g)
        same(dq, (ds @ k.T).T)
        same(dk, q @ ds)
        same(dv, (s.T @ g).T)


class TestTape:
    def test_gradients_add_in_replay_order(self, rng):
        # three consumers of one op result, made in order: the replay meets
        # the last first, and adds each later gradient to the sum so far
        leaf = T.Tensor(rng.normal(0, 1, (4, 6)), requires_grad=True)
        shared = T.reshape(leaf, (4, 6))
        weights = [rng.normal(0, 1e3 ** i, (3, 4)) for i in range(3)]
        labels = rng.integers(0, 3, 6)
        logits = [T.matmul(T.Tensor(w), shared) for w in weights]
        T.backward(T.cross_entropy_logits([(t, 1.0) for t in logits], labels))
        _, gl = oracles.frozen_cross_entropy([(t.data, 1.0) for t in logits], labels, 255)
        grads = [w.T @ g for w, g in zip(weights, gl)]
        same(leaf.grad, (grads[2] + grads[1]) + grads[0])


# ---------------------------------------------------------------------------
# the simplex check: same verdicts and messages as its frozen copy

ROW_KINDS = ("simplex", "zero", "nan", "negative", "off", "near")


@st.composite
def simplex_cases(draw):
    dtype = draw(st.sampled_from(DTYPES))
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tol = SIMPLEX_TOL_SINGLE if dtype == np.float32 else SIMPLEX_TOL
    mat = rng.uniform(0.01, 1.0, (rows, cols))
    mat /= mat.sum(axis=1, keepdims=True)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(ROW_KINDS),
                                           min_size=rows, max_size=rows))):
        if kind == "zero":
            mat[i] = 0.0
        elif kind == "nan":
            mat[i, rng.integers(cols)] = np.nan
        elif kind == "negative":
            mat[i, rng.integers(cols)] = -draw(st.sampled_from([0.5, 2 * tol, tol / 2]))
        elif kind in ("off", "near"):
            factor = draw(st.sampled_from([3.0, 1.5, 1.0, 0.5, -0.5, -1.0, -1.5, -3.0]))
            mat[i] *= 1.0 + factor * tol * (1.0 if kind == "off" else 0.999)
    exempt = draw(st.lists(st.integers(-2, rows + 1), max_size=4))
    first = draw(st.sampled_from([0, 7, 1024]))
    return mat.astype(dtype), tuple(exempt), first


def verdict(check, mat, exempt, first):
    try:
        check(mat, exempt, "M.weights", first)
    except ParameterError as exc:
        return str(exc)
    return None


class TestSimplexCheck:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(simplex_cases())
    def test_same_verdict_and_message_as_the_frozen_check(self, case):
        mat, exempt, first = case
        assert (verdict(_check_simplex_rows, mat, exempt, first)
                == verdict(oracles.check_simplex_rows_frozen, mat, exempt, first))

    def test_cases_reach_every_verdict(self):
        # the drawn cases pass, and fail on each of the check's three messages
        seen = set()

        @settings(derandomize=True, database=None, max_examples=400, deadline=None)
        @given(simplex_cases())
        def collect(case):
            message = verdict(oracles.check_simplex_rows_frozen, *case)
            seen.add("pass" if message is None else message.split(" ")[-1])

        collect()
        assert seen >= {"pass", "weights", "zero", "1"}
