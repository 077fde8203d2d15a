"""Dense-array core: forward values against loop-written oracles, reverse-mode
gradients against central finite differences, and allocation tracking."""
import warnings

import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.errors import DataError, DimensionError, ParameterError, StateError

import oracles
from conftest import tensor


def rel_err(a: float, b: float, floor: float = 1e-3) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def max_grad_fd_error(params, forward, h=1e-6):
    """Worst relative disagreement between tape gradients and central
    differences, swept over every entry of every parameter."""
    loss = forward()
    T.backward(loss)
    grads = [np.array(p.grad, copy=True) for p in params]
    T.zero_grads(params)
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in np.ndindex(p.data.shape):
            def evaluate():
                with T.no_grad():
                    return float(forward().data)
            fd = oracles.central_difference(p.data, idx, evaluate, h)
            worst = max(worst, rel_err(float(g[idx]), fd))
    return worst


def projected(out, rng):
    """Scalarize an op output with a fixed random projection."""
    proj = T.Tensor(rng.normal(0.0, 1.0, out.data.shape))
    return T.sum_all(T.mul(out, proj))


# ---------------------------------------------------------------------------
# matmul


class TestMatmul:
    def test_identity(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = tensor(np.eye(2))
        assert np.array_equal(T.matmul(a, eye).data, a.data)

    def test_hand_product(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[5.0, 6.0], [7.0, 8.0]])
        expect = [[19.0, 22.0], [43.0, 50.0]]
        assert np.allclose(T.matmul(a, b).data, expect, atol=0, rtol=0)

    def test_against_triple_loop(self, rng):
        a = rng.normal(0, 1, (5, 4))
        b = rng.normal(0, 1, (4, 3))
        got = T.matmul(tensor(a), tensor(b)).data
        want = oracles.matmul_loops(a, b)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_triple_loop_sweep_small_dims(self, rng):
        for _ in range(20):
            m, k, n = (int(rng.integers(1, 17)) for _ in range(3))
            a = rng.normal(0, 1, (m, k))
            b = rng.normal(0, 1, (k, n))
            got = T.matmul(tensor(a), tensor(b)).data
            assert np.max(np.abs(got - oracles.matmul_loops(a, b))) < 1e-12

    def test_dimension_error_reports_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            T.matmul(tensor(np.ones((2, 3))), tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            T.matmul(tensor(np.ones(3)), tensor(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# rowwise softmax


class TestSoftmaxRows:
    def test_uniform_logits(self):
        out = T.softmax_rows(tensor([[0.0, 0.0, 0.0]])).data
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_two_logit_hand_value(self):
        out = T.softmax_rows(tensor([[1.0, 0.0]])).data
        assert abs(out[0, 0] - 0.7311) < 1e-4
        assert abs(out[0, 1] - 0.2689) < 1e-4

    def test_extreme_logits_no_overflow(self):
        out = T.softmax_rows(tensor([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(out))
        assert abs(out[0, 0] - 1.0) < 1e-12 and out[0, 1] < 1e-12

    def test_rows_sum_to_one_with_huge_ranges(self, rng):
        for _ in range(50):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(2, 9))
            logits = rng.normal(0, 400, (rows, cols))
            logits[0, 0] += 800  # force a spread beyond exp range
            out = T.softmax_rows(tensor(logits)).data
            assert np.all(np.isfinite(out))
            assert np.all(out >= 0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9

    def test_matches_scalar_oracle(self, rng):
        logits = rng.normal(0, 3, (4, 5))
        got = T.softmax_rows(tensor(logits), temperature=0.7).data
        want = oracles.softmax_rows_loops(logits, temperature=0.7)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature(self, temperature):
        with pytest.raises(ParameterError):
            T.softmax_rows(tensor([[1.0, 2.0]]), temperature=temperature)


# ---------------------------------------------------------------------------
# elementwise and shape ops


class TestElementwiseAndShapes:
    def test_add_mul_scale(self):
        a, b = tensor([[1.0, -2.0]]), tensor([[3.0, 5.0]])
        assert np.array_equal(T.add(a, b).data, [[4.0, 3.0]])
        assert np.array_equal(T.mul(a, b).data, [[3.0, -10.0]])
        assert np.array_equal(T.scale(a, -2.0).data, [[-2.0, 4.0]])

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(tensor(np.ones((2, 2))), tensor(np.ones((2, 3))))

    def test_column_broadcast_ops(self):
        x = tensor([[1.0, 2.0], [3.0, 4.0]])
        v = tensor([10.0, 100.0])
        assert np.array_equal(T.add_col(x, v).data, [[11.0, 12.0], [103.0, 104.0]])
        assert np.array_equal(T.mul_col(x, v).data, [[10.0, 20.0], [300.0, 400.0]])

    def test_relu(self):
        out = T.relu(tensor([[-1.0, 0.0, 2.5]])).data
        assert np.array_equal(out, [[0.0, 0.0, 2.5]])

    def test_transpose_reshape_concat(self):
        x = tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(T.transpose(x).data, x.data.T)
        assert np.array_equal(T.reshape(x, (3, 2)).data, x.data.reshape(3, 2))
        y = tensor([[7.0, 8.0, 9.0]])
        cat = T.concat0(x, y)
        assert cat.shape == (3, 3)
        assert np.array_equal(cat.data[2], [7.0, 8.0, 9.0])

    def test_layout_ops_are_views(self, rng):
        x = tensor(rng.normal(0, 1, (2, 6)))
        assert np.shares_memory(T.reshape(x, (3, 4)).data, x.data)
        assert np.shares_memory(T.transpose(x).data, x.data)
        assert np.shares_memory(T.reshape(T.reshape(x, (12,)), (2, 6)).data, x.data)

    def test_reshape_of_transposed_view_has_transposed_order(self):
        x = tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        flat = T.reshape(T.transpose(x), (6,))
        assert np.array_equal(flat.data, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0])

    def test_gradients_flow_through_views(self, rng):
        x = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        w = rng.normal(0, 1, (3, 2))
        T.backward(T.sum_all(T.mul(T.transpose(x), tensor(w))))
        assert np.array_equal(x.grad, w.T)
        x.zero_grad()
        T.backward(T.sum_all(T.mul(T.reshape(x, (6,)), tensor(w.ravel()))))
        assert np.array_equal(x.grad, w.ravel().reshape(2, 3))

    def test_matmul_reads_transposed_views(self, rng):
        a = rng.normal(0, 1, (4, 3))
        b = rng.normal(0, 1, (5, 3))
        got = T.matmul(T.transpose(tensor(a.T.copy())), T.transpose(tensor(b)))
        assert np.max(np.abs(got.data - oracles.matmul_loops(a, b.T))) < 1e-12

    def test_reductions_and_tiling(self):
        x = tensor([[1.0, 3.0], [2.0, 6.0]])
        assert float(T.sum_all(x).data) == 12.0
        assert np.array_equal(T.mean_cols(x).data, [[2.0], [4.0]])
        tiled = T.tile_cols(tensor([[5.0], [7.0]]), 3)
        assert np.array_equal(tiled.data, [[5.0, 5.0, 5.0], [7.0, 7.0, 7.0]])


# ---------------------------------------------------------------------------
# fused frozen-BN + ReLU


def bn_chain(h, gain, shift, inv_std, mean):
    """The unfused op chain affine_relu replaces: center, scale, shift, rectify."""
    centered = T.add_col(h, T.Tensor(-mean))
    return T.relu(T.add_col(T.mul_col(centered, T.mul(gain, T.Tensor(inv_std))), shift))


def affine_args(rng, channels):
    gain = tensor(rng.uniform(0.5, 1.5, channels), requires_grad=True)
    shift = tensor(rng.uniform(-0.5, 0.5, channels), requires_grad=True)
    inv_std = 1.0 / np.sqrt(rng.uniform(0.5, 2.0, channels) + 1e-5)
    return gain, shift, inv_std, rng.normal(0, 1, channels)


class TestAffineRelu:
    def test_matches_unfused_chain(self, rng):
        for _ in range(20):
            c, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            h = tensor(rng.normal(0, 2, (c, m)))
            args = affine_args(rng, c)
            got = T.affine_relu(h, *args).data
            want = bn_chain(h, *args).data
            assert np.max(np.abs(got - want)) < 1e-12

    def test_acts_per_channel_on_any_rank(self, rng):
        h = rng.normal(0, 1, (3, 4, 5))
        args = affine_args(rng, 3)
        got = T.affine_relu(tensor(h), *args).data
        flat = T.affine_relu(tensor(h.reshape(3, 20)), *args).data
        assert np.array_equal(got, flat.reshape(3, 4, 5))

    def test_output_owns_fresh_buffer(self, rng):
        h = tensor(rng.normal(0, 1, (2, 5)))
        before = h.data.copy()
        out = T.affine_relu(h, *affine_args(rng, 2))
        assert not np.shares_memory(out.data, h.data)
        assert np.array_equal(h.data, before)

    def test_shape_checks(self, rng):
        gain, shift, inv_std, mean = affine_args(rng, 3)
        with pytest.raises(DimensionError):
            T.affine_relu(tensor(np.ones((2, 4))), gain, shift, inv_std, mean)
        with pytest.raises(DimensionError):
            T.affine_relu(tensor(np.ones(3)), gain, shift, inv_std, mean)
        with pytest.raises(DimensionError):
            T.affine_relu(tensor(np.ones((3, 4))), gain, shift, inv_std, mean[:2])

    def test_records_op_and_parents(self, rng):
        h = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        gain, shift, inv_std, mean = affine_args(rng, 3)
        out = T.affine_relu(h, gain, shift, inv_std, mean)
        assert out._opname == "affine_relu"
        assert out._parents == (h, gain, shift)

    def test_no_grad_records_nothing(self, rng):
        h = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        with T.no_grad():
            out = T.affine_relu(h, *affine_args(rng, 3))
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None

    def test_trace_gets_min_abs_preactivation(self, rng):
        h = tensor(rng.normal(0, 1, (3, 4)))
        args = affine_args(rng, 3)
        trace = []
        T.affine_relu(h, *args, trace=trace)
        gain, shift, inv_std, mean = args
        pre = (h.data - mean[:, None]) * (gain.data * inv_std)[:, None] + shift.data[:, None]
        assert len(trace) == 1
        assert abs(trace[0] - np.abs(pre).min()) < 1e-12
        T.affine_relu(tensor(np.ones((3, 0))), *args, trace=trace)
        assert len(trace) == 1


# ---------------------------------------------------------------------------
# pointwise and spatial convolution


class TestConv1x1:
    def test_identity_weight(self, rng):
        x = rng.normal(0, 1, (3, 7))
        out = T.conv1x1(tensor(x), tensor(np.eye(3)))
        assert np.array_equal(out.data, x)

    def test_single_pixel_is_matvec(self, rng):
        x = rng.normal(0, 1, (4, 1))
        w = rng.normal(0, 1, (2, 4))
        got = T.conv1x1(tensor(x), tensor(w)).data
        assert np.max(np.abs(got - oracles.matmul_loops(w, x))) < 1e-12

    def test_matches_per_pixel_loop(self, rng):
        x = rng.normal(0, 1, (3, 2, 2))
        w = rng.normal(0, 1, (2, 3))
        b = rng.normal(0, 1, 2)
        got = T.conv1x1(tensor(x), tensor(w), tensor(b)).data
        want = oracles.conv1x1_loops(x, w, b)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_loop_oracle_sweep_small_dims(self, rng):
        for _ in range(15):
            c_in = int(rng.integers(1, 9))
            c_out = int(rng.integers(1, 9))
            n = int(rng.integers(1, 17))
            x = rng.normal(0, 1, (c_in, n))
            w = rng.normal(0, 1, (c_out, c_in))
            got = T.conv1x1(tensor(x), tensor(w)).data
            assert np.max(np.abs(got - oracles.conv1x1_loops(x, w))) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            T.conv1x1(tensor(np.ones((3, 4))), tensor(np.ones((2, 5))))


class TestConvSpatial:
    def test_center_delta_kernel_is_identity(self, rng):
        x = rng.normal(0, 1, (2, 4, 4))
        w = np.zeros((2, 2, 3, 3))
        for c in range(2):
            w[c, c, 1, 1] = 1.0
        for dilation in (1, 2):
            out = T.conv_spatial(tensor(x), tensor(w), dilation=dilation)
            assert np.max(np.abs(out.data - x)) < 1e-15

    def test_matches_direct_summation(self, rng):
        x = rng.normal(0, 1, (2, 4, 4))
        w = rng.normal(0, 1, (3, 2, 3, 3))
        b = rng.normal(0, 1, 3)
        for dilation in (1, 2):
            got = T.conv_spatial(tensor(x), tensor(w), dilation=dilation,
                                 bias=tensor(b)).data
            want = oracles.conv_spatial_loops(x, w, dilation, b)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_single_pixel_only_center_tap(self, rng):
        x = rng.normal(0, 1, (1, 1, 1))
        w = rng.normal(0, 1, (1, 1, 3, 3))
        out = T.conv_spatial(tensor(x), tensor(w), dilation=2)
        assert abs(float(out.data[0, 0, 0]) - float(w[0, 0, 1, 1] * x[0, 0, 0])) < 1e-15

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            T.conv_spatial(tensor(np.ones((1, 3, 3))), tensor(np.ones((1, 1, 2, 2))))


class TestPoolingAndResize:
    def test_avg_pool_matches_loop(self, rng):
        x = rng.normal(0, 1, (2, 5, 5))
        got = T.avg_pool2d(tensor(x), 2, 2).data
        assert np.max(np.abs(got - oracles.avg_pool_loops(x, 2, 2))) < 1e-12

    def test_avg_pool_bounds(self):
        with pytest.raises(ParameterError):
            T.avg_pool2d(tensor(np.ones((1, 3, 3))), 4, 2)
        with pytest.raises(ParameterError):
            T.avg_pool2d(tensor(np.ones((1, 3, 3))), 0, 2)

    def test_upsample_matches_loop(self, rng):
        x = rng.normal(0, 1, (2, 2, 3))
        got = T.upsample_nearest(tensor(x), 5, 7).data
        assert np.array_equal(got, oracles.upsample_nearest_loops(x, 5, 7))

    def test_upsample_cannot_shrink(self):
        with pytest.raises(ParameterError):
            T.upsample_nearest(tensor(np.ones((1, 4, 4))), 2, 4)

    def test_full_bin_pool_then_upsample_roundtrip(self, rng):
        x = rng.normal(0, 1, (3, 4, 4))
        pooled = T.avg_pool2d(tensor(x), 4, 4)
        back = T.upsample_nearest(pooled, 4, 4)
        assert np.max(np.abs(back.data - x)) < 1e-15


# ---------------------------------------------------------------------------
# pixel-wise cross entropy


class TestCrossEntropy:
    def test_peaked_logits_near_zero_loss(self):
        logits = np.zeros((3, 4))
        labels = np.array([0, 1, 2, 1])
        logits[labels, np.arange(4)] = 1000.0
        loss = T.cross_entropy_logits(tensor(logits), labels)
        assert float(loss.data) < 1e-6

    def test_uniform_logits_log_k(self):
        loss = T.cross_entropy_logits(tensor(np.zeros((4, 5))),
                                      np.array([0, 1, 2, 3, 0]))
        assert abs(float(loss.data) - np.log(4.0)) < 1e-6

    def test_matches_scalar_loop(self, rng):
        logits = rng.normal(0, 2, (3, 8))
        labels = rng.integers(0, 3, 8)
        got = float(T.cross_entropy_logits(tensor(logits), labels).data)
        assert abs(got - oracles.cross_entropy_loops(logits, labels)) < 1e-12

    def test_ignored_pixels_excluded(self, rng):
        logits = rng.normal(0, 2, (3, 6))
        labels = np.array([0, 255, 2, 255, 1, 0])
        got = float(T.cross_entropy_logits(tensor(logits), labels).data)
        assert abs(got - oracles.cross_entropy_loops(logits, labels)) < 1e-12

    def test_all_ignored_warns_and_zero(self):
        labels = np.full(3, 255)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss = T.cross_entropy_logits(tensor(np.zeros((2, 3))), labels)
        assert float(loss.data) == 0.0
        assert any("ignored" in str(w.message) for w in caught)

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            T.cross_entropy_logits(tensor(np.zeros((2, 3))), np.array([0, 2, 1]))


# ---------------------------------------------------------------------------
# reverse-mode differentiation


class TestAutogradBasics:
    def test_sum_gradient_is_ones(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        data = rng.normal(0, 1, (2, 3))
        x = tensor(data, requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        assert np.max(np.abs(x.grad - 2 * data)) < 1e-12

    def test_grad_accumulates_across_backwards(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        T.backward(T.sum_all(x))
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, 2 * np.ones((2, 2)))
        T.zero_grads([x])
        assert x.grad is None

    def test_non_scalar_loss_rejected(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        with pytest.raises(ParameterError):
            T.backward(T.relu(x))

    def test_graphless_loss_rejected(self):
        x = tensor(np.ones((2, 2)))  # requires_grad=False
        with pytest.raises(ParameterError):
            T.backward(T.sum_all(x))

    def test_tape_is_single_use(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        loss = T.sum_all(T.mul(x, x))
        tape = T.backward(loss)
        with pytest.raises(StateError):
            tape.run(loss)
        with pytest.raises(StateError):
            T.backward(loss, tape=tape)

    def test_no_grad_suppresses_recording(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        with T.no_grad():
            out = T.sum_all(T.mul(x, x))
        assert not out.requires_grad
        with pytest.raises(ParameterError):
            T.backward(out)


class TestGradientsEveryOp:
    """Central-difference agreement (h=1e-6, double) for each primitive."""

    TOL = 1e-4

    def test_matmul(self, rng):
        a = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        b = tensor(rng.normal(0, 1, (4, 2)), requires_grad=True)
        fwd = lambda: projected(T.matmul(a, b), np.random.default_rng(7))
        assert max_grad_fd_error([a, b], fwd) < self.TOL

    def test_transpose_reshape_concat(self, rng):
        a = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        b = tensor(rng.normal(0, 1, (1, 3)), requires_grad=True)

        def fwd():
            cat = T.concat0(T.reshape(T.transpose(a), (2, 3)), b)
            return projected(cat, np.random.default_rng(8))

        assert max_grad_fd_error([a, b], fwd) < self.TOL

    def test_add_mul_scale(self, rng):
        a = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        b = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)

        def fwd():
            return projected(T.scale(T.mul(T.add(a, b), b), 1.7),
                             np.random.default_rng(9))

        assert max_grad_fd_error([a, b], fwd) < self.TOL

    def test_column_ops(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        v = tensor(rng.normal(0, 1, 3), requires_grad=True)

        def fwd():
            return projected(T.mul_col(T.add_col(x, v), v),
                             np.random.default_rng(10))

        assert max_grad_fd_error([x, v], fwd) < self.TOL

    def test_relu_away_from_kink(self, rng):
        data = rng.normal(0, 1, (3, 4))
        data[np.abs(data) < 0.05] = 0.1
        x = tensor(data, requires_grad=True)
        fwd = lambda: projected(T.relu(x), np.random.default_rng(11))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_softmax_rows(self, rng):
        x = tensor(rng.normal(0, 2, (3, 4)), requires_grad=True)
        fwd = lambda: projected(T.softmax_rows(x, temperature=0.8),
                                np.random.default_rng(12))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_reductions(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)

        def fwd():
            return projected(T.tile_cols(T.mean_cols(x), 5),
                             np.random.default_rng(13))

        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_conv1x1(self, rng):
        x = tensor(rng.normal(0, 1, (3, 2, 2)), requires_grad=True)
        w = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        b = tensor(rng.normal(0, 1, 2), requires_grad=True)
        fwd = lambda: projected(T.conv1x1(x, w, b), np.random.default_rng(14))
        assert max_grad_fd_error([x, w, b], fwd) < self.TOL

    def test_conv_spatial(self, rng):
        x = tensor(rng.normal(0, 1, (2, 3, 3)), requires_grad=True)
        w = tensor(rng.normal(0, 1, (2, 2, 3, 3)), requires_grad=True)
        b = tensor(rng.normal(0, 1, 2), requires_grad=True)
        fwd = lambda: projected(T.conv_spatial(x, w, dilation=2, bias=b),
                                np.random.default_rng(15))
        assert max_grad_fd_error([x, w, b], fwd) < self.TOL

    def test_avg_pool(self, rng):
        x = tensor(rng.normal(0, 1, (2, 5, 5)), requires_grad=True)
        fwd = lambda: projected(T.avg_pool2d(x, 2, 3), np.random.default_rng(16))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_upsample(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2, 2)), requires_grad=True)
        fwd = lambda: projected(T.upsample_nearest(x, 5, 4),
                                np.random.default_rng(17))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_affine_relu(self, rng):
        h = tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
        gain, shift, inv_std, mean = affine_args(rng, 3)
        trace = []

        def fwd():
            out = T.affine_relu(h, gain, shift, inv_std, mean, trace=trace)
            return projected(out, np.random.default_rng(18))

        assert max_grad_fd_error([h, gain, shift], fwd) < self.TOL
        assert min(trace) > 1e-3  # every finite difference stays off the kink

    def test_cross_entropy(self, rng):
        x = tensor(rng.normal(0, 2, (3, 6)), requires_grad=True)
        labels = np.array([0, 1, 2, 255, 1, 0])
        fwd = lambda: T.cross_entropy_logits(x, labels)
        assert max_grad_fd_error([x], fwd) < self.TOL


# ---------------------------------------------------------------------------
# tracked allocation accounting


class TestAllocationTracker:
    def test_thousand_doubles_counted(self):
        with T.AllocationTracker() as tracker:
            buf = T.Tensor(np.zeros(1000))
            current, peak = T.tracked_alloc_stats()
        assert peak >= 8000
        assert current >= 8000
        del buf
        assert tracker.peak_bytes >= 8000

    def test_empty_scope_zero_peak(self):
        with T.AllocationTracker() as tracker:
            pass
        assert tracker.peak_bytes == 0

    def test_stats_outside_scope_rejected(self):
        with pytest.raises(StateError):
            T.tracked_alloc_stats()

    def test_tracker_single_use(self):
        tracker = T.AllocationTracker()
        with tracker:
            pass
        with pytest.raises(StateError):
            with tracker:
                pass

    def test_release_lowers_current_not_peak(self):
        with T.AllocationTracker() as tracker:
            a = T.Tensor(np.zeros(500))
            first, _ = T.tracked_alloc_stats()
            del a
            b = T.Tensor(np.zeros(100))  # noqa: F841 keeps buffer alive
            current, peak = T.tracked_alloc_stats()
        assert first >= 4000
        assert current < first
        assert peak >= first

    def test_layout_views_add_no_bytes(self, rng):
        with T.AllocationTracker():
            x = T.Tensor(rng.normal(0, 1, (4, 6)))
            before = T.tracked_alloc_stats()
            views = [T.reshape(x, (6, 4)), T.transpose(x), T.reshape(x, (24,))]
            assert T.tracked_alloc_stats() == before
        assert all(np.shares_memory(v.data, x.data) for v in views)

    def test_compute_ops_charge_their_output(self, rng):
        x = T.Tensor(rng.normal(0, 1, (2, 3, 4)))
        w = T.Tensor(rng.normal(0, 1, (5, 2)))
        k = T.Tensor(rng.normal(0, 1, (5, 2, 3, 3)))
        ops = (lambda: T.conv1x1(x, w), lambda: T.conv_spatial(x, k),
               lambda: T.upsample_nearest(x, 6, 8), lambda: T.avg_pool2d(x, 1, 2))
        for op in ops:
            with T.AllocationTracker():
                out = op()
                assert T.tracked_alloc_stats()[0] == out.data.nbytes

    def test_view_keeps_buffer_charged_until_freed(self, rng):
        with T.AllocationTracker():
            owner = T.Tensor(rng.normal(0, 1, (10, 10)))
            view = T.transpose(owner)
            del owner
            assert T.tracked_alloc_stats()[0] == 800
            del view
            assert T.tracked_alloc_stats()[0] == 0

    def test_repeated_runs_identical_peaks(self, rng):
        def run():
            data = rng.normal(0, 1, (4, 9))
            with T.AllocationTracker() as tracker:
                x = T.Tensor(np.array(data))
                y = T.softmax_rows(x)
                z = T.matmul(y, T.transpose(y))  # noqa: F841
            return tracker.peak_bytes

        peaks = {run() for _ in range(3)}
        assert len(peaks) == 1
        assert peaks.pop() > 0
