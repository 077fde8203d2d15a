"""Dense-array core: forward values against loop-written oracles, reverse-mode
gradients against central finite differences, and allocation tracking."""
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.context import FeatureMap
from ocrseg.errors import DataError, DimensionError, ParameterError, StateError
from ocrseg.models import ModelConfig, build_model

import oracles
from conftest import dot_all, max_grad_fd_error, projected, sum_all, tensor


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
        got = T.softmax_rows(tensor(logits)).data
        want = oracles.softmax_rows_loops(logits)
        assert np.max(np.abs(got - want)) < 1e-12


class TestRelationSoftmax:
    """A relation's weights, softmax_rows(matmul(transpose(q), k), scale): the
    scaled row softmax of the queries' products with the keys."""

    @staticmethod
    def relation(q, k, scale):
        return T.softmax_rows(T.matmul(T.transpose(q), k), scale)

    @staticmethod
    def two_op(q, k, scale):
        """The product of the scaled queries, then the unscaled row softmax.
        A power-of-two scale scales exactly."""
        q = T.Tensor(q.data * scale)
        return T.softmax_rows(T.matmul(T.transpose(q), k)).data

    @pytest.mark.parametrize("n, m, dtype", [
        (300, 4096, np.float64),
        (50, 19, np.float64),      # the ocr head's relation to 19 regions
        (70, 1, np.float64),       # one key: every weight is 1
        (600, 4096, np.float32),
    ])
    def test_forward_bitwise_equal_to_product_then_softmax(self, rng, n, m, dtype):
        q = T.Tensor(rng.normal(0, 1, (8, n)).astype(dtype))
        k = T.Tensor(rng.normal(0, 1, (8, m)).astype(dtype))
        for scale in (1.0, 0.125):
            got = self.relation(q, k, scale).data
            assert got.dtype == dtype and got.shape == (n, m)
            assert np.array_equal(got, self.two_op(q, k, scale))

    def test_owns_its_buffer(self, rng):
        # queries may arrive as a transposed view, as the region head's rows
        # do in the attention form
        q_rows, k = tensor(rng.normal(0, 1, (5, 3))), tensor(rng.normal(0, 1, (3, 4)))
        out = self.relation(T.transpose(q_rows), k, 1.0)
        assert out.data.base is None and out.data.flags.c_contiguous

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scale(self, scale):
        with pytest.raises(ParameterError):
            T.softmax_rows(tensor([[1.0, 2.0]]), scale)

    def test_key_width_mismatch(self):
        q, k, v = tensor(np.ones((2, 3))), tensor(np.ones((3, 3))), tensor(np.ones((4, 3)))
        with pytest.raises(DimensionError):
            self.relation(q, k, 1.0)
        with pytest.raises(DimensionError):
            T.attend(q, k, v, 1.0)


def self_attn_peak(rng, side, train):
    """``tracemalloc`` peak of one self_attn forward (no_grad) or one training
    step (forward and backward), after a warm-up."""
    model = build_model(ModelConfig(module="self_attn", in_channels=5, num_classes=3,
                                    key_channels=4, mid_channels=6, seed=7),
                        image_size=side)
    x = FeatureMap(tensor(rng.normal(0, 1, (5, side, side))))

    def step():
        if not train:
            with T.no_grad():
                return model.forward(x)
        T.backward(sum_all(model.forward(x).final_logits))

    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAttend:
    @staticmethod
    def two_op(q, k, v, scale):
        """The relation, then the product with the values: what the fused op
        forms in one."""
        return T.matmul(T.softmax_rows(T.matmul(T.transpose(q), k), scale), T.transpose(v))

    # blocks of 600 (one block), 256 (the last 88) and 112 rows (the last
    # 40). Every block's product has over 10^6 multiply-adds: OpenBLAS takes
    # a small-matrix kernel, which sums in another order, below that
    @pytest.mark.parametrize("rows", [600, 256, 112])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_relation_then_matmul(self, rng, monkeypatch, rows, dtype):
        n, m, c_v = 600, 1000, 64
        monkeypatch.setattr(T, "_ACCUMULATE_BYTES", np.dtype(dtype).itemsize * m * rows)
        data = [rng.normal(0, 1, shape).astype(dtype) for shape in ((8, n), (8, m), (c_v, m))]
        g = rng.normal(0, 1, (n, c_v)).astype(dtype)
        for scale in (1.0, 0.3):
            with T.no_grad():
                got = T.attend(*(T.Tensor(d) for d in data), scale).data
                want = self.two_op(*(T.Tensor(d) for d in data), scale).data
            assert got.dtype == dtype and got.shape == (n, c_v)
            assert np.array_equal(got, want)
            leaves = [T.Tensor(d, requires_grad=True) for d in data]
            out = T.attend(*leaves, scale)
            assert np.array_equal(out.data, want)
            T.backward(dot_all(out, T.Tensor(g)))
            # the backward runs in the same row blocks: each block's queries
            # get the gradient of the two ops on that band of them, the keys
            # the sum of the bands' in block order, the values the whole's
            want_q, want_k = [], None
            for r0 in range(0, n, rows):
                band = [T.Tensor(d, requires_grad=True)
                        for d in (data[0][:, r0:r0 + rows], *data[1:])]
                T.backward(dot_all(self.two_op(*band, scale), T.Tensor(g[r0:r0 + rows])))
                want_q.append(band[0].grad)
                want_k = band[1].grad if want_k is None else want_k + band[1].grad
            whole = [T.Tensor(d, requires_grad=True) for d in data]
            T.backward(dot_all(self.two_op(*whole, scale), T.Tensor(g)))
            wants = (np.concatenate(want_q, axis=1), want_k, whole[2].grad)
            for leaf, want_grad in zip(leaves, wants, strict=True):
                assert leaf.grad.dtype == dtype and np.array_equal(leaf.grad, want_grad)

    def test_shape_and_scale_checks(self):
        q, k = tensor(np.ones((2, 3))), tensor(np.ones((2, 4)))
        with pytest.raises(DimensionError):
            T.attend(q, k, tensor(np.ones((5, 3))), 1.0)  # values do not match keys
        with pytest.raises(DimensionError):
            T.attend(q, tensor(np.ones((3, 4))), tensor(np.ones((5, 4))), 1.0)
        with pytest.raises(DimensionError):
            T.attend(q, k, tensor(np.ones(4)), 1.0)
        with pytest.raises(DimensionError):
            T.attend(tensor(np.ones(2)), k, tensor(np.ones((5, 4))), 1.0)
        with pytest.raises(DimensionError):
            T.attend(q, tensor(np.ones((2, 4, 1))), tensor(np.ones((5, 4))), 1.0)
        with pytest.raises(ParameterError):
            T.attend(q, k, tensor(np.ones((5, 4))), 0.0)

    def test_no_grad_self_attention_holds_no_relation(self, rng):
        # under no_grad the dense baseline's N x N weights exist only one row
        # block at a time; a whole relation buffer is 8 N^2 bytes
        side = 48
        assert self_attn_peak(rng, side, train=False) < 8 * side ** 4 / 4

    def test_training_step_holds_one_relation(self, rng):
        # the backward keeps the N x N weights and forms no N x N gradient
        side = 48
        assert self_attn_peak(rng, side, train=True) < 1.5 * 8 * side ** 4

    def test_backward_scratch_is_two_row_blocks(self, rng):
        # beyond the kept relation, the backward holds a block's gradient,
        # normalised in place, and one temporary; dropping each block's
        # logits gradient before the next one is formed took the excess from
        # 3.28 blocks (56.2 MB in all) to 2.27 (52.0 MB)
        side = 48
        excess = self_attn_peak(rng, side, train=True) - 8 * side ** 4
        assert excess < 2.75 * T._ACCUMULATE_BYTES


# ---------------------------------------------------------------------------
# elementwise and shape ops


class TestElementwiseAndShapes:
    def test_relu(self):
        # the engine's one rectifier is the epilogue of conv_bn_relu; a unit
        # weight and gain and a zero shift leave the ReLU of the normalised input
        out = T.conv_bn_relu(tensor([[-1.0, 0.0, 2.5]]), tensor([[1.0]]),
                             tensor(np.ones(1)), tensor(np.zeros(1))).data
        assert np.array_equal(out, [[0.0, 0.0, 2.5 * INV_STD]])

    def test_transpose_reshape(self):
        x = tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(T.transpose(x).data, x.data.T)
        assert np.array_equal(T.reshape(x, (3, 2)).data, x.data.reshape(3, 2))

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
        T.backward(dot_all(T.transpose(x), tensor(w)))
        assert np.array_equal(x.grad, w.T)
        T.zero_grads([x])
        T.backward(dot_all(T.reshape(x, (6,)), tensor(w.ravel())))
        assert np.array_equal(x.grad, w.ravel().reshape(2, 3))

    def test_matmul_reads_transposed_views(self, rng):
        a = rng.normal(0, 1, (4, 3))
        b = rng.normal(0, 1, (5, 3))
        got = T.matmul(T.transpose(tensor(a.T.copy())), T.transpose(tensor(b)))
        assert np.max(np.abs(got.data - oracles.matmul_loops(a, b.T))) < 1e-12


# ---------------------------------------------------------------------------
# fused transform block: GEMM, frozen-BN affine and ReLU in one buffer


BN_EPS = 1e-5
INV_STD = 1.0 / np.sqrt(1.0 + BN_EPS)  # the normaliser of the frozen unit variance


def affine_args(rng, channels):
    """(gain, shift) of one block, grads on."""
    gain = tensor(rng.uniform(0.5, 1.5, channels), requires_grad=True)
    shift = tensor(rng.uniform(-0.5, 0.5, channels), requires_grad=True)
    return gain, shift


def block_args(rng, c_in, c_out, kernel=None):
    """(weight, gain, shift) of one block, all grads on."""
    shape = (c_out, c_in) if kernel is None else (c_out, c_in, kernel, kernel)
    return (tensor(rng.normal(0, 1, shape), requires_grad=True),) + affine_args(rng, c_out)


class TestAffineRelu:
    """The folded frozen-BN affine and ReLU epilogue of ``conv_bn_relu``."""

    def test_matches_unfused_chain(self, rng):
        for _ in range(20):
            c_in, c, m = (int(v) for v in rng.integers(1, 9, size=3))
            x = tensor(rng.normal(0, 2, (c_in, m)))
            w, *args = block_args(rng, c_in, c)
            got = T.conv_bn_relu(x, w, *args).data
            gain, shift = args
            want = oracles.bn_chain(T.conv1x1(x, w).data, gain.data, shift.data)
            assert np.max(np.abs(got - want)) < 1e-12
            # one input keeps the two-op chain's values bit for bit
            s = gain.data * INV_STD
            old = (w.data @ x.data) * s[:, None]
            old += shift.data[:, None]
            assert np.array_equal(got, np.maximum(old, 0.0))

    def test_acts_per_channel_on_any_rank(self, rng):
        x = rng.normal(0, 1, (3, 4, 5))
        w, *args = block_args(rng, 3, 2)
        got = T.conv_bn_relu(tensor(x), w, *args).data
        flat = T.conv_bn_relu(tensor(x.reshape(3, 20)), w, *args).data
        assert got.shape == (2, 4, 5)
        assert np.array_equal(got, flat.reshape(2, 4, 5))

    def test_output_owns_fresh_buffer(self, rng):
        x = tensor(rng.normal(0, 1, (2, 5)))
        before = x.data.copy()
        out = T.conv_bn_relu(x, *block_args(rng, 2, 2))
        assert out.data.base is None
        assert not np.shares_memory(out.data, x.data)
        assert np.array_equal(x.data, before)

    def test_shape_checks(self, rng):
        w, gain, shift = block_args(rng, 4, 3)
        with pytest.raises(DimensionError):
            T.conv_bn_relu(tensor(np.ones(4)), w, gain, shift)
        with pytest.raises(DimensionError):
            T.conv_bn_relu(tensor(np.ones((4, 2))), w, tensor(np.ones(1)), shift)
        with pytest.raises(DimensionError):
            T.conv_bn_relu(tensor(np.ones((4, 2))), w, gain, tensor(np.ones(2)))

    def test_records_op_and_parents(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        y = tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
        w, gain, shift = block_args(rng, 5, 3)
        out = T.conv_bn_relu((x, y), w, gain, shift)
        assert out._opname == "conv_bn_relu"
        assert out._parents == (x, y, w, gain, shift)
        w3, *args3 = block_args(rng, 3, 2, kernel=3)
        img = tensor(rng.normal(0, 1, (3, 4, 4)), requires_grad=True)
        out = T.conv_bn_relu(img, w3, *args3)
        assert out._opname == "conv_bn_relu"
        assert out._parents == (img, w3, args3[0], args3[1])

    def test_no_grad_records_nothing(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        y = tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
        img = tensor(rng.normal(0, 1, (3, 4, 4)), requires_grad=True)
        with T.no_grad():
            outs = [T.conv_bn_relu((x, y), *block_args(rng, 5, 3)),
                    T.conv_bn_relu(img, *block_args(rng, 3, 2, kernel=3))]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == () and out._backward_fn is None

    def test_trace_gets_min_abs_preactivation(self, rng, monkeypatch):
        x = rng.normal(0, 1, (3, 4))
        w, gain, shift = block_args(rng, 3, 3)
        monkeypatch.setattr(T, "_PREACT_TRACE", trace := [])
        T.conv_bn_relu(tensor(x), w, gain, shift)
        pre = (w.data @ x) * (gain.data * INV_STD)[:, None] + shift.data[:, None]
        assert len(trace) == 1
        assert abs(trace[0] - np.abs(pre).min()) < 1e-12
        T.conv_bn_relu(tensor(np.ones((3, 0))), w, gain, shift)
        assert len(trace) == 1


class TestConvBnRelu:
    def test_pointwise_matches_column_loops(self, rng):
        for _ in range(10):
            c_in, c_out, n = (int(v) for v in rng.integers(1, 8, size=3))
            x = rng.normal(0, 1, (c_in, n))
            w, gain, shift = block_args(rng, c_in, c_out)
            got = T.conv_bn_relu(tensor(x), w, gain, shift).data
            want = oracles.transform_loops(x, w.data, gain.data, shift.data)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_spatial_matches_tap_loops(self, rng):
        x = rng.normal(0, 1, (2, 5, 4))
        w, gain, shift = block_args(rng, 2, 3, kernel=3)
        got = T.conv_bn_relu(tensor(x), w, gain, shift).data
        pre = oracles.conv_spatial_loops(x, w.data, dilation=1)
        want = oracles.transform_loops(pre.reshape(3, -1), np.eye(3), gain.data,
                                       shift.data)
        assert got.shape == (3, 5, 4)
        assert np.max(np.abs(got - want.reshape(3, 5, 4))) < 1e-12

    @pytest.mark.parametrize("block_bytes", [24, 1 << 20])
    def test_parts_equal_concatenated_input(self, rng, monkeypatch, block_bytes):
        # 24 bytes = 3 float64 columns of a 1-row output, ragged last block
        monkeypatch.setattr(T, "_ACCUMULATE_BYTES", block_bytes)
        for shape in ((7,), (2, 5)):
            a, b, c = (rng.normal(0, 1, (ch,) + shape) for ch in (3, 1, 2))
            w, *args = block_args(rng, 6, 1)
            whole = T.conv_bn_relu(tensor(np.concatenate([a, b, c])), w, *args).data
            two = T.conv_bn_relu((tensor(np.concatenate([a, b])), tensor(c)), w, *args).data
            three = T.conv_bn_relu((tensor(a), tensor(b), tensor(c)), w, *args).data
            assert np.max(np.abs(two - whole)) < 1e-12
            assert np.max(np.abs(three - whole)) < 1e-12
            # a one-column part stands for itself at every position
            col = c[(slice(None),) + (slice(0, 1),) * len(shape)]
            spread = np.broadcast_to(col, c.shape)
            whole = T.conv_bn_relu(tensor(np.concatenate([a, b, spread])), w, *args).data
            one = T.conv_bn_relu((tensor(np.concatenate([a, b])), tensor(col)), w, *args).data
            assert np.max(np.abs(one - whole)) < 1e-12

    def test_single_precision_stays_single(self, rng):
        x = T.Tensor(rng.normal(0, 1, (3, 6)).astype(np.float32))
        y = T.Tensor(rng.normal(0, 1, (2, 6)).astype(np.float32))
        w = T.Tensor(rng.normal(0, 1, (4, 5)).astype(np.float32))
        gain, shift = (T.Tensor(np.ones(4, np.float32)) for _ in range(2))
        out = T.conv_bn_relu((x, y), w, gain, shift)
        assert out.dtype == np.float32

    def test_part_and_channel_mismatches(self, rng):
        w, *args = block_args(rng, 5, 3)
        with pytest.raises(DimensionError):  # channels add up to 4, not 5
            T.conv_bn_relu((tensor(np.ones((3, 2))), tensor(np.ones((1, 2)))), w, *args)
        with pytest.raises(DimensionError):  # trailing dims differ
            T.conv_bn_relu((tensor(np.ones((3, 2))), tensor(np.ones((2, 3)))), w, *args)
        # a later part has the first's trailing dims or is one column of the
        # same rank; a one-column first part takes no wider later part
        for first, other in (((3, 4), (2, 2)), ((3, 2, 2), (2, 1, 2)), ((3, 2, 2), (2, 1)),
                             ((3, 1), (2, 4)), ((3, 1, 1), (2, 2, 2))):
            with pytest.raises(DimensionError):
                T.conv_bn_relu((tensor(np.ones(first)), tensor(np.ones(other))), w, *args)
        with pytest.raises(DimensionError):
            T.conv_bn_relu((), w, *args)
        w3, *args3 = block_args(rng, 2, 3, kernel=3)
        with pytest.raises(DimensionError):
            T.conv_bn_relu((tensor(np.ones((1, 3, 3))), tensor(np.ones((1, 9)))), w3, *args3)
        with pytest.raises(DimensionError):
            T.conv_bn_relu(tensor(np.ones((2, 9))), w3, *args3)
        with pytest.raises(DimensionError):
            T.conv_bn_relu(tensor(np.ones((4, 3, 3))), w3, *args3)
        with pytest.raises(ParameterError):
            T.conv_bn_relu(tensor(np.ones((2, 3, 3))),
                           tensor(np.ones((3, 2, 2, 2))), *args3)


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
            out = T.conv_spatial(tensor(x), [(dilation, tensor(w))])
            assert np.max(np.abs(out.data - x)) < 1e-15

    def test_matches_direct_summation(self, rng):
        x = rng.normal(0, 1, (2, 4, 4))
        w = rng.normal(0, 1, (3, 2, 3, 3))
        for dilation in (1, 2):
            got = T.conv_spatial(tensor(x), [(dilation, tensor(w))]).data
            want = oracles.conv_spatial_loops(x, w, dilation)
            assert np.max(np.abs(got - want)) < 1e-12
        # branches in any dilation order land in branch order
        w2 = rng.normal(0, 1, (2, 2, 3, 3))
        got = T.conv_spatial(tensor(x), [(1, tensor(w)), (3, tensor(w2)), (2, tensor(w))]).data
        want = np.concatenate([oracles.conv_spatial_loops(x, w, 1),
                               oracles.conv_spatial_loops(x, w2, 3),
                               oracles.conv_spatial_loops(x, w, 2)])
        assert got.shape == (8, 4, 4) and np.max(np.abs(got - want)) < 1e-12

    def test_single_pixel_only_center_tap(self, rng):
        x = rng.normal(0, 1, (1, 1, 1))
        w = rng.normal(0, 1, (1, 1, 3, 3))
        out = T.conv_spatial(tensor(x), [(2, tensor(w))])
        assert abs(float(out.data[0, 0, 0]) - float(w[0, 0, 1, 1] * x[0, 0, 0])) < 1e-15

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            T.conv_spatial(tensor(np.ones((1, 3, 3))), [(1, tensor(np.ones((1, 1, 2, 2))))])


class TestTapGrid:
    """The 3x3 taps read strided windows of one flat padded buffer."""

    # (C_in, C_out, H, W, dilation): square and not, one row, one column,
    # dilation at or past the image side
    SHAPES = [(3, 4, 5, 7, 1), (2, 3, 6, 3, 2), (3, 2, 1, 6, 1), (2, 3, 5, 1, 2),
              (2, 2, 3, 4, 4), (1, 2, 2, 2, 3), (2, 1, 1, 1, 1)]

    def test_conv_spatial_bitwise_equals_tap_copies(self, rng):
        for c_in, c_out, h, w, d in self.SHAPES + [(16, 8, 12, 10, 3)]:
            x = rng.normal(0, 1, (c_in, h, w))
            k = rng.normal(0, 1, (c_out, c_in, 3, 3))
            b = rng.normal(0, 1, c_out)
            got = T.conv_spatial(tensor(x), [(d, tensor(k))]).data
            assert np.array_equal(got, oracles.conv_taps_copy(x, k, d))

    @pytest.mark.parametrize("block_bytes", [8 * 8 * 12, 8 * 8 * 7])
    def test_blocked_accumulation_matches_tap_copies(self, rng, monkeypatch, block_bytes):
        # later taps are added 12 (even) or 7 (ragged) columns at a time to
        # the 12 x 12 padded-width product of an 8-channel output. BLAS may
        # round a narrow product differently from a wide one, so this agrees
        # to 1e-12 rather than bitwise.
        monkeypatch.setattr(T, "_ACCUMULATE_BYTES", block_bytes)
        x = rng.normal(0, 1, (16, 12, 10))
        k = rng.normal(0, 1, (8, 16, 3, 3))
        got = T.conv_spatial(tensor(x), [(1, tensor(k))]).data
        assert np.max(np.abs(got - oracles.conv_taps_copy(x, k))) < 1e-12

    def test_conv_bn_relu_bitwise_equals_tap_copies(self, rng, monkeypatch):
        for c_in, c_out, h, w, _ in self.SHAPES + [(16, 8, 12, 10, 1)]:
            x = rng.normal(0, 1, (c_in, h, w))
            wt, gain, shift = block_args(rng, c_in, c_out, kernel=3)
            monkeypatch.setattr(T, "_PREACT_TRACE", trace := [])
            got = T.conv_bn_relu(tensor(x), wt, gain, shift).data
            s = gain.data * INV_STD
            pre = oracles.conv_taps_copy(x, wt.data).reshape(c_out, -1)
            pre *= s[:, None]
            pre += shift.data[:, None]
            assert trace == [float(np.abs(pre).min())]
            assert np.array_equal(got, np.maximum(pre, 0.0).reshape(c_out, h, w))

    def test_edge_shapes_match_loop_oracles(self, rng):
        for c_in, c_out, h, w, d in self.SHAPES:
            x = rng.normal(0, 1, (c_in, h, w))
            k = rng.normal(0, 1, (c_out, c_in, 3, 3))
            got = T.conv_spatial(tensor(x), [(d, tensor(k))]).data
            assert np.max(np.abs(got - oracles.conv_spatial_loops(x, k, d))) < 1e-12
            wt, gain, shift = block_args(rng, c_in, c_out, kernel=3)
            got = T.conv_bn_relu(tensor(x), wt, gain, shift).data
            pre = oracles.conv_spatial_loops(x, wt.data).reshape(c_out, -1)
            want = oracles.transform_loops(pre, np.eye(c_out), gain.data, shift.data)
            assert np.max(np.abs(got - want.reshape(c_out, h, w))) < 1e-12

    def test_dilated_conv_spatial_gradients_non_square(self, rng):
        x = tensor(rng.normal(0, 1, (2, 4, 3)), requires_grad=True)
        w = tensor(rng.normal(0, 1, (3, 2, 3, 3)), requires_grad=True)
        for d in (2, 3):
            fwd = lambda: projected(T.conv_spatial(x, [(d, w)]), np.random.default_rng(19))
            assert max_grad_fd_error([x, w], fwd) < TestGradientsEveryOp.TOL

    def test_recorded_grid_of_row_groups_gradients(self, rng):
        # on 3 x 6 pixels dilation 4 is taller than the image, so the grid a
        # recording op keeps holds its taps' three row groups 3 rows apart
        x = tensor(rng.normal(0, 1, (2, 3, 6)), requires_grad=True)
        w = tensor(rng.normal(0, 1, (3, 2, 3, 3)), requires_grad=True)
        fwd = lambda: projected(T.conv_spatial(x, [(4, w)]), np.random.default_rng(19))
        assert max_grad_fd_error([x, w], fwd) < TestGradientsEveryOp.TOL

    @pytest.mark.parametrize("shape", [(2, 4, 4), (2, 3, 5)])
    def test_dilation_past_the_image_allocates_nothing_more(self, rng, shape):
        # from a dilation of max(H, W) on every off-centre tap reads only
        # padding: a larger one gives the same bits from a buffer as small
        x0 = rng.normal(0, 1, shape)
        w0 = rng.normal(0, 1, (3, shape[0], 3, 3))
        runs = []
        for d in (max(shape[1:]), 1000):
            x, w = tensor(x0, requires_grad=True), tensor(w0, requires_grad=True)
            tracemalloc.start()
            try:
                out = T.conv_spatial(x, [(d, w)])
                T.backward(projected(out, np.random.default_rng(21)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append((out.data, x.grad, w.grad))
        assert peak < 1 << 20
        for at_side, far in zip(*runs):
            assert np.array_equal(at_side, far)

    def test_conv_bn_relu_gradients_non_square(self, rng, monkeypatch):
        x = tensor(rng.normal(0, 1, (2, 3, 5)), requires_grad=True)
        w, gain, shift = block_args(rng, 2, 3, kernel=3)
        monkeypatch.setattr(T, "_PREACT_TRACE", trace := [])

        def fwd():
            out = T.conv_bn_relu(x, w, gain, shift)
            return projected(out, np.random.default_rng(20))

        assert max_grad_fd_error([x, w, gain, shift], fwd) < TestGradientsEveryOp.TOL
        assert min(trace) > 1e-3  # every finite difference stays off the kink

    def test_tracker_charges_one_owned_output(self, rng):
        # the output, and while the op runs each flat padded input, which no
        # tensor owns: 3 channels of (6 + 2*pad) x (5 + 2*pad) + 2*pad doubles
        x = tensor(rng.normal(0, 1, (3, 6, 5)))
        k = tensor(rng.normal(0, 1, (4, 3, 3, 3)))
        wt, *bn = block_args(rng, 3, 4, kernel=3)
        flat = {pad: 3 * ((6 + 2 * pad) * (5 + 2 * pad) + 2 * pad) * 8 for pad in (1, 2, 4)}
        with T.no_grad(), T.AllocationTracker() as tracker:
            out = T.conv_bn_relu(x, wt, *bn)
            assert out.data.base is None and out.data.flags.c_contiguous
            assert tracker.current_bytes == out.data.nbytes
            assert tracker.peak_bytes == out.data.nbytes + flat[1]
        # conv_spatial charges its output once, when it allocates it: after
        # the widest branch's buffer is freed, and before the next is built
        with T.no_grad(), T.AllocationTracker() as tracker:
            out = T.conv_spatial(x, [(2, k), (4, k), (1, k)])
            assert out.shape == (12, 6, 5) and out.data.flags.c_contiguous
            assert tracker.current_bytes == out.data.nbytes
            assert tracker.peak_bytes == max(flat[4], flat[2] + out.data.nbytes)

    # (C_out, full-size part (C, H, W), smaller parts' (C, h, w)): non-square
    # grids, bins that do not divide the side, a part as tall as the first
    SMALL_PARTS = [(3, (2, 7, 5), [(2, 3, 2)]),
                   (2, (1, 6, 9), [(3, 1, 1), (2, 2, 2), (1, 3, 3), (2, 6, 9)]),
                   (4, (2, 5, 4), [(1, 5, 1), (2, 2, 4)])]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_small_parts_bitwise_equal_upsample_then_fuse(self, rng, dtype):
        for c_out, first, small in self.SMALL_PARTS:
            shapes = [first, *small]
            arrays = [rng.normal(0, 1, s) for s in shapes] + [
                rng.normal(0, 1, (c_out, sum(s[0] for s in shapes), 3, 3)),
                rng.uniform(0.5, 1.5, c_out), rng.normal(0, 1, c_out)]
            runs = []
            for upsample in (False, True):
                leaves = [T.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
                if upsample:  # the reference's later parts are upsampled leaves
                    leaves[1:len(shapes)] = [
                        T.Tensor(oracles.upsample_nearest_loops(a, *first[1:]).astype(dtype),
                                 requires_grad=True) for a in arrays[1:len(shapes)]]
                out = T.conv_bn_relu(leaves[:len(shapes)], *leaves[len(shapes):])
                T.backward(projected(out, np.random.default_rng(23)))
                runs.append([out.data, *(t.grad for t in leaves)])
            (out, *grads), (ref_out, *ref_grads) = runs
            assert out.dtype == dtype and np.array_equal(out, ref_out)
            tol = 1e-12 if dtype == np.float64 else 1e-4
            for i, (got, want) in enumerate(zip(grads, ref_grads)):
                if 0 < i < len(shapes):  # a later part: the adjoint of its upsampling
                    want = oracles.upsample_nearest_adjoint_loops(want, *shapes[i][1:])
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))
                else:
                    assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_branches_bitwise_equal_concatenated_single_branches(self, rng, dtype):
        x = T.Tensor(rng.normal(0, 1, (3, 9, 7)).astype(dtype))
        branches = [(d, T.Tensor(rng.normal(0, 1, (c, 3, 3, 3)).astype(dtype)))
                    for d, c in ((1, 4), (5, 2), (3, 3), (12, 1))]
        for grad in (False, True):
            x.requires_grad = grad
            got = T.conv_spatial(x, branches).data
            want = np.concatenate([T.conv_spatial(x, [b]).data for b in branches])
            assert got.dtype == dtype and np.array_equal(got, want)

    @staticmethod
    def bands(h):
        """Row ranges: one-row bands at the top, middle and bottom, ragged
        ones, the whole image and an empty band."""
        return {(0, 1), (h // 2, h // 2 + 1), (h - 1, h), (0, 2), (1, h - 1),
                (2, h), (0, h), (h // 2, h // 2)}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_rows_bitwise_equal_the_whole_slice(self, rng, kernel, dtype):
        # rows r0:r1 read the rows their taps reach, zero outside the image;
        # dilations H - 1 and H + 3 (clamped to max(H, W)) are wider than
        # every band but the whole image, whose grids hold only the taps' row
        # groups, and a later part is upsampled as its rows are read
        h, w = 7, 5
        x = T.Tensor(rng.normal(0, 1, (3, h, w)).astype(dtype))
        small = [T.Tensor(rng.normal(0, 1, s).astype(dtype)) for s in ((2, 3, 2), (1, 1, 1))]
        weight = T.Tensor(rng.normal(0, 1, (4, 6, kernel, kernel)).astype(dtype))
        spatial = [(d, T.Tensor(rng.normal(0, 1, (2, 3, kernel, kernel)).astype(dtype)))
                   for d in (1, 2, h - 1, h + 3)]
        bn = affine_args(rng, 4)
        with T.no_grad():
            for d, k in spatial:
                whole = T.conv_spatial(x, [(d, k)]).data
                for r0, r1 in self.bands(h):
                    got = T.conv_spatial(x, [(d, k)], (r0, r1)).data
                    assert got.dtype == dtype and got.shape == (2, r1 - r0, w)
                    assert np.array_equal(got, whole[:, r0:r1])
            whole = T.conv_spatial(x, spatial).data
            whole_block = T.conv_bn_relu([x, *small], weight, *bn).data
            for r0, r1 in self.bands(h):
                assert np.array_equal(T.conv_spatial(x, spatial, (r0, r1)).data,
                                      whole[:, r0:r1])
                got = T.conv_bn_relu([x, *small], weight, *bn, rows=(r0, r1)).data
                assert got.dtype == dtype and np.array_equal(got, whole_block[:, r0:r1])

    def test_a_band_pads_only_its_rows(self, rng):
        # rows 2:4 of a 3 x 9 x 5 input at pad 1: a flat (3, 4*7 + 2) buffer
        x = tensor(rng.normal(0, 1, (3, 9, 5)))
        wt, *bn = block_args(rng, 3, 4, kernel=3)
        with T.no_grad(), T.AllocationTracker() as tracker:
            out = T.conv_bn_relu(x, wt, *bn, rows=(2, 4))
            assert out.shape == (4, 2, 5)
            assert tracker.peak_bytes == out.data.nbytes + 3 * (4 * 7 + 2) * 8

    @pytest.mark.parametrize("dilation,grid_rows", [(1, 4), (2, 6), (3, 6), (4, 6)])
    def test_a_band_thinner_than_the_dilation_pads_its_tap_groups(self, rng, dilation,
                                                                  grid_rows):
        # rows 2:4 of a 3 x 9 x 5 input: the three tap rows read 2-row groups
        # d rows apart, laid out min(2, d) rows apart: 2 + 2 * min(2, d) rows
        # of 5 + 2 * d columns, against 2 + 2 * d rows when the grid held
        # every row between them; conv_spatial frees the grid before it
        # allocates its output
        x = tensor(rng.normal(0, 1, (3, 9, 5)))
        k = tensor(rng.normal(0, 1, (4, 3, 3, 3)))
        with T.no_grad():
            whole = T.conv_spatial(x, [(dilation, k)]).data
            with T.AllocationTracker() as tracker:
                out = T.conv_spatial(x, [(dilation, k)], (2, 4))
        assert np.array_equal(out.data, whole[:, 2:4])
        flat = 3 * (grid_rows * (5 + 2 * dilation) + 2 * dilation) * 8
        assert tracker.peak_bytes == flat

    def test_recording_or_out_of_range_rows_rejected(self, rng):
        x = tensor(rng.normal(0, 1, (2, 4, 3)))
        k = tensor(rng.normal(0, 1, (3, 2, 3, 3)), requires_grad=True)
        wt, *bn = block_args(rng, 2, 3, kernel=3)
        with pytest.raises(ParameterError, match="records a backward"):
            T.conv_spatial(x, [(1, k)], (0, 2))
        with pytest.raises(ParameterError, match="records a backward"):
            T.conv_bn_relu(x, wt, *bn, rows=(1, 4))
        # the whole image records as the default does
        assert T.conv_bn_relu(x, wt, *bn, rows=(0, 4)).requires_grad
        with T.no_grad():
            for rows in ((-1, 2), (3, 2), (0, 5)):
                with pytest.raises(ParameterError, match="rows"):
                    T.conv_spatial(x, [(1, k)], rows)
            with pytest.raises(ParameterError, match="k x k"):
                T.conv_bn_relu(x, *block_args(rng, 2, 3), rows=(0, 2))



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

    @staticmethod
    def upsampled(x, out_h, out_w):
        """``x`` through the kxk fuse's nearest map, ``T._Nearest``."""
        out = np.empty(x.shape[:1] + (out_h, out_w))
        T._Nearest(*x.shape[1:], out_h, out_w).fill(out, x, 0, out_h)
        return out

    def test_upsample_matches_loop(self, rng):
        x = rng.normal(0, 1, (2, 2, 3))
        got = self.upsampled(x, 5, 7)
        assert np.array_equal(got, oracles.upsample_nearest_loops(x, 5, 7))

    def test_upsample_rows_match_the_whole_slice(self, rng):
        # output rows y0:y1, one source row's run of rows cut at either end
        x = rng.normal(0, 1, (2, 3, 2))
        want = oracles.upsample_nearest_loops(x, 8, 5)
        near = T._Nearest(3, 2, 8, 5)
        for y0 in range(8):
            for y1 in range(y0, 9):
                out = np.full((2, y1 - y0, 5), np.nan)
                near.fill(out, x, y0, y1)
                assert np.array_equal(out, want[:, y0:y1])

    @pytest.mark.parametrize("size", [(2, 3, 5, 7), (1, 1, 4, 6), (3, 2, 3, 2)])
    def test_upsample_backward_is_the_loop_adjoint(self, rng, size):
        # uneven ratios: source cells cover blocks of unequal size
        h, w, out_h, out_w = size
        g = rng.normal(0, 1, (2, out_h, out_w))
        got = T._Nearest(h, w, out_h, out_w).grad(g)
        want = np.zeros((2, h, w))
        for i in range(h):
            for j in range(w):
                basis = np.zeros((2, h, w))
                basis[:, i, j] = 1.0
                up = oracles.upsample_nearest_loops(basis, out_h, out_w)
                want[:, i, j] = (up * g).sum(axis=(1, 2))
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(got - oracles.upsample_nearest_adjoint_loops(g, h, w))) < 1e-12

    def test_upsample_cannot_shrink(self, rng):
        # a kxk block's later part may be smaller than the first, not larger
        w, *args = block_args(rng, 2, 3, kernel=3)
        for other in ((1, 4, 3), (1, 3, 4)):
            with pytest.raises(DimensionError):
                T.conv_bn_relu((tensor(np.ones((1, 3, 3))), tensor(np.ones(other))), w, *args)

    def test_upsample_from_an_empty_side_rejected(self, rng):
        w, *args = block_args(rng, 2, 3, kernel=3)
        for other in ((1, 0, 2), (1, 2, 0)):
            with pytest.raises(DimensionError):
                T.conv_bn_relu((tensor(np.ones((1, 3, 3))), tensor(np.ones(other))), w, *args)

    def test_full_bin_pool_then_upsample_roundtrip(self, rng):
        x = rng.normal(0, 1, (3, 4, 4))
        pooled = T.avg_pool2d(tensor(x), 4, 4)
        back = self.upsampled(pooled.data, 4, 4)
        assert np.max(np.abs(back - x)) < 1e-15


# ---------------------------------------------------------------------------
# pixel-wise cross entropy


class TestCrossEntropy:
    def test_peaked_logits_near_zero_loss(self):
        logits = np.zeros((3, 4))
        labels = np.array([0, 1, 2, 1])
        logits[labels, np.arange(4)] = 1000.0
        loss = T.cross_entropy_logits([(tensor(logits), 1.0)], labels)
        assert float(loss.data) < 1e-6

    def test_uniform_logits_log_k(self):
        loss = T.cross_entropy_logits([(tensor(np.zeros((4, 5))), 1.0)],
                                      np.array([0, 1, 2, 3, 0]))
        assert abs(float(loss.data) - np.log(4.0)) < 1e-6

    def test_matches_scalar_loop(self, rng):
        logits = rng.normal(0, 2, (3, 8))
        labels = rng.integers(0, 3, 8)
        got = float(T.cross_entropy_logits([(tensor(logits), 1.0)], labels).data)
        assert abs(got - oracles.cross_entropy_loops(logits, labels)) < 1e-12

    def test_ignored_pixels_excluded(self, rng):
        logits = rng.normal(0, 2, (3, 6))
        labels = np.array([0, 255, 2, 255, 1, 0])
        got = float(T.cross_entropy_logits([(tensor(logits), 1.0)], labels).data)
        assert abs(got - oracles.cross_entropy_loops(logits, labels)) < 1e-12

    def test_all_ignored_warns_and_zero(self):
        labels = np.full(3, 255)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            logits = tensor(np.zeros((2, 3)), requires_grad=True)
            loss = T.cross_entropy_logits([(logits, 1.0)], labels)
        assert float(loss.data) == 0.0 and not np.signbit(loss.data)
        assert any("ignored" in str(w.message) for w in caught)
        T.backward(loss)
        assert logits.grad.shape == (2, 3) and not np.any(logits.grad)

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            T.cross_entropy_logits([(tensor(np.zeros((2, 3))), 1.0)], np.array([0, 2, 1]))

    def test_weighted_terms(self, rng):
        # the weighted sum of each term's own loss, summed in term order, and
        # each logits' gradient is its term's scaled by the weight
        a, b = rng.normal(0, 2, (3, 6)), rng.normal(0, 2, (4, 6))
        labels = np.array([0, 255, 2, 1, 1, 0])
        ta, tb = tensor(a, requires_grad=True), tensor(b, requires_grad=True)
        loss = T.cross_entropy_logits([(ta, 0.7), (tb, 0.4)], labels)
        alone = [tensor(x, requires_grad=True) for x in (a, b)]
        singles = [float(T.cross_entropy_logits([(t, 1.0)], labels).data)
                   for t in alone]
        assert float(loss.data) == singles[0] * 0.7 + singles[1] * 0.4
        want = (0.7 * oracles.cross_entropy_loops(a, labels)
                + 0.4 * oracles.cross_entropy_loops(b, labels))
        assert abs(float(loss.data) - want) < 1e-12
        T.backward(loss)
        for t, w, single in zip((ta, tb), (0.7, 0.4), alone):
            T.backward(T.cross_entropy_logits([(single, 1.0)], labels))
            assert np.max(np.abs(t.grad - w * single.grad)) < 1e-15

    def test_terms_are_checked(self):
        labels = np.array([0, 2, 1])
        with pytest.raises(ParameterError):
            T.cross_entropy_logits([], labels)
        with pytest.raises(DataError):  # the second term has too few rows
            T.cross_entropy_logits([(tensor(np.zeros((3, 3))), 1.0),
                                    (tensor(np.zeros((2, 3))), 0.4)], labels)
        with pytest.raises(DimensionError):
            T.cross_entropy_logits([(tensor(np.zeros((3, 3))), 1.0),
                                    (tensor(np.zeros((3, 4))), 0.4)], labels)


# ---------------------------------------------------------------------------
# reverse-mode differentiation


class TestAutogradBasics:
    def test_sum_gradient_is_ones(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        T.backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        data = rng.normal(0, 1, (2, 3))
        x = tensor(data, requires_grad=True)
        T.backward(dot_all(x, x))
        assert np.max(np.abs(x.grad - 2 * data)) < 1e-12

    def test_grad_accumulates_across_backwards(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        T.backward(sum_all(x))
        T.backward(sum_all(x))
        assert np.array_equal(x.grad, 2 * np.ones((2, 2)))
        T.zero_grads([x])
        assert x.grad is None

    def test_non_scalar_loss_rejected(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        with pytest.raises(ParameterError):
            T.backward(T.reshape(x, (4,)))

    def test_graphless_loss_rejected(self):
        x = tensor(np.ones((2, 2)))  # requires_grad=False
        with pytest.raises(ParameterError):
            T.backward(sum_all(x))

    def test_tape_is_single_use(self, rng):
        # backward consumes the graph it replays; a second replay would
        # double-accumulate the leaves' gradients
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        loss = dot_all(x, x)
        T.backward(loss)
        first = x.grad.copy()
        with pytest.raises(StateError):
            T.backward(loss)
        assert np.array_equal(x.grad, first)

    def test_loss_on_a_replayed_result_raises(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        flat = T.reshape(x, (4,))
        T.backward(sum_all(flat))
        with pytest.raises(StateError):
            T.backward(sum_all(flat))
        assert flat.grad is None

    def test_refused_backward_changes_no_gradient(self, rng):
        # the replayed result is reached after the fresh branch to y would
        # have been replayed, so a refusal found only in the replay came too
        # late to keep y's gradient
        x = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        y = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        flat = T.reshape(x, (6,))
        T.backward(sum_all(flat))
        first = x.grad.copy()
        with pytest.raises(StateError):
            T.backward(dot_all(flat, T.reshape(y, (6,))))
        assert y.grad is None
        assert np.array_equal(x.grad, first)

    def test_backward_frees_the_graph(self, rng):
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        hidden = T.matmul(x, tensor(2.0 * np.eye(4)))  # owns its buffer
        buffer = weakref.ref(hidden.data)
        loss = sum_all(hidden)
        del hidden
        assert buffer() is not None  # the graph still holds it
        T.backward(loss)
        assert buffer() is None
        assert np.isclose(float(loss.data), 2.0 * float(x.data.sum()))

    def test_backward_returns_the_replayed_results_in_creation_order(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        nodes = T.backward(sum_all(T.transpose(x)))
        assert [n._opname for n in nodes] == ["transpose", "reshape", "matmul", "reshape"]

    def test_no_grad_suppresses_recording(self, rng):
        x = tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        with T.no_grad():
            out = dot_all(x, x)
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

    def test_transpose_reshape(self, rng):
        a = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        fwd = lambda: projected(T.reshape(T.transpose(a), (2, 3)), np.random.default_rng(8))
        assert max_grad_fd_error([a], fwd) < self.TOL

    def test_relu_away_from_kink(self, rng):
        # the rectifier of conv_bn_relu behind a unit weight and gain: the
        # input gradient is the normalised projection masked by x > 0
        data = rng.normal(0, 1, (3, 4))
        data[np.abs(data) < 0.05] = 0.1
        x = tensor(data, requires_grad=True)
        eye, one, zero = tensor(np.eye(3)), tensor(np.ones(3)), tensor(np.zeros(3))
        fwd = lambda: projected(T.conv_bn_relu(x, eye, one, zero),
                                np.random.default_rng(11))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_softmax_rows(self, rng):
        x = tensor(rng.normal(0, 2, (3, 4)), requires_grad=True)
        fwd = lambda: projected(T.softmax_rows(x),
                                np.random.default_rng(12))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_relation_softmax(self, rng):
        # the scaled softmax of a relation's logits, through to q and k
        q = tensor(rng.normal(0, 1, (3, 7)), requires_grad=True)
        k = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        fwd = lambda: projected(T.softmax_rows(T.matmul(T.transpose(q), k), 0.6),
                                np.random.default_rng(22))
        assert max_grad_fd_error([q, k], fwd) < self.TOL

    def test_attend(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_ACCUMULATE_BYTES", 8 * 4 * 3)  # 3-row blocks
        q = tensor(rng.normal(0, 1, (3, 7)), requires_grad=True)
        k = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        v = tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
        fwd = lambda: projected(T.attend(q, k, v, 0.6), np.random.default_rng(25))
        assert max_grad_fd_error([q, k, v], fwd) < self.TOL

    def test_conv1x1(self, rng):
        x = tensor(rng.normal(0, 1, (3, 2, 2)), requires_grad=True)
        w = tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        b = tensor(rng.normal(0, 1, 2), requires_grad=True)
        fwd = lambda: projected(T.conv1x1(x, w, b), np.random.default_rng(14))
        assert max_grad_fd_error([x, w, b], fwd) < self.TOL

    def test_conv_spatial(self, rng):
        # two branches at two dilations: the input gradient sums both
        x = tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)
        w = tensor(rng.normal(0, 1, (2, 2, 3, 3)), requires_grad=True)
        w2 = tensor(rng.normal(0, 1, (3, 2, 3, 3)), requires_grad=True)
        for branches in ([(2, w)], [(1, w), (2, w2)]):
            fwd = lambda: projected(T.conv_spatial(x, branches), np.random.default_rng(15))
            assert max_grad_fd_error([x, *(k for _, k in branches)], fwd) < self.TOL

    def test_avg_pool(self, rng):
        x = tensor(rng.normal(0, 1, (2, 5, 5)), requires_grad=True)
        fwd = lambda: projected(T.avg_pool2d(x, 2, 3), np.random.default_rng(16))
        assert max_grad_fd_error([x], fwd) < self.TOL

    def test_upsample(self, rng, monkeypatch):
        # a 3x3 block's second part, nearest-upsampled from 2x3 to 5x4 as the
        # block pads it: every part, the weight, gain and shift
        parts = (tensor(rng.normal(0, 1, (1, 5, 4)), requires_grad=True),
                 tensor(rng.normal(0, 1, (2, 2, 3)), requires_grad=True))
        w, gain, shift = block_args(rng, 3, 2, kernel=3)
        monkeypatch.setattr(T, "_PREACT_TRACE", trace := [])

        def fwd():
            out = T.conv_bn_relu(parts, w, gain, shift)
            return projected(out, np.random.default_rng(17))

        assert max_grad_fd_error([*parts, w, gain, shift], fwd) < self.TOL
        assert min(trace) > 1e-3  # every finite difference stays off the kink

    def test_affine_relu(self, rng, monkeypatch):
        # the fused block: every part, the weight, gain and shift, for a
        # one-part, a two-part, a 3x3 and a two-part 3x3 call, and a call
        # whose second part is one column, read at every position
        cases = [
            ((tensor(rng.normal(0, 1, (3, 5)), requires_grad=True),),
             block_args(rng, 3, 3)),
            ((tensor(rng.normal(0, 1, (2, 5)), requires_grad=True),
              tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)),
             block_args(rng, 5, 3)),
            ((tensor(rng.normal(0, 1, (2, 3, 3)), requires_grad=True),),
             block_args(rng, 2, 2, kernel=3)),
            ((tensor(rng.normal(0, 1, (1, 3, 4)), requires_grad=True),
              tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)),
             block_args(rng, 3, 2, kernel=3)),
            ((tensor(rng.normal(0, 1, (2, 3, 2)), requires_grad=True),
              tensor(rng.normal(0, 1, (3, 1, 1)), requires_grad=True)),
             block_args(rng, 5, 3)),
        ]
        for parts, (w, gain, shift) in cases:
            monkeypatch.setattr(T, "_PREACT_TRACE", trace := [])

            def fwd():
                out = T.conv_bn_relu(parts, w, gain, shift)
                return projected(out, np.random.default_rng(18))

            assert max_grad_fd_error([*parts, w, gain, shift], fwd) < self.TOL
            assert min(trace) > 1e-3  # every finite difference stays off the kink

    def test_cross_entropy(self, rng):
        x = tensor(rng.normal(0, 2, (3, 6)), requires_grad=True)
        y = tensor(rng.normal(0, 2, (4, 6)), requires_grad=True)
        labels = np.array([0, 1, 2, 255, 1, 0])
        fwd = lambda: T.cross_entropy_logits([(x, 1.0)], labels)
        assert max_grad_fd_error([x], fwd) < self.TOL
        fwd = lambda: T.cross_entropy_logits([(x, 1.0), (y, 0.4)], labels)
        assert max_grad_fd_error([x, y], fwd) < self.TOL


class TestFrozenInputs:
    """A backward returns None for a parent that does not require grad, and
    every other slot is bitwise what it is when all parents require grad."""

    @staticmethod
    def slots(build, leaves, frozen=None):
        tensors = [tensor(d, requires_grad=i != frozen) for i, d in enumerate(leaves)]
        out = build(*tensors)
        return out._backward_fn(np.random.default_rng(5).normal(0, 1, out.shape))

    def cases(self, rng):
        bn = tuple(t.data for t in affine_args(rng, 3))

        def block(n_parts):
            return lambda *t: T.conv_bn_relu(t[:n_parts], *t[n_parts:])

        x3 = rng.normal(0, 1, (2, 5, 4))
        return {
            "matmul": (T.matmul, [rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 2))], (0, 1)),
            "cross_entropy": (lambda a, b: T.cross_entropy_logits([(a, 1.0), (b, 0.4)],
                                                                  np.array([0, 2, 255, 1])),
                              [rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 4))], (0, 1)),
            # one parent, so no slot to freeze: its one slot is formed. The
            # relation's q and k slots are matmul's
            "relation_softmax": (lambda x: T.softmax_rows(x, 0.6),
                                 [rng.normal(0, 1, (7, 4))], ()),
            "attend": (lambda q, k, v: T.attend(q, k, v, 0.6),
                       [rng.normal(0, 1, (3, 7)), rng.normal(0, 1, (3, 4)),
                        rng.normal(0, 1, (2, 4))], (0, 1, 2)),
            "conv1x1": (T.conv1x1, [x3, rng.normal(0, 1, (3, 2)), rng.normal(0, 1, 3)], (0,)),
            "conv_spatial": (lambda x, w, w2: T.conv_spatial(x, [(2, w), (1, w2)]),
                             [x3, rng.normal(0, 1, (3, 2, 3, 3)),
                              rng.normal(0, 1, (2, 2, 3, 3))], (0,)),
            "conv_bn_relu_pointwise": (block(1), [x3, rng.normal(0, 1, (3, 2)), *bn], (0,)),
            "conv_bn_relu_parts": (block(2), [rng.normal(0, 1, (2, 6)), rng.normal(0, 1, (3, 6)),
                                              rng.normal(0, 1, (3, 5)), *bn], (0, 1)),
            "conv_bn_relu_one_column_part": (block(2), [x3, rng.normal(0, 1, (3, 1, 1)),
                                                        rng.normal(0, 1, (3, 5)), *bn], (0, 1)),
            "conv_bn_relu_3x3": (block(1), [x3, rng.normal(0, 1, (3, 2, 3, 3)), *bn], (0,)),
            "conv_bn_relu_3x3_parts": (block(2), [rng.normal(0, 1, (1, 5, 4)), x3,
                                                  rng.normal(0, 1, (3, 3, 3, 3)), *bn], (0, 1)),
            "conv_bn_relu_3x3_small_parts": (block(2), [x3, rng.normal(0, 1, (1, 2, 3)),
                                                        rng.normal(0, 1, (3, 3, 3, 3)), *bn],
                                             (0, 1)),
        }

    @pytest.mark.parametrize("op", [
        "matmul", "cross_entropy", "relation_softmax", "attend", "conv1x1", "conv_spatial",
        "conv_bn_relu_pointwise", "conv_bn_relu_parts", "conv_bn_relu_one_column_part",
        "conv_bn_relu_3x3", "conv_bn_relu_3x3_parts", "conv_bn_relu_3x3_small_parts"])
    def test_frozen_parent_gets_no_gradient(self, rng, monkeypatch, op):
        monkeypatch.setattr(T, "_ACCUMULATE_BYTES", 8 * 4 * 2)  # 2-row relation blocks
        build, leaves, frozen_slots = self.cases(rng)[op]
        full = self.slots(build, leaves)
        assert all(g is not None for g in full)
        for frozen in frozen_slots:
            got = self.slots(build, leaves, frozen)
            assert got[frozen] is None
            for i, (g, want) in enumerate(zip(got, full)):
                if i != frozen:
                    assert np.array_equal(g, want), (op, frozen, i)


# ---------------------------------------------------------------------------
# tracked allocation accounting


class TestAllocationTracker:
    def test_thousand_doubles_counted(self):
        with T.AllocationTracker() as tracker:
            buf = T.Tensor(np.zeros(1000))
            current, peak = tracker.current_bytes, tracker.peak_bytes
        assert peak >= 8000
        assert current >= 8000
        del buf
        assert tracker.peak_bytes >= 8000

    def test_empty_scope_zero_peak(self):
        with T.AllocationTracker() as tracker:
            pass
        assert tracker.peak_bytes == 0

    def test_tracker_single_use(self):
        tracker = T.AllocationTracker()
        with tracker:
            pass
        with pytest.raises(StateError):
            with tracker:
                pass

    def test_one_tracker_open_at_a_time(self):
        with T.AllocationTracker() as outer:
            inner = T.AllocationTracker()
            with pytest.raises(StateError, match="already open"):
                with inner:
                    pass
            buf = T.Tensor(np.zeros(100))
        assert outer.peak_bytes == 800 and inner.peak_bytes == 0
        del buf
        with T.AllocationTracker() as after:  # the scope closed cleanly
            T.Tensor(np.zeros(10))
        assert after.peak_bytes == 80

    def test_release_lowers_current_not_peak(self):
        with T.AllocationTracker() as tracker:
            a = T.Tensor(np.zeros(500))
            first = tracker.current_bytes
            del a
            b = T.Tensor(np.zeros(100))  # noqa: F841 keeps buffer alive
            current, peak = tracker.current_bytes, tracker.peak_bytes
        assert first >= 4000
        assert current < first
        assert peak >= first

    def test_concurrent_runs_charge_the_sum_of_their_rises(self):
        # held 800 B; the runs rise by 4000 B, 800 + 800 B (the 800 B kept)
        # and 2400 B: at once they would hold 800 + 8000 B
        kept = []

        def run(freed, keep=0):
            def body():
                buf = T.Tensor(np.zeros(freed // 8))  # noqa: F841 freed on return
                kept.append(T.Tensor(np.zeros(keep // 8)))
            return body

        with T.AllocationTracker() as tracker:
            held = T.Tensor(np.zeros(100))  # noqa: F841 keeps buffer alive
            tracker.concurrent([run(4000), run(800, keep=800), run(2400)])
            current, peak = tracker.current_bytes, tracker.peak_bytes
            tracker.concurrent([run(800)])  # below the peak: no change
        assert current == 800 + 800 and peak == 800 + 8000
        assert tracker.peak_bytes == peak

    def test_layout_views_add_no_bytes(self, rng):
        with T.AllocationTracker() as tracker:
            x = T.Tensor(rng.normal(0, 1, (4, 6)))
            before = (tracker.current_bytes, tracker.peak_bytes)
            views = [T.reshape(x, (6, 4)), T.transpose(x), T.reshape(x, (24,))]
            assert (tracker.current_bytes, tracker.peak_bytes) == before
        assert all(np.shares_memory(v.data, x.data) for v in views)

    def test_compute_ops_charge_their_output(self, rng):
        x = T.Tensor(rng.normal(0, 1, (2, 3, 4)))
        w = T.Tensor(rng.normal(0, 1, (5, 2)))
        k = T.Tensor(rng.normal(0, 1, (5, 2, 3, 3)))
        ops = (lambda: T.conv1x1(x, w), lambda: T.conv_spatial(x, [(1, k)]),
               lambda: T.conv_spatial(x, [(1, k), (2, k)]), lambda: T.avg_pool2d(x, 1, 2))
        for op in ops:
            with T.AllocationTracker() as tracker:
                out = op()
                assert tracker.current_bytes == out.data.nbytes

    def test_view_keeps_buffer_charged_until_freed(self, rng):
        with T.AllocationTracker() as tracker:
            owner = T.Tensor(rng.normal(0, 1, (10, 10)))
            view = T.transpose(owner)
            del owner
            assert tracker.current_bytes == 800
            del view
            assert tracker.current_bytes == 0

    def test_backward_charges_gradients(self, rng):
        a = tensor(rng.normal(0, 1, (30, 20)), requires_grad=True)
        b = tensor(rng.normal(0, 1, (20, 40)), requires_grad=True)
        loss = projected(T.matmul(a, b), np.random.default_rng(23))
        with T.AllocationTracker() as tracker:
            T.backward(loss)
        assert tracker.peak_bytes >= a.grad.nbytes + b.grad.nbytes

    def test_scalar_gradient_is_not_charged(self, rng):
        # the loss's reshape hands on a view of the 0-d seed gradient, which
        # the tracker charges like any other buffer
        x = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        loss = dot_all(x, tensor(np.full((3, 4), 0.5)))
        with T.AllocationTracker() as tracker:
            T.backward(loss)
        assert np.array_equal(x.grad, np.full((3, 4), 0.5))
        assert tracker.peak_bytes >= x.grad.nbytes

    def test_summed_scalar_gradient_is_an_array(self, rng):
        # a 0-d leaf read twice sums two 0-d gradients, which numpy
        # returns as a scalar unless backward keeps the sum a buffer
        x = tensor(rng.normal(0, 1, ()), requires_grad=True)
        with T.AllocationTracker():
            T.backward(dot_all(T.reshape(x, (1,)), T.reshape(x, (1,))))
        assert isinstance(x.grad, np.ndarray)
        assert x.grad == 2.0 * x.data

    def test_shared_gradient_charged_once(self, rng):
        # each reshape's backward hands on a view of the gradient it got, so
        # both pending gradients and the leaf's share one buffer
        a = tensor(rng.normal(0, 1, (10, 10)), requires_grad=True)
        loss = projected(T.reshape(T.reshape(a, (100,)), (4, 25)), np.random.default_rng(24))
        with T.AllocationTracker() as tracker:
            T.backward(loss)
            assert a.grad.base is not None
            assert tracker.current_bytes == a.grad.nbytes

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
