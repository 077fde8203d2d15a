"""Transform blocks (pointwise and 3x3), their initialization, and SGD."""
import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.blocks import Conv1x1Head, Sgd, TransformBlock, conv_weight, uniform_init
from ocrseg.errors import DimensionError

import oracles
from conftest import identity_block, tensor


class TestUniformInit:
    def test_bound_is_inverse_sqrt_fan_in(self, rng):
        w = uniform_init(rng, (50, 16), 16)
        bound = 1.0 / np.sqrt(16)
        assert w.shape == (50, 16)
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0

    def test_seed_determinism(self):
        a = uniform_init(np.random.default_rng(5), (4, 4), 4)
        b = uniform_init(np.random.default_rng(5), (4, 4), 4)
        assert np.array_equal(a, b)


class TestConvWeight:
    @pytest.mark.parametrize("kernel, shape", [(1, (5, 4)), (3, (5, 4, 3, 3))])
    def test_shape_and_fan_in(self, kernel, shape):
        w = conv_weight(np.random.default_rng(2), 4, 5, kernel)
        want = uniform_init(np.random.default_rng(2), shape, 4 * kernel * kernel)
        assert w.requires_grad and w.shape == shape
        assert np.array_equal(w.data, want)

    def test_dtype(self, rng):
        assert conv_weight(rng, 2, 3, 3, np.float32).dtype == np.float32


class TestTransformBlock:
    def test_identity_block_passes_through_nonneg(self, rng):
        x = np.abs(rng.normal(0, 1, (3, 6)))
        block = identity_block(3)
        out = block(tensor(x))
        assert np.max(np.abs(out.data - x)) < 1e-12

    def test_neutral_params_match_identity(self, rng):
        # scale sqrt(1+eps) exactly cancels the 1/sqrt(1+eps) normalizer
        block = TransformBlock(
            weight=tensor(np.eye(2)),
            bn_scale=tensor(np.full(2, np.sqrt(1.0 + T.BN_EPS))),
            bn_shift=tensor(np.zeros(2)))
        x = np.abs(rng.normal(0, 1, (2, 4)))
        assert np.max(np.abs(block(tensor(x)).data - x)) < 1e-12

    def test_output_always_nonnegative(self, rng):
        for _ in range(25):
            c_in = int(rng.integers(1, 6))
            c_out = int(rng.integers(1, 6))
            block = TransformBlock.create(rng, c_in, c_out)
            x = rng.normal(0, 3, (c_in, int(rng.integers(1, 9))))
            assert np.all(block(tensor(x)).data >= 0)

    def test_matches_composition_oracle(self, rng):
        block = TransformBlock.create(rng, 3, 4)
        block.bn_scale.data[:] = rng.uniform(0.5, 1.5, 4)
        block.bn_shift.data[:] = rng.normal(0, 1, 4)
        x = rng.normal(0, 1, (3, 5))
        got = block(tensor(x)).data
        want = oracles.apply_block_loops(block, x)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_runs_as_conv_then_one_fused_op(self, rng):
        # one recorded op per block call: the GEMM (or the 3x3 taps), the frozen
        # BN and the ReLU all happen inside it
        block = TransformBlock.create(rng, 3, 4)
        x = tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
        out = block(x)
        assert out._opname == "conv_bn_relu"
        assert out._parents == (x, block.weight, block.bn_scale, block.bn_shift)
        a = tensor(rng.normal(0, 1, (1, 5)), requires_grad=True)
        b = tensor(rng.normal(0, 1, (2, 5)), requires_grad=True)
        out = block(a, b)
        assert out._opname == "conv_bn_relu"
        assert out._parents[:2] == (a, b)
        stem = TransformBlock.create(rng, 2, 3, 3)
        img = tensor(rng.normal(0, 1, (2, 4, 4)), requires_grad=True)
        out = stem(img)
        assert out._opname == "conv_bn_relu"
        assert out._parents[0] is img

    def test_tracker_charges_one_output_per_call(self, rng):
        block = TransformBlock.create(rng, 5, 4)
        stem = TransformBlock.create(rng, 2, 3, 3)
        x = tensor(rng.normal(0, 1, (5, 6)), requires_grad=True)
        a = tensor(rng.normal(0, 1, (2, 6)), requires_grad=True)
        b = tensor(rng.normal(0, 1, (3, 6)), requires_grad=True)
        img = tensor(rng.normal(0, 1, (2, 4, 4)), requires_grad=True)
        # the stem also holds its flat padded input, 2 x (6*6 + 2) doubles,
        # for as long as its recorded backward does
        calls = ((lambda: block(x), (4, 6), 0), (lambda: block(a, b), (4, 6), 0),
                 (lambda: stem(img), (3, 4, 4), 2 * (6 * 6 + 2) * 8))
        for call, shape, flat in calls:
            with T.AllocationTracker() as tracker:
                out = call()
                assert out.shape == shape
                assert tracker.current_bytes == out.data.nbytes + flat
            assert tracker.peak_bytes == out.data.nbytes + flat

    def test_parts_match_concatenated_input(self, rng):
        block = TransformBlock.create(rng, 5, 4)
        a, b = rng.normal(0, 1, (2, 7)), rng.normal(0, 1, (3, 7))
        whole = block(tensor(np.concatenate([a, b]))).data
        assert np.max(np.abs(block(tensor(a), tensor(b)).data - whole)) < 1e-12
        with pytest.raises(DimensionError):
            block(tensor(a), tensor(a))

    def test_preact_trace_one_entry_per_call(self, rng):
        block = TransformBlock.create(rng, 3, 4)
        stem = TransformBlock.create(rng, 2, 3, 3)
        T._PREACT_TRACE = trace = []
        try:
            for _ in range(3):
                block(tensor(rng.normal(0, 1, (3, 5))))
            block(tensor(rng.normal(0, 1, (1, 5))), tensor(rng.normal(0, 1, (2, 5))))
            stem(tensor(rng.normal(0, 1, (2, 4, 4))))
        finally:
            T._PREACT_TRACE = None
        assert len(trace) == 5
        assert all(v >= 0.0 for v in trace)

    def test_created_shift_within_documented_band(self, rng):
        for _ in range(10):
            block = TransformBlock.create(rng, 3, 8)
            assert np.all(np.abs(block.bn_shift.data) <= 0.1)

    def test_bn_shape_mismatch_rejected(self, rng):
        block = TransformBlock(weight=tensor(np.eye(2)),
                               bn_scale=tensor(np.ones(3)),
                               bn_shift=tensor(np.zeros(2)))
        with pytest.raises(DimensionError):
            block(tensor(np.ones((2, 5))))

    def test_input_channel_mismatch(self, rng):
        block = TransformBlock.create(rng, 3, 2)
        with pytest.raises(DimensionError):
            block(tensor(np.ones((4, 5))))

    def test_named_parameters(self, rng):
        block = TransformBlock.create(rng, 2, 3)
        names = [n for n, _ in block.named_parameters("t.")]
        assert names == ["t.weight", "t.bn_scale", "t.bn_shift"]


class TestConv3x3Block:
    """A transform block at kernel 3."""

    def test_matches_spatial_loop_composition(self, rng):
        block = TransformBlock.create(rng, 2, 3, 3)
        x = rng.normal(0, 1, (2, 4, 4))
        got = block(tensor(x)).data  # (3, 4, 4)
        pre = oracles.conv_spatial_loops(x, block.weight.data, dilation=1)
        want = oracles.transform_loops(
            pre.reshape(3, -1), np.eye(3), block.bn_scale.data,
            block.bn_shift.data).reshape(3, 4, 4)
        assert got.shape == (3, 4, 4)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_requires_spatial_input(self, rng):
        block = TransformBlock.create(rng, 2, 3, 3)
        with pytest.raises(DimensionError):
            block(tensor(np.ones((2, 16))))

    def test_init_bound_uses_nine_tap_fan_in(self, rng):
        block = TransformBlock.create(rng, 4, 4, 3)
        assert np.all(np.abs(block.weight.data) <= 1.0 / np.sqrt(4 * 9))


class TestConv1x1Head:
    def test_param_count_and_names(self, rng):
        head = Conv1x1Head.create(rng, 5, 3)
        names = [n for n, _ in head.named_parameters("h.")]
        assert names == ["h.weight", "h.bias"]
        biasless = Conv1x1Head.create(rng, 5, 3, bias=False)
        assert [n for n, _ in biasless.named_parameters()] == ["weight"]

    def test_applies_weight_and_bias(self, rng):
        head = Conv1x1Head.create(rng, 3, 2)
        x = rng.normal(0, 1, (3, 4))
        want = oracles.conv1x1_loops(x, head.weight.data, head.bias.data)
        assert np.max(np.abs(head(tensor(x)).data - want)) < 1e-12


class TestSgd:
    def test_plain_step(self):
        p = tensor([[1.0, 2.0]], requires_grad=True)
        p.grad = np.array([[0.5, -1.0]])
        Sgd([p]).step(0.1)
        assert np.allclose(p.data, [[0.95, 2.1]], atol=1e-15)

    def test_none_grads_skipped(self):
        p = tensor([[1.0]], requires_grad=True)
        Sgd([p]).step(10.0)
        assert p.data[0, 0] == 1.0

    def test_zero_grad_clears(self):
        p = tensor([[1.0]], requires_grad=True)
        p.grad = np.array([[1.0]])
        opt = Sgd([p])
        opt.zero_grad()
        assert p.grad is None

