"""Scaled dot-product attention as the engine forms it, the decoder and
encoder cross-attentions of the attention form, and the machine-checked
correspondence between the attention pipeline and the region-context one."""
import numpy as np
import pytest

import ocrseg.models as models
import ocrseg.tensor as T
from ocrseg.attention import (EquivalenceMapping, EquivalenceReport,
                              transformer_equivalence_check)
from ocrseg.blocks import Conv1x1Head, TransformBlock
from ocrseg.context import (FeatureMap, RelationMatrix,
                            compute_soft_regions, ocr_aggregate,
                            pixel_region_relations, region_representations)
from ocrseg.errors import ConfigError, DimensionError, ParameterError
from ocrseg.models import ModelConfig

import oracles
from conftest import (feature_map, max_grad_fd_error, projected, region_stage,
                      tensor)


def rsqrt_scale(key_width):
    return ModelConfig(key_channels=key_width,
                       attention_scale="rsqrt_key").relation_scale


class TestRsqrtScale:
    def test_known_value(self):
        assert rsqrt_scale(4) == 0.5
        assert abs(rsqrt_scale(64) - 0.125) < 1e-15

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            ModelConfig(key_channels=0, attention_scale="rsqrt_key")


def scaled_dot(queries, keys, values, scale=1.0):
    """Softmax(scale * Q K^T) V for queries (Nq, d), keys (Nkv, d) and values
    (Nkv, dv), by the engine's ops: (weights, output). The weights are the
    scaled row softmax of the product, the output ``attend``'s."""
    q, k = T.transpose(queries), T.transpose(keys)
    return (T.softmax_rows(T.matmul(queries, k), scale),
            T.attend(q, k, T.transpose(values), scale))


class TestScaledDotAttention:
    def test_identical_keys_uniform_and_mean(self, rng):
        key = rng.normal(0, 1, 3)
        keys = np.repeat(key[None, :], 4, axis=0)
        values = rng.normal(0, 1, (4, 5))
        weights, out = scaled_dot(
            tensor(rng.normal(0, 1, (2, 3))), tensor(keys), tensor(values))
        assert np.max(np.abs(weights.data - 0.25)) < 1e-12
        assert np.max(np.abs(out.data - values.mean(axis=0))) < 1e-12

    def test_dominant_key_selects_its_value(self):
        queries = tensor([[10.0, 0.0]])
        keys = tensor([[200.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # gaps >= 1000
        values = tensor([[1.0, -2.0], [5.0, 5.0], [7.0, 7.0]])
        _, out = scaled_dot(queries, keys, values)
        assert np.max(np.abs(out.data[0] - np.array([1.0, -2.0]))) < 1e-9

    def test_matches_scalar_oracle(self, rng):
        q = rng.normal(0, 1, (2, 2))
        k = rng.normal(0, 1, (3, 2))
        v = rng.normal(0, 1, (3, 4))
        scale = 0.7
        weights, out = scaled_dot(tensor(q), tensor(k), tensor(v), scale=scale)
        want_w = oracles.relations_loops(q.T, k.T, scale)
        assert np.max(np.abs(weights.data - want_w)) < 1e-12
        want_out = oracles.aggregate_loops(want_w, v)
        assert np.max(np.abs(out.data - want_out)) < 1e-12

    def test_rows_simplex_and_envelope(self, rng):
        for _ in range(10):
            nq, nk = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            v = rng.normal(0, 1, (nk, 3))
            weights, out = scaled_dot(
                tensor(rng.normal(0, 1, (nq, 4))), tensor(rng.normal(0, 1, (nk, 4))),
                tensor(v), scale=rsqrt_scale(4))
            assert np.all(weights.data >= 0)
            assert np.max(np.abs(weights.data.sum(axis=1) - 1.0)) < 1e-9
            low, high = v.min(axis=0) - 1e-12, v.max(axis=0) + 1e-12
            assert np.all(out.data >= low) and np.all(out.data <= high)

    def test_row_shift_leaves_weights_unchanged(self, rng):
        # adding one shared vector to every key shifts each logit row by a
        # constant, which the softmax must ignore
        q = rng.normal(0, 1, (3, 4))
        k = rng.normal(0, 1, (5, 4))
        v = rng.normal(0, 1, (5, 2))
        shift = rng.normal(0, 3, 4)
        w1, _ = scaled_dot(tensor(q), tensor(k), tensor(v))
        w2, _ = scaled_dot(tensor(q), tensor(k + shift[None, :]), tensor(v))
        assert np.max(np.abs(w1.data - w2.data)) < 1e-9


class TestDecoderCrossAttention:
    """The region head's (K, C) rows attend over the (C, N) pixels as keys
    and values at unit scale; the outputs are the (K, C) region
    representations."""

    def test_single_pixel_reps_equal_pixel(self, rng):
        pixel = tensor(rng.normal(0, 1, (3, 1)))
        queries = tensor(rng.normal(0, 1, (3, 4)))
        reps = T.attend(queries, pixel, pixel, 1.0)
        assert np.max(np.abs(reps.data - np.repeat(pixel.data.T, 4, axis=0))) < 1e-12

    def test_reps_match_region_pooling(self, rng):
        x = feature_map(rng, 3, 2, 3)
        head = Conv1x1Head.create(rng, 3, 4, bias=False)
        regions = compute_soft_regions(head(x.pixels()))
        pooled = region_representations(T.transpose(x.pixels()), regions)
        reps = T.attend(T.transpose(head.weight), x.pixels(), x.pixels(), 1.0)
        assert np.max(np.abs(reps.data - pooled.data.T)) < 1e-12

    def test_requires_2d_features(self, rng):
        pixels = tensor(rng.normal(0, 1, (3, 2, 2)))
        with pytest.raises(DimensionError):
            T.attend(tensor(rng.normal(0, 1, (3, 2))), pixels, pixels, 1.0)


class TestEncoderCrossAttention:
    """The (d, N) pixel queries attend over (d, K) region keys and (C_v, K)
    values; the output transform plays the feed-forward."""

    def test_single_key_broadcasts_ffn_of_value(self, rng):
        value = rng.normal(0, 1, (4, 1))
        ffn = TransformBlock.create(rng, 4, 4)
        ctx = T.attend(tensor(rng.normal(0, 1, (3, 5))), tensor(rng.normal(0, 1, (3, 1))),
                       tensor(value), 1.0)
        out = ffn(T.transpose(ctx))  # (4, 5)
        want = oracles.apply_block_loops(ffn, value)
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_identical_keys_average_values(self, rng):
        key = rng.normal(0, 1, (3, 1))
        values = rng.normal(0, 1, (2, 4))
        out = T.attend(tensor(rng.normal(0, 1, (3, 6))), tensor(np.repeat(key, 4, axis=1)),
                       tensor(values), 1.0)
        assert np.max(np.abs(out.data - values.mean(axis=1))) < 1e-12

    def test_matches_region_aggregation(self, rng):
        x = feature_map(rng, 3, 2, 3)
        reps = tensor(rng.normal(0, 1, (4, 3)).T)
        value = TransformBlock.create(rng, 3, 5)
        output = TransformBlock.create(rng, 5, 5)
        scale = rsqrt_scale(3)
        query = TransformBlock.create(rng, 3, 3)
        relations = pixel_region_relations(x, reps, query, scale)
        values = value(reps)
        y_ctx = ocr_aggregate(relations, values, output)
        y_att = output(T.transpose(T.attend(query(x.pixels()), reps, values, scale)))
        assert np.max(np.abs(y_ctx.data - y_att.data)) < 1e-10

    def test_gradient_through_fused_relation(self, rng):
        # pixel queries, region keys and region values all receive
        # central-difference gradients through the relation op
        q = tensor(rng.normal(0, 1, (4, 6)), requires_grad=True)
        k = tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)
        v = tensor(rng.normal(0, 1, (5, 3)), requires_grad=True)
        fwd = lambda: projected(T.attend(q, k, v, 0.7), np.random.default_rng(25))
        assert max_grad_fd_error([q, k, v], fwd) < 1e-4


class TestEquivalenceMapping:
    def test_from_params_rejects_other_stages(self):
        for stage in (region_stage("da", in_channels=3, num_classes=2),
                      region_stage(in_channels=3, num_classes=2, use_stem=True)):
            with pytest.raises(ConfigError) as err:
                EquivalenceMapping.from_params(stage)
            assert "no-stem ocr stage" in str(err.value)

    def test_from_params_inherits_relation_scale(self):
        stage = region_stage(in_channels=3, num_classes=2, attention_scale="rsqrt_key")
        mapping = EquivalenceMapping.from_params(stage)
        assert mapping.encoder_scale == stage.config.relation_scale == 0.5


class TestEquivalenceCheck:
    def test_mapped_instance_passes(self, rng):
        mapping = EquivalenceMapping.from_params(region_stage(in_channels=4,
                                                              num_classes=3))
        report = transformer_equivalence_check(feature_map(rng, 4, 3, 3), mapping)
        assert report.passed
        assert report.max_abs_discrepancy <= 1e-10
        assert str(report).startswith("[PASS] max |y_context - y_attention|")

    def test_scale_mismatch_fails_and_is_reported(self, rng):
        mapping = EquivalenceMapping.from_params(
            region_stage(in_channels=4, num_classes=3),
            encoder_scale=rsqrt_scale(4))  # the stage's key width
        report = transformer_equivalence_check(feature_map(rng, 4, 3, 3),
                                               mapping, relation_scale=1.0)
        assert not report.passed
        assert report.max_abs_discrepancy > 1e-10
        assert "scale mismatch" in report.detail
        assert "[FAIL]" in str(report)

    def test_single_region_collapse_passes(self, rng):
        mapping = EquivalenceMapping.from_params(region_stage(in_channels=3,
                                                              num_classes=1))
        report = transformer_equivalence_check(feature_map(rng, 3, 2, 2), mapping)
        assert report.passed

    def test_restated_scales_must_match_the_stage(self, rng):
        mapping = EquivalenceMapping.from_params(region_stage(in_channels=3,
                                                              num_classes=2))
        x = feature_map(rng, 3, 2, 2)
        assert transformer_equivalence_check(x, mapping, region_scale=1.0,
                                             relation_scale=1.0).passed
        for restated in ({"region_scale": 2.0}, {"relation_scale": 0.5}):
            with pytest.raises(ParameterError):
                transformer_equivalence_check(x, mapping, **restated)

    @pytest.mark.parametrize("scale_mode, fault", [
        ("unit", "swapped_keys"), ("rsqrt_key", "unit_scale"),
        ("rsqrt_key", "multiplied_temperature")])
    def test_fault_in_the_stage_fails_the_gate(self, rng, monkeypatch,
                                               scale_mode, fault):
        # the gate runs the stage's own context, so a fault in the relation
        # step the stage calls must surface as a discrepancy. The stage hands
        # that step region keys already transformed, so the swap keys the
        # pixels with the region transform. Multiplying by the temperature
        # instead of dividing is a fault in the row normaliser the stage's
        # softmax shares with ``T.attend``: the gate's attention side is
        # plain NumPy, so it shows too.
        real = models.pixel_region_relations

        def faulty(x, keys, pixel_transform, scale):
            if fault == "swapped_keys":
                return real(x, keys, stage.region_transform, scale=scale)
            return real(x, keys, pixel_transform, scale=1.0)

        real_normalize = T._normalize_rows

        def multiplied(s, temperature=1.0):
            s *= temperature
            real_normalize(s)

        if fault == "multiplied_temperature":
            monkeypatch.setattr(T, "_normalize_rows", multiplied)
        else:
            monkeypatch.setattr(models, "pixel_region_relations", faulty)
        stage = region_stage(in_channels=4, num_classes=3, attention_scale=scale_mode)
        report = transformer_equivalence_check(
            feature_map(rng, 4, 3, 3), EquivalenceMapping.from_params(stage),
            relation_scale=stage.config.relation_scale)
        assert not report.passed
        assert report.max_abs_discrepancy > 1e-10
        assert "[FAIL]" in str(report)

    def test_report_string_carries_discrepancy(self):
        report = EquivalenceReport(2.5e-3, 1e-10, False, "paths disagree")
        text = str(report)
        assert "[FAIL]" in text and "2.500e-03" in text
