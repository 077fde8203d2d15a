"""Scaled dot-product attention building blocks and the machine-checked
correspondence between the attention pipeline and the region-context one."""
import numpy as np
import pytest

import ocrseg.models as models
import ocrseg.tensor as T
from ocrseg.attention import (EquivalenceMapping, EquivalenceReport,
                              decoder_cross_attention,
                              encoder_cross_attention, scaled_dot_attention,
                              transformer_equivalence_check)
from ocrseg.blocks import Conv1x1Head, TransformBlock
from ocrseg.context import (FeatureMap, RegionReps, RelationMatrix,
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


class TestAttentionBundle:
    """Attention inputs (queries, keys, values, scale) that the ops reject."""

    def test_width_mismatch(self, rng):
        with pytest.raises(DimensionError):
            scaled_dot_attention(tensor(rng.normal(0, 1, (2, 3))),
                                 tensor(rng.normal(0, 1, (4, 2))),
                                 tensor(rng.normal(0, 1, (4, 5))))

    def test_key_value_row_mismatch(self, rng):
        with pytest.raises(DimensionError):
            scaled_dot_attention(tensor(rng.normal(0, 1, (2, 3))),
                                 tensor(rng.normal(0, 1, (4, 3))),
                                 tensor(rng.normal(0, 1, (3, 5))))

    def test_bad_scale(self, rng):
        q = tensor(rng.normal(0, 1, (2, 3)))
        k = tensor(rng.normal(0, 1, (4, 3)))
        v = tensor(rng.normal(0, 1, (4, 5)))
        for scale in (0.0, -2.0, float("inf")):
            with pytest.raises(ParameterError):
                scaled_dot_attention(q, k, v, scale=scale)

    def test_requires_2d(self, rng):
        with pytest.raises(DimensionError):
            scaled_dot_attention(tensor(rng.normal(0, 1, 3)),
                                 tensor(rng.normal(0, 1, (4, 3))),
                                 tensor(rng.normal(0, 1, (4, 5))))
        with pytest.raises(DimensionError):
            scaled_dot_attention(tensor(rng.normal(0, 1, (2, 3))),
                                 tensor(rng.normal(0, 1, (4, 3, 1))),
                                 tensor(rng.normal(0, 1, (4, 5))))


class TestScaledDotAttention:
    def test_identical_keys_uniform_and_mean(self, rng):
        key = rng.normal(0, 1, 3)
        keys = np.repeat(key[None, :], 4, axis=0)
        values = rng.normal(0, 1, (4, 5))
        weights, out = scaled_dot_attention(
            tensor(rng.normal(0, 1, (2, 3))), tensor(keys), tensor(values))
        assert np.max(np.abs(weights.data - 0.25)) < 1e-12
        assert np.max(np.abs(out.data - values.mean(axis=0))) < 1e-12

    def test_dominant_key_selects_its_value(self):
        queries = tensor([[10.0, 0.0]])
        keys = tensor([[200.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # gaps >= 1000
        values = tensor([[1.0, -2.0], [5.0, 5.0], [7.0, 7.0]])
        _, out = scaled_dot_attention(queries, keys, values)
        assert np.max(np.abs(out.data[0] - np.array([1.0, -2.0]))) < 1e-9

    def test_matches_scalar_oracle(self, rng):
        q = rng.normal(0, 1, (2, 2))
        k = rng.normal(0, 1, (3, 2))
        v = rng.normal(0, 1, (3, 4))
        scale = 0.7
        weights, out = scaled_dot_attention(tensor(q), tensor(k), tensor(v),
                                            scale=scale)
        want_w = oracles.relations_loops(q.T, k.T, scale)
        assert np.max(np.abs(weights.data - want_w)) < 1e-12
        want_out = oracles.aggregate_loops(want_w, v)
        assert np.max(np.abs(out.data - want_out)) < 1e-12

    def test_rows_simplex_and_envelope(self, rng):
        for _ in range(10):
            nq, nk = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            v = rng.normal(0, 1, (nk, 3))
            weights, out = scaled_dot_attention(
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
        w1, _ = scaled_dot_attention(tensor(q), tensor(k), tensor(v))
        w2, _ = scaled_dot_attention(tensor(q), tensor(k + shift[None, :]), tensor(v))
        assert np.max(np.abs(w1.data - w2.data)) < 1e-9


class TestDecoderCrossAttention:
    def test_queries_equal_classifier_rows(self, rng):
        x = feature_map(rng, 3, 2, 3)
        head = Conv1x1Head.create(rng, 3, 4, bias=False)
        regions = compute_soft_regions(x, head)
        maps, _ = decoder_cross_attention(T.transpose(x.pixels()),
                                          head.weight)
        assert np.array_equal(maps.data, regions.logits.data)
        softmaxed = T.softmax_rows(maps)
        assert np.array_equal(softmaxed.data, regions.normalized.data)

    def test_single_pixel_reps_equal_pixel(self, rng):
        feats = rng.normal(0, 1, (1, 3))
        _, reps = decoder_cross_attention(tensor(feats),
                                          tensor(rng.normal(0, 1, (4, 3))))
        assert np.max(np.abs(reps.data - np.repeat(feats, 4, axis=0))) < 1e-12

    def test_reps_match_region_pooling(self, rng):
        x = feature_map(rng, 3, 2, 3)
        head = Conv1x1Head.create(rng, 3, 4, bias=False)
        regions = compute_soft_regions(x, head)
        pooled = region_representations(T.transpose(x.pixels()), regions)
        _, reps = decoder_cross_attention(T.transpose(x.pixels()),
                                          head.weight)
        assert np.max(np.abs(reps.data - pooled.reps.data)) < 1e-12

    def test_logits_computed_once(self, rng, monkeypatch):
        calls = []
        real = T.matmul

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(T, "matmul", counting)
        maps, reps = decoder_cross_attention(tensor(rng.normal(0, 1, (6, 3))),
                                             tensor(rng.normal(0, 1, (4, 3))))
        # one (K, N) logit product and one (K, N) @ (N, C) aggregation
        assert calls == [((4, 3), (3, 6)), ((4, 6), (6, 3))]
        assert maps.shape == (4, 6) and reps.shape == (4, 3)

    def test_requires_2d_features(self, rng):
        with pytest.raises(DimensionError):
            decoder_cross_attention(tensor(rng.normal(0, 1, (2, 2, 3))),
                                    tensor(rng.normal(0, 1, (2, 3))))


class TestEncoderCrossAttention:
    def test_single_key_broadcasts_ffn_of_value(self, rng):
        pixel_q = rng.normal(0, 1, (5, 3))
        value = rng.normal(0, 1, (1, 4))
        ffn = TransformBlock.create(rng, 4, 4)
        out = encoder_cross_attention(tensor(pixel_q),
                                      tensor(rng.normal(0, 1, (1, 3))),
                                      tensor(value), ffn)
        want = oracles.apply_block_loops(ffn, value.T)[:, 0]
        assert np.max(np.abs(out.data - want[None, :])) < 1e-12

    def test_identical_keys_average_values(self, rng):
        key = rng.normal(0, 1, 3)
        values = rng.normal(0, 1, (4, 2))
        out = encoder_cross_attention(tensor(rng.normal(0, 1, (6, 3))),
                                      tensor(np.repeat(key[None, :], 4, axis=0)),
                                      tensor(values), None)
        assert np.max(np.abs(out.data - values.mean(axis=0))) < 1e-12

    def test_matches_region_aggregation(self, rng):
        x = feature_map(rng, 3, 2, 3)
        reps = RegionReps(tensor(rng.normal(0, 1, (4, 3))))
        value = TransformBlock.create(rng, 3, 5)
        output = TransformBlock.create(rng, 5, 5)
        scale = rsqrt_scale(3)
        relations = pixel_region_relations(x, reps, None, None, scale=scale)
        y_ctx = ocr_aggregate(relations, reps, value, output)
        region_values = T.transpose(value(T.transpose(reps.reps)))
        y_att = encoder_cross_attention(T.transpose(x.pixels()), reps.reps,
                                        region_values, output, scale=scale)
        assert np.max(np.abs(y_ctx.pixels().data - y_att.data.T)) < 1e-10

    def test_gradient_through_fused_relation(self, rng):
        # pixel queries, region keys and region values all receive
        # central-difference gradients through the relation op
        q = tensor(rng.normal(0, 1, (6, 4)), requires_grad=True)
        k = tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        v = tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
        fwd = lambda: projected(encoder_cross_attention(q, k, v, None, scale=0.7),
                                np.random.default_rng(25))
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

    def test_biased_region_head_rejected(self, rng):
        mapping = EquivalenceMapping.from_params(region_stage(in_channels=3,
                                                              num_classes=2))
        mapping.stage.region_head = Conv1x1Head.create(rng, 3, 2, bias=True)
        with pytest.raises(ConfigError) as err:
            transformer_equivalence_check(feature_map(rng, 3, 2, 2), mapping)
        assert "bias-free" in str(err.value)

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
        ("unit", "swapped_keys"), ("rsqrt_key", "unit_scale")])
    def test_fault_in_the_stage_fails_the_gate(self, rng, monkeypatch,
                                               scale_mode, fault):
        # the gate runs the stage's own context, so a fault in the relation
        # step the stage calls must surface as a discrepancy
        real = models.pixel_region_relations

        def faulty(x, reps, pixel_transform, region_transform, scale):
            if fault == "swapped_keys":
                return real(x, reps, region_transform, pixel_transform, scale=scale)
            return real(x, reps, pixel_transform, region_transform, scale=1.0)

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
