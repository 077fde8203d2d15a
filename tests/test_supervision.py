"""Ground-truth region substitution, pixel-wise losses, and the polynomial
learning rate that the training loop runs."""
import math

import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.context import FeatureMap
from ocrseg.errors import ConfigError, DataError, DimensionError
from ocrseg.config import RunConfig
from ocrseg.data import generate_scenes
from ocrseg.supervision import (LabelMap, LossConfig, combined_loss, gt_regions,
                                gt_relations)
from ocrseg.train import POLY_POWER, prepare_features, train_model

import oracles
from conftest import feature_map, identity_block, region_stage, run_stage, tensor


def label_map(array, num_classes):
    return LabelMap(np.asarray(array, dtype=np.int64), num_classes)


def final_loss(logits, labels):
    """The combined loss of a model without an auxiliary head: the final
    logits' mean cross entropy at weight 1."""
    return combined_loss(logits, None, labels, LossConfig())


def gt_stage(**settings):
    """The region stage with ground-truth regions and relations substituted."""
    return region_stage("gt_ocr", **settings)


class TestLabelMap:
    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            label_map([[0, 3]], 3)

    def test_negative_label(self):
        with pytest.raises(DataError):
            label_map([[-1, 0]], 3)

    def test_ignore_value_allowed(self):
        lm = label_map([[0, 255], [1, 2]], 3)
        assert lm.height == 2 and lm.width == 2
        assert list(lm.flat) == [0, 255, 1, 2]

    def test_requires_2d_integers(self):
        with pytest.raises(DimensionError):
            label_map([0, 1], 2)
        with pytest.raises(DataError):
            LabelMap(np.zeros((2, 2)), 2)

    def test_num_classes_positive(self):
        with pytest.raises(ConfigError):
            label_map([[0]], 0)


class TestLossConfig:
    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError, match="aux_weight"):
            LossConfig(aux_weight=-0.1)


def train_rates(iterations, base_lr=0.01):
    """The cfg and the per-iteration rates of a tiny ``train_model`` run."""
    cfg = RunConfig(seed=4, grid=12, classes=3, iterations=iterations,
                    base_lr=base_lr, feat_channels=6,
                    key_channels=4, mid_channels=8)
    scenes = generate_scenes(cfg.seed, 2, cfg.grid, cfg.classes, cfg.noise,
                             cfg.jitter, cfg.shapes_min, cfg.shapes_max,
                             cfg.ignore_fraction, stream=0)
    _, rows = train_model(cfg, prepare_features(scenes, cfg))
    assert [r.iteration for r in rows] == list(range(iterations))
    return cfg, [r.lr for r in rows]


class TestPolySchedule:
    """The rate is base_lr * (1 - it/iterations)^POLY_POWER, formed by
    ``train_model`` at each iteration it runs."""

    def test_start_is_base_lr(self):
        _, rates = train_rates(4)
        assert rates[0] == 0.01

    def test_end_is_zero(self):
        # the loop stops at the iteration where the rate would reach 0
        cfg, rates = train_rates(4)
        assert len(rates) == cfg.iterations
        assert rates[-1] == 0.01 * (1.0 - 3 / 4) ** 0.9 > 0.0

    def test_midpoint_value(self):
        assert POLY_POWER == 0.9
        _, rates = train_rates(4)
        assert rates[2] == 0.01 * 0.5 ** 0.9
        assert abs(rates[2] - 0.005359) < 1e-6

    def test_strictly_decreasing(self):
        cfg, rates = train_rates(7, base_lr=0.5)
        assert rates == [cfg.base_lr * (1.0 - i / cfg.iterations) ** POLY_POWER
                         for i in range(cfg.iterations)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError, match="base_lr"):
            RunConfig(base_lr=0.0)


class TestGtRegions:
    def test_single_class_uniform_row(self):
        regions = gt_regions(label_map(np.zeros((2, 3), dtype=np.int64), 3))
        assert np.allclose(regions.normalized.data[0], 1.0 / 6.0)
        assert regions.empty_regions == (1, 2)
        assert np.array_equal(regions.normalized.data[1:], np.zeros((2, 6)))

    def test_one_pixel_per_class_identity(self):
        regions = gt_regions(label_map([[0, 1]], 2))
        assert np.array_equal(regions.normalized.data, np.eye(2))

    def test_matches_indicator_loop(self, rng):
        labels = rng.integers(0, 3, (4, 4))
        labels[0, 0] = 255
        lm = label_map(labels, 3)
        regions = gt_regions(lm)
        want = oracles.gt_region_rows_loops(lm.flat, 3)
        assert np.array_equal(regions.normalized.data, want)

    def test_rows_weight_exactly_one_over_count(self, rng):
        labels = rng.integers(0, 4, (5, 5))
        lm = label_map(labels, 4)
        regions = gt_regions(lm)
        for k in range(4):
            count = int((labels == k).sum())
            row = regions.normalized.data[k]
            if count == 0:
                assert k in regions.empty_regions
            else:
                nonzero = row[row > 0]
                assert nonzero.size == count
                assert np.all(nonzero == 1.0 / count)


class TestGtRelations:
    def test_hand_row(self):
        rel = gt_relations(label_map([[2]], 3))
        assert np.array_equal(rel.weights.data, [[0.0, 0.0, 1.0]])

    def test_ignored_pixel_zero_row_flagged(self):
        rel = gt_relations(label_map([[0, 255], [1, 1]], 2))
        assert rel.zero_rows == (1,)
        assert np.array_equal(rel.weights.data[1], np.zeros(2))

    def test_matches_one_hot_loop(self, rng):
        labels = rng.integers(0, 3, (4, 4))
        labels[2, 1] = 255
        lm = label_map(labels, 3)
        rel = gt_relations(lm)
        assert np.array_equal(rel.weights.data,
                              oracles.one_hot_rows_loops(lm.flat, 3))


class TestGtOcrForward:
    """The gt_ocr region stage: ground-truth regions and relations as its
    oracle."""

    def test_same_label_pixels_identical_context(self, rng):
        # identity fuse on nonnegative features makes z = [x; y] exactly,
        # exposing the context half for comparison
        stage = gt_stage(in_channels=3, num_classes=2, mid_channels=5)
        stage.fuse_transform = identity_block(8)
        x = FeatureMap(tensor(np.abs(rng.normal(0, 1, (3, 2, 3)))))
        labels = label_map([[0, 1, 0], [1, 0, 1]], 2)
        z, _ = run_stage(stage, x, labels)
        y = z.data[3:]
        flat = labels.flat
        for a in range(6):
            for b in range(6):
                if flat[a] == flat[b]:
                    assert np.max(np.abs(y[:, a] - y[:, b])) < 1e-12

    def test_single_class_constant_context(self, rng):
        stage = gt_stage(in_channels=3, num_classes=1, mid_channels=4)
        stage.fuse_transform = identity_block(7)
        x = FeatureMap(tensor(np.abs(rng.normal(0, 1, (3, 2, 2)))))
        z, _ = run_stage(stage, x, label_map(np.zeros((2, 2), dtype=np.int64), 1))
        y = z.data[3:]
        assert np.max(np.abs(y - y[:, [0]])) < 1e-12

    def test_matches_loop_composition(self, rng):
        stage = gt_stage(in_channels=3, num_classes=3, mid_channels=5)
        labels = rng.integers(0, 3, (4, 4))
        labels[1, 3] = 255
        lm = label_map(labels, 3)
        x = feature_map(rng, 3, 4, 4)
        z, aux = run_stage(stage, x, lm)
        assert aux is None

        px = x.tensor.data.reshape(3, 16)
        norm = oracles.gt_region_rows_loops(lm.flat, 3)
        rel = oracles.one_hot_rows_loops(lm.flat, 3)
        reps = oracles.region_reps_loops(norm, px.T)
        vals = oracles.apply_block_loops(stage.value_transform, reps.T)
        pre = oracles.aggregate_loops(rel, vals.T)
        y = oracles.apply_block_loops(stage.output_transform, pre.T)
        want = oracles.apply_block_loops(stage.fuse_transform,
                                         np.vstack([px, y]))
        assert np.max(np.abs(z.data - want)) < 1e-12

    def test_mean_replacement_leaves_context_unchanged(self, rng):
        # the context half only sees per-class means of the pixel features
        stage = gt_stage(in_channels=3, num_classes=2, mid_channels=4)
        stage.fuse_transform = identity_block(7)
        data = np.abs(rng.normal(0, 1, (3, 2, 3)))
        labels = label_map([[0, 1, 0], [1, 0, 1]], 2)
        z1, _ = run_stage(stage, FeatureMap(tensor(data)), labels)

        replaced = data.reshape(3, 6).copy()
        flat = labels.flat
        for k in range(2):
            members = flat == k
            replaced[:, members] = replaced[:, members].mean(axis=1, keepdims=True)
        z2, _ = run_stage(stage, FeatureMap(tensor(replaced.reshape(3, 2, 3))), labels)
        y1 = z1.data[3:]
        y2 = z2.data[3:]
        assert np.max(np.abs(y1 - y2)) < 1e-10

    def test_shape_mismatch(self, rng):
        stage = gt_stage(in_channels=3, num_classes=2)
        with pytest.raises(DimensionError):
            run_stage(stage, feature_map(rng, 3, 2, 2), label_map([[0, 1]], 2))
        with pytest.raises(DimensionError):  # as many pixels, transposed
            run_stage(stage, feature_map(rng, 3, 3, 2), label_map([[0, 1, 0], [1, 0, 1]], 2))
        with pytest.raises(ConfigError):
            run_stage(stage, feature_map(rng, 3, 2, 2), None)

    def test_runs_neither_region_head_nor_relation_step(self, rng):
        stage = gt_stage(in_channels=3, num_classes=2)
        x = feature_map(rng, 3, 2, 3)
        labels = label_map([[0, 1, 0], [1, 1, 255]], 2)
        want, _ = run_stage(stage, x, labels)
        stage.region_head = stage.pixel_transform = stage.region_transform = None
        got, _ = run_stage(stage, x, labels)
        assert np.array_equal(got.data, want.data)


class TestPixelCrossEntropy:
    def test_peaked_logits_near_zero(self):
        logits = np.zeros((3, 4))
        labels = np.array([[0, 1, 2, 1]], dtype=np.int64)
        for p, lab in enumerate(labels.ravel()):
            logits[lab, p] = 1000.0
        loss = final_loss(tensor(logits), label_map(labels, 3))
        assert float(loss.data) < 1e-6

    def test_uniform_logits_log_k(self):
        loss = final_loss(tensor(np.zeros((4, 6))),
                          label_map(np.zeros((2, 3), dtype=np.int64), 4))
        assert abs(float(loss.data) - math.log(4.0)) < 1e-6

    def test_matches_scalar_loop(self, rng):
        logits = rng.normal(0, 2, (3, 8))
        labels = rng.integers(0, 3, (2, 4))
        labels[0, 1] = 255
        lm = label_map(labels, 3)
        loss = final_loss(tensor(logits), lm)
        want = oracles.cross_entropy_loops(logits, lm.flat)
        assert abs(float(loss.data) - want) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(10):
            logits = rng.normal(0, 3, (4, 6))
            labels = rng.integers(0, 4, (2, 3))
            loss = final_loss(tensor(logits), label_map(labels, 4))
            assert float(loss.data) >= 0.0

    def test_gradient_matches_finite_differences(self, rng):
        base = rng.normal(0, 1, (3, 5))
        labels = label_map(rng.integers(0, 3, (1, 5)), 3)
        logits = tensor(base.copy(), requires_grad=True)
        loss = final_loss(logits, labels)
        T.backward(loss)
        h = 1e-6
        worst = 0.0
        for idx in np.ndindex(base.shape):
            def value(at):
                probe = base.copy()
                probe[idx] = at
                with T.no_grad():
                    out = final_loss(tensor(probe), labels)
                return float(out.data)
            fd = (value(base[idx] + h) - value(base[idx] - h)) / (2 * h)
            denom = max(abs(fd), abs(logits.grad[idx]), 1e-3)
            worst = max(worst, abs(fd - logits.grad[idx]) / denom)
        assert worst < 1e-4

    def test_too_few_logit_rows(self):
        lm = label_map(np.full((1, 4), 2, dtype=np.int64), 3)
        with pytest.raises(DimensionError):
            final_loss(tensor(np.zeros((2, 4))), lm)
        # the auxiliary term is checked too, even where its labels fit
        lm = label_map(np.zeros((1, 4), dtype=np.int64), 3)
        with pytest.raises(DimensionError, match="2 logit rows for 3 classes"):
            combined_loss(tensor(np.zeros((3, 4))), tensor(np.zeros((2, 4))), lm,
                          LossConfig())


class TestCombinedLoss:
    def test_zero_aux_weight_equals_final_ce(self, rng):
        logits = tensor(rng.normal(0, 1, (3, 6)))
        aux = tensor(rng.normal(0, 1, (3, 6)))
        lm = label_map(rng.integers(0, 3, (2, 3)), 3)
        cfg = LossConfig(aux_weight=0.0)
        loss = combined_loss(logits, aux, lm, cfg)
        want = T.cross_entropy_logits([(logits, 1.0)], lm.flat)
        assert abs(float(loss.data) - float(want.data)) < 1e-15

    def test_uniform_logits_weighted_log_k(self):
        lm = label_map(np.zeros((2, 2), dtype=np.int64), 4)
        flat = tensor(np.zeros((4, 4)))
        loss = combined_loss(flat, flat, lm, LossConfig())
        assert abs(float(loss.data) - 1.4 * math.log(4.0)) < 1e-9

    def test_matches_weighted_sum_oracle(self, rng):
        final = rng.normal(0, 1, (3, 6))
        aux = rng.normal(0, 1, (3, 6))
        labels = rng.integers(0, 3, (2, 3))
        lm = label_map(labels, 3)
        cfg = LossConfig(aux_weight=0.3)
        loss = combined_loss(tensor(final), tensor(aux), lm, cfg)
        want = (oracles.cross_entropy_loops(final, lm.flat)
                + 0.3 * oracles.cross_entropy_loops(aux, lm.flat))
        assert abs(float(loss.data) - want) < 1e-12

    def test_missing_aux_head_drops_term(self, rng):
        logits = tensor(rng.normal(0, 1, (3, 4)))
        lm = label_map(rng.integers(0, 3, (1, 4)), 3)
        loss = combined_loss(logits, None, lm, LossConfig(aux_weight=0.4))
        want = T.cross_entropy_logits([(logits, 1.0)], lm.flat)
        assert abs(float(loss.data) - float(want.data)) < 1e-15

