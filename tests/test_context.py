"""Region-context pipeline stages, baseline context schemes, and their
simplex/equivariance properties, each checked against loop-written oracles."""
import tracemalloc

import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.blocks import Conv1x1Head, TransformBlock
from ocrseg.context import (FeatureMap, RegionReps, RelationMatrix, SoftRegionSet,
                            acf_scheme_relations, aspp_lite, augment,
                            compute_soft_regions, da_scheme_relations,
                            global_context, ocr_aggregate,
                            pixel_region_relations, ppm_lite,
                            region_representations, scaled_rates,
                            self_attention_context, transpose_reps)
from ocrseg.errors import (ConfigError, DimensionError, ParameterError)
from ocrseg.models import ModelConfig

import oracles
from conftest import dot_all, feature_map, identity_block, region_stage, tensor


def region_set(normalized, height, width, logits=None, empty=()):
    """Build a SoftRegionSet straight from a normalized array."""
    norm = np.asarray(normalized, dtype=np.float64)
    raw = norm if logits is None else np.asarray(logits, dtype=np.float64)
    return SoftRegionSet(tensor(raw), tensor(norm), height, width,
                         empty_regions=tuple(empty))


class TestFeatureMap:
    def test_pixels_row_major(self, rng):
        data = rng.normal(0, 1, (2, 2, 3))
        fm = FeatureMap(tensor(data))
        assert np.array_equal(fm.pixels().data, data.reshape(2, 6))
        back = FeatureMap.from_pixels(fm.pixels(), 2, 3)
        assert np.array_equal(back.tensor.data, data)

    def test_requires_3d(self):
        with pytest.raises(DimensionError):
            FeatureMap(tensor(np.ones((2, 6))))

    def test_pixels_is_a_view_that_passes_gradients(self, rng):
        data = rng.normal(0, 1, (2, 2, 3))
        fm = FeatureMap(tensor(data, requires_grad=True))
        px = fm.pixels()
        assert np.shares_memory(px.data, fm.tensor.data)
        back = FeatureMap.from_pixels(px, 2, 3)
        assert np.shares_memory(back.tensor.data, fm.tensor.data)
        weights = rng.normal(0, 1, (2, 2, 3))
        T.backward(dot_all(back.tensor, tensor(weights)))
        assert np.array_equal(fm.tensor.grad, weights)


class TestSimplexValidation:
    def test_negative_entry_rejected(self):
        bad = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ParameterError):
            RelationMatrix(tensor(bad), 1, 2)

    def test_non_unit_row_rejected(self):
        bad = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ParameterError):
            RelationMatrix(tensor(bad), 1, 2)

    def test_float32_rows_use_the_single_tolerance(self):
        # float32 softmax rows miss 1 by a few 1e-7; 1e-4 is still an error
        near = np.array([[0.5, 0.5 + 4e-7], [0.25, 0.75]], dtype=np.float32)
        assert RelationMatrix(T.Tensor(near), 1, 2).num_regions == 2
        off = np.array([[0.5, 0.5 + 1e-4], [0.25, 0.75]], dtype=np.float32)
        with pytest.raises(ParameterError) as err:
            RelationMatrix(T.Tensor(off), 1, 2)
        assert "row 0 sums to" in str(err.value)

    def test_float64_tolerance_stays_1e_9(self):
        with pytest.raises(ParameterError):
            RelationMatrix(tensor([[0.5, 0.5 + 1e-8], [0.25, 0.75]]), 1, 2)
        assert RelationMatrix(tensor([[0.5, 0.5 + 1e-10], [0.25, 0.75]]),
                              1, 2).num_regions == 2

    def test_exempt_rows_must_be_zero(self):
        rows = np.array([[0.5, 0.5], [0.3, 0.3]])
        with pytest.raises(ParameterError):
            RelationMatrix(tensor(rows), 1, 2, zero_rows=(1,))
        rows[1] = 0.0
        rel = RelationMatrix(tensor(rows), 1, 2, zero_rows=(1,))
        assert rel.num_regions == 2

    def test_negative_entry_message(self):
        bad = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ParameterError) as err:
            RelationMatrix(tensor(bad), 1, 2)
        assert str(err.value) == "RelationMatrix.weights contains negative weights"

    def test_flagged_nonzero_row_message(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 1e-300]])
        with pytest.raises(ParameterError) as err:
            RelationMatrix(tensor(rows), 1, 3, zero_rows=(2,))
        assert str(err.value) == "RelationMatrix.weights row 2 is flagged empty but not zero"

    def test_first_off_sum_row_reported(self):
        rows = np.array([[0.5, 0.5], [0.6, 0.6], [0.1, 0.1], [1.0, 0.0]])
        with pytest.raises(ParameterError) as err:
            RelationMatrix(tensor(rows), 2, 2)
        want = f"RelationMatrix.weights row 1 sums to {rows[1].sum()!r}, expected 1"
        assert str(err.value) == want

    def test_earliest_offender_wins_across_kinds(self):
        rows = np.array([[0.5, 0.5], [0.2, 0.2], [0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ParameterError, match="row 0 is flagged empty"):
            RelationMatrix(tensor(rows), 2, 2, zero_rows=(3, 0))
        with pytest.raises(ParameterError, match="row 1 sums to"):
            RelationMatrix(tensor(rows), 2, 2, zero_rows=(3, 2))

    def test_exempt_rows_need_not_sum_to_one(self):
        rows = np.array([[0.0, 0.0], [0.25, 0.75], [0.0, 0.0]])
        rel = RelationMatrix(tensor(rows), 1, 3, zero_rows=(0, 2, 2, 7, -1))
        assert rel.num_regions == 2
        with pytest.raises(ParameterError, match="row 0 sums to"):
            RelationMatrix(tensor(rows), 1, 3, zero_rows=(2,))

    def test_matches_row_loop_on_random_matrices(self, rng):
        for _ in range(300):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            mat = rng.dirichlet(np.ones(k), size=n)
            exempt = tuple(int(i) for i in rng.integers(-1, n + 1, rng.integers(0, 3)))
            for i in exempt:
                if 0 <= i < n and rng.random() < 0.7:
                    mat[i] = 0.0
            if rng.random() < 0.5:
                mat[rng.integers(n), rng.integers(k)] += rng.choice([-2e-9, 0.3, 1e-10])
            want = oracles.simplex_rows_error(mat, exempt, "M")
            if want is None:
                RelationMatrix(tensor(mat), 1, n, zero_rows=exempt)
                continue
            with pytest.raises(ParameterError) as err:
                RelationMatrix(tensor(mat), 1, n, zero_rows=exempt)
            assert str(err.value) == want.replace("M", "RelationMatrix.weights", 1)

    def test_region_set_shape_checks(self):
        norm = np.array([[1.0, 0.0]])
        with pytest.raises(DimensionError):
            SoftRegionSet(tensor(np.ones((2, 2))), tensor(norm), 1, 2)
        with pytest.raises(DimensionError):
            SoftRegionSet(tensor(norm), tensor(norm), 2, 2)


class TestComputeSoftRegions:
    def test_zero_classifier_uniform_rows(self):
        x = feature_map(np.random.default_rng(0), 3, 2, 2)
        head = Conv1x1Head(tensor(np.zeros((2, 3))))
        regions = compute_soft_regions(x, head)
        assert np.allclose(regions.normalized.data, 0.25, atol=1e-15)

    def test_single_pixel_column_of_ones(self, rng):
        x = feature_map(rng, 3, 1, 1)
        head = Conv1x1Head.create(rng, 3, 4)
        regions = compute_soft_regions(x, head)
        assert np.array_equal(regions.normalized.data, np.ones((4, 1)))

    def test_hand_logits_match_scalar_softmax(self):
        # pixels form an identity, so logits == head weight rows
        x = FeatureMap(tensor(np.eye(4).reshape(4, 2, 2)))
        w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        regions = compute_soft_regions(x, Conv1x1Head(tensor(w)))
        assert np.max(np.abs(regions.logits.data - w)) < 1e-15
        want = oracles.softmax_rows_loops(w)
        assert np.max(np.abs(regions.normalized.data - want)) < 1e-12

    def test_rows_are_simplex(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 9))
            x = feature_map(rng, 4, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            head = Conv1x1Head.create(rng, 4, k)
            regions = compute_soft_regions(x, head)
            rows = regions.normalized.data
            assert np.all(rows >= 0)
            assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-9

    def test_channel_mismatch(self, rng):
        x = feature_map(rng, 3, 2, 2)
        with pytest.raises(DimensionError):
            compute_soft_regions(x, Conv1x1Head.create(rng, 5, 2))


class TestRegionRepresentations:
    def test_one_hot_row_selects_pixel(self):
        regions = region_set([[1.0, 0.0], [0.0, 1.0]], 1, 2)
        pixels = tensor([[1.0, 2.0], [3.0, 4.0]])  # (N, C)
        reps = region_representations(pixels, regions)
        assert np.array_equal(reps.reps.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_uniform_row_is_mean_pooling(self, rng):
        pixels = rng.normal(0, 1, (4, 3))
        regions = region_set(np.full((1, 4), 0.25), 2, 2)
        reps = region_representations(tensor(pixels), regions)
        assert np.max(np.abs(reps.reps.data[0] - pixels.mean(axis=0))) < 1e-12

    def test_matches_summation_loop(self, rng):
        norm = oracles.softmax_rows_loops(rng.normal(0, 1, (3, 4)))
        pixels = rng.normal(0, 1, (4, 3))
        reps = region_representations(tensor(pixels), region_set(norm, 2, 2))
        want = oracles.region_reps_loops(norm, pixels)
        assert np.max(np.abs(reps.reps.data - want)) < 1e-12

    def test_pixel_count_mismatch(self, rng):
        regions = region_set(np.full((1, 4), 0.25), 2, 2)
        with pytest.raises(DimensionError):
            region_representations(tensor(rng.normal(0, 1, (5, 3))), regions)


class TestPixelRegionRelations:
    def test_single_region_all_ones(self, rng):
        x = feature_map(rng, 3, 2, 2)
        reps = RegionReps(tensor(rng.normal(0, 1, (1, 3))))
        rel = pixel_region_relations(x, reps, None, None)
        assert np.array_equal(rel.weights.data, np.ones((4, 1)))

    def test_identity_keys_hand_value(self):
        x = FeatureMap(tensor(np.array([1.0, 0.0]).reshape(2, 1, 1)))
        reps = RegionReps(tensor([[1.0, 0.0], [0.0, 1.0]]))
        ident = identity_block(2)
        rel = pixel_region_relations(x, reps, ident, ident, scale=1.0)
        assert abs(rel.weights.data[0, 0] - 0.7311) < 1e-4
        assert abs(rel.weights.data[0, 1] - 0.2689) < 1e-4

    def test_identical_regions_half_half(self, rng):
        x = feature_map(rng, 3, 2, 2)
        row = rng.normal(0, 1, 3)
        reps = RegionReps(tensor(np.stack([row, row])))
        rel = pixel_region_relations(x, reps, None, None)
        assert np.max(np.abs(rel.weights.data - 0.5)) < 1e-12

    def test_matches_loop_oracle_with_transforms(self, rng):
        x = feature_map(rng, 3, 2, 3)
        reps = RegionReps(tensor(rng.normal(0, 1, (4, 3))))
        phi = TransformBlock.create(rng, 3, 5)
        psi = TransformBlock.create(rng, 3, 5)
        for scale in (1.0, 0.5):
            rel = pixel_region_relations(x, reps, phi, psi, scale=scale)
            pixel_keys = oracles.apply_block_loops(phi, x.tensor.data.reshape(3, 6))
            region_keys = oracles.apply_block_loops(psi, reps.reps.data.T)
            want = oracles.relations_loops(pixel_keys, region_keys, scale)
            assert np.max(np.abs(rel.weights.data - want)) < 1e-12

    def test_shift_invariance_per_pixel(self, rng):
        # appending a constant key channel shifts a whole logit row; the
        # softmax output and the per-pixel argmax region must not move
        pk = rng.normal(0, 1, (3, 4))
        rk = rng.normal(0, 1, (3, 2))
        shifts = rng.normal(0, 5, 4)
        x1 = FeatureMap(tensor(pk.reshape(3, 2, 2)))
        reps1 = RegionReps(tensor(rk.T))
        rel1 = pixel_region_relations(x1, reps1, None, None)
        x2 = FeatureMap(tensor(np.vstack([pk, shifts]).reshape(4, 2, 2)))
        reps2 = RegionReps(tensor(np.vstack([rk, np.ones(2)]).T))
        rel2 = pixel_region_relations(x2, reps2, None, None)
        assert np.max(np.abs(rel1.weights.data - rel2.weights.data)) < 1e-9
        assert np.array_equal(np.argmax(rel1.weights.data, axis=1),
                              np.argmax(rel2.weights.data, axis=1))

    def test_key_width_mismatch(self, rng):
        x = feature_map(rng, 3, 2, 2)
        reps = RegionReps(tensor(rng.normal(0, 1, (2, 4))))
        with pytest.raises(DimensionError):
            pixel_region_relations(x, reps, None, None)

    def test_bad_scale(self, rng):
        x = feature_map(rng, 3, 2, 2)
        reps = RegionReps(tensor(rng.normal(0, 1, (2, 3))))
        for scale in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                pixel_region_relations(x, reps, None, None, scale=scale)


class TestOcrAggregate:
    def test_one_hot_weights_select_region(self, rng):
        reps = RegionReps(tensor(rng.normal(0, 1, (3, 4))))
        delta = TransformBlock.create(rng, 4, 5)
        rho = TransformBlock.create(rng, 5, 5)
        hot = np.zeros((2, 3))
        hot[0, 2] = hot[1, 0] = 1.0
        y = ocr_aggregate(RelationMatrix(tensor(hot), 1, 2), reps, delta, rho)
        vals = oracles.apply_block_loops(delta, reps.reps.data.T)  # (5, 3)
        want0 = oracles.apply_block_loops(rho, vals[:, [2]])
        want1 = oracles.apply_block_loops(rho, vals[:, [0]])
        assert np.max(np.abs(y.pixels().data[:, 0] - want0[:, 0])) < 1e-12
        assert np.max(np.abs(y.pixels().data[:, 1] - want1[:, 0])) < 1e-12

    def test_equal_regions_constant_output(self, rng):
        row = rng.normal(0, 1, 4)
        reps = RegionReps(tensor(np.stack([row, row, row])))
        weights = oracles.softmax_rows_loops(rng.normal(0, 1, (6, 3)))
        y = ocr_aggregate(RelationMatrix(tensor(weights), 2, 3), reps,
                          TransformBlock.create(rng, 4, 5),
                          TransformBlock.create(rng, 5, 5))
        cols = y.pixels().data
        assert np.max(np.abs(cols - cols[:, [0]])) < 1e-12

    def test_matches_double_loop_oracle(self, rng):
        reps = RegionReps(tensor(rng.normal(0, 1, (3, 4))))
        weights = oracles.softmax_rows_loops(rng.normal(0, 1, (4, 3)))
        delta = TransformBlock.create(rng, 4, 5)
        rho = TransformBlock.create(rng, 5, 6)
        y = ocr_aggregate(RelationMatrix(tensor(weights), 2, 2), reps, delta, rho)
        vals = oracles.apply_block_loops(delta, reps.reps.data.T)  # (5, K)
        pre = oracles.aggregate_loops(weights, vals.T)  # (N, 5)
        want = oracles.apply_block_loops(rho, pre.T)
        assert np.max(np.abs(y.pixels().data - want)) < 1e-12

    def test_pre_output_stays_in_value_envelope(self, rng):
        for _ in range(10):
            k, c, n = (int(rng.integers(2, 6)) for _ in range(3))
            reps = RegionReps(tensor(rng.normal(0, 1, (k, c))))
            weights = oracles.softmax_rows_loops(rng.normal(0, 1, (n, k)))
            delta = TransformBlock.create(rng, c, 4)
            y = ocr_aggregate(RelationMatrix(tensor(weights), 1, n), reps,
                              delta, None)
            vals = oracles.apply_block_loops(delta, reps.reps.data.T)
            low = vals.min(axis=1) - 1e-12
            high = vals.max(axis=1) + 1e-12
            cols = y.pixels().data
            assert np.all(cols >= low[:, None]) and np.all(cols <= high[:, None])

    def test_single_region_is_global_pool_of_that_region(self, rng):
        # K=1: relations are forced to 1, so every pixel receives the same
        # context, rho(delta(f1)), where f1 is a weighted global pool
        x = feature_map(rng, 3, 2, 2)
        norm = oracles.softmax_rows_loops(rng.normal(0, 1, (1, 4)))
        reps = region_representations(T.transpose(x.pixels()),
                                      region_set(norm, 2, 2))
        rel = pixel_region_relations(x, reps, None, None)
        assert np.array_equal(rel.weights.data, np.ones((4, 1)))
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 4)
        y = ocr_aggregate(rel, reps, delta, rho)
        pooled = (norm[0][:, None] * x.pixels().data.T).sum(axis=0)
        want = oracles.apply_block_loops(
            rho, oracles.apply_block_loops(delta, pooled[:, None]))
        assert np.max(np.abs(y.pixels().data - np.repeat(want, 4, axis=1))) < 1e-12

    def test_region_count_mismatch(self, rng):
        reps = RegionReps(tensor(rng.normal(0, 1, (3, 4))))
        weights = np.ones((2, 2)) * 0.5
        with pytest.raises(DimensionError):
            ocr_aggregate(RelationMatrix(tensor(weights), 1, 2), reps, None, None)


class TestAugment:
    def test_identity_on_concat_recovers_both(self, rng):
        x = FeatureMap(tensor(np.abs(rng.normal(0, 1, (2, 2, 2)))))
        y = FeatureMap(tensor(np.abs(rng.normal(0, 1, (3, 2, 2)))))
        z = augment(x, y, identity_block(5))
        assert np.max(np.abs(z.tensor.data[:2] - x.tensor.data)) < 1e-12
        assert np.max(np.abs(z.tensor.data[2:] - y.tensor.data)) < 1e-12

    def test_zero_context_selector_gives_zero(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 2))))
        y = FeatureMap(tensor(np.zeros((3, 2, 2))))
        selector = np.hstack([np.zeros((3, 2)), np.eye(3)])  # keep only y half
        block = TransformBlock(
            weight=tensor(selector), bn_scale=tensor(np.ones(3)),
            bn_shift=tensor(np.zeros(3)), bn_mean=np.zeros(3), bn_var=np.ones(3))
        z = augment(x, y, block)
        assert np.array_equal(z.tensor.data, np.zeros((3, 2, 2)))

    def test_matches_concat_transform_oracle(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 3))))
        y = FeatureMap(tensor(rng.normal(0, 1, (3, 2, 3))))
        g = TransformBlock.create(rng, 5, 4)
        z = augment(x, y, g)
        stacked = np.vstack([x.tensor.data.reshape(2, 6), y.tensor.data.reshape(3, 6)])
        want = oracles.apply_block_loops(g, stacked)
        assert np.max(np.abs(z.pixels().data - want)) < 1e-12

    def test_spatial_mismatch(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 2))))
        y = FeatureMap(tensor(rng.normal(0, 1, (3, 2, 3))))
        with pytest.raises(DimensionError):
            augment(x, y, identity_block(5))

    def test_channel_mismatch(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 2))))
        y = FeatureMap(tensor(rng.normal(0, 1, (3, 2, 2))))
        for wrong in (4, 6):
            with pytest.raises(DimensionError):
                augment(x, y, TransformBlock.create(rng, wrong, 3))

    def test_fuse_allocates_no_concatenation(self, rng):
        # (16 + 16) x 16384 float64 would be 4 MiB; the fuse output is 0.5 MiB
        x = feature_map(rng, 16, 128, 128, requires_grad=True)
        y = feature_map(rng, 16, 128, 128, requires_grad=True)
        g = TransformBlock.create(rng, 32, 4)
        concat_bytes = 32 * 128 * 128 * 8
        with T.AllocationTracker() as tracker:
            z = augment(x, y, g)
        assert tracker.peak_bytes == z.tensor.data.nbytes
        out = z.tensor
        while out._opname != "conv_bn_relu":
            out = out._parents[0]
        assert all(np.shares_memory(p.data, src.tensor.data)
                   for p, src in zip(out._parents[:2], (x, y)))
        with T.no_grad():
            tracemalloc.start()
            try:
                augment(x, y, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < concat_bytes / 2


class TestOcrForward:
    """The region stage that every region-scheme model runs."""

    def test_single_pixel_single_region_collapse(self, rng):
        stage = region_stage(in_channels=3, num_classes=1)
        x = feature_map(rng, 3, 1, 1)
        z, aux = stage(x, None)
        assert aux.data.shape == (1, 1)
        f = x.pixels()  # the single pixel is the region rep
        y = stage.output_transform(stage.value_transform(f))
        want = oracles.apply_block_loops(
            stage.fuse_transform, np.vstack([f.data, y.data]))
        assert np.max(np.abs(z.pixels().data - want)) < 1e-10

    @pytest.mark.parametrize("scheme", ["ocr", "da", "acf"])
    def test_permutation_equivariance(self, rng, scheme):
        stage = region_stage(scheme, in_channels=4, num_classes=3)
        data = rng.normal(0, 1, (4, 6))
        perm = rng.permutation(6)
        z1, _ = stage(FeatureMap(tensor(data.reshape(4, 2, 3))), None)
        z2, _ = stage(FeatureMap(tensor(data[:, perm].reshape(4, 2, 3))), None)
        assert np.max(np.abs(z2.pixels().data - z1.pixels().data[:, perm])) < 1e-10

    def test_full_composition_against_loop_oracle(self, rng):
        stage = region_stage(in_channels=4, num_classes=3)
        x = feature_map(rng, 4, 8, 8)
        z, aux = stage(x, None)

        px = x.tensor.data.reshape(4, 64)
        logits = oracles.conv1x1_loops(px, stage.region_head.weight.data)
        assert np.max(np.abs(aux.data - logits)) < 1e-10
        norm = oracles.softmax_rows_loops(logits)
        reps = oracles.region_reps_loops(norm, px.T)
        pixel_keys = oracles.apply_block_loops(stage.pixel_transform, px)
        region_keys = oracles.apply_block_loops(stage.region_transform, reps.T)
        rel = oracles.relations_loops(pixel_keys, region_keys,
                                      stage.config.relation_scale)
        vals = oracles.apply_block_loops(stage.value_transform, reps.T)
        pre = oracles.aggregate_loops(rel, vals.T)
        y = oracles.apply_block_loops(stage.output_transform, pre.T)
        want = oracles.apply_block_loops(stage.fuse_transform, np.vstack([px, y]))
        assert np.max(np.abs(z.pixels().data - want)) < 1e-10

    def test_da_wide_regions_use_unsupervised_maps(self, rng):
        stage = region_stage("da", in_channels=3, num_classes=2, da_regions=5)
        x = feature_map(rng, 3, 2, 3)
        z, aux = stage(x, None)
        # auxiliary regions still carry one row per class
        assert aux.data.shape == (2, 6)
        assert z.pixels().data.shape[0] == stage.fuse_transform.out_channels

    def test_stem_reroutes_pipeline_but_not_region_head(self, rng):
        stage = region_stage(in_channels=3, num_classes=2, use_stem=True)
        x = feature_map(rng, 3, 3, 3)
        _, aux = stage(x, None)
        head_logits = oracles.conv1x1_loops(x.tensor.data.reshape(3, 9),
                                            stage.region_head.weight.data)
        assert np.max(np.abs(aux.data - head_logits)) < 1e-12


class TestSelfAttention:
    def test_identical_pixels_uniform(self, rng):
        col = rng.normal(0, 1, 3)
        data = np.repeat(col[:, None], 4, axis=1).reshape(3, 2, 2)
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 4)
        fm, rel = self_attention_context(FeatureMap(tensor(data)), None, None,
                                         delta, rho, return_relations=True)
        assert np.max(np.abs(rel.weights.data - 0.25)) < 1e-12
        want = oracles.apply_block_loops(
            rho, oracles.apply_block_loops(delta, col[:, None]))
        assert np.max(np.abs(fm.pixels().data - want)) < 1e-12

    def test_single_pixel(self, rng):
        x = feature_map(rng, 3, 1, 1)
        delta = TransformBlock.create(rng, 3, 4)
        y = self_attention_context(x, None, None, delta, None)
        want = oracles.apply_block_loops(delta, x.pixels().data)
        assert np.max(np.abs(y.pixels().data - want)) < 1e-12

    def test_matches_double_loop(self, rng):
        x = feature_map(rng, 3, 2, 2)
        phi = TransformBlock.create(rng, 3, 4)
        psi = TransformBlock.create(rng, 3, 4)
        delta = TransformBlock.create(rng, 3, 5)
        rho = TransformBlock.create(rng, 5, 5)
        scale = 0.5
        fm, rel = self_attention_context(x, phi, psi, delta, rho, scale=scale,
                                         return_relations=True)
        px = x.pixels().data
        q = oracles.apply_block_loops(phi, px)
        k = oracles.apply_block_loops(psi, px)
        w = oracles.relations_loops(q, k, scale)
        assert np.max(np.abs(rel.weights.data - w)) < 1e-12
        vals = oracles.apply_block_loops(delta, px)
        want = oracles.apply_block_loops(rho, oracles.aggregate_loops(w, vals.T).T)
        assert np.max(np.abs(fm.pixels().data - want)) < 1e-12

    def test_rows_are_simplex(self, rng):
        x = feature_map(rng, 3, 3, 3)
        _, rel = self_attention_context(x, None, None, None, None,
                                        return_relations=True)
        sums = rel.weights.data.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert np.all(rel.weights.data >= 0)

    def test_bad_scale(self, rng):
        with pytest.raises(ParameterError):
            self_attention_context(feature_map(rng, 2, 2, 2), None, None,
                                   None, None, scale=0.0)


class TestGlobalContext:
    def test_spatially_constant(self, rng):
        x = feature_map(rng, 3, 3, 2)
        y = global_context(x, TransformBlock.create(rng, 3, 4),
                           TransformBlock.create(rng, 4, 4))
        cols = y.pixels().data
        assert np.max(np.abs(cols - cols[:, [0]])) < 1e-12

    def test_matches_mean_then_output_oracle(self, rng):
        x = feature_map(rng, 3, 3, 3)
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 5)
        y = global_context(x, delta, rho)
        vals = oracles.apply_block_loops(delta, x.pixels().data)
        mean = vals.mean(axis=1, keepdims=True)
        want = oracles.apply_block_loops(rho, mean)
        assert np.max(np.abs(y.pixels().data - np.repeat(want, 9, axis=1))) < 1e-12

    def test_equals_self_attention_under_uniform_weights(self, rng):
        # a zero-weight context transform makes every key identical, which
        # turns dense attention into plain mean pooling
        x = feature_map(rng, 3, 2, 3)
        flat_keys = TransformBlock(
            weight=tensor(np.zeros((3, 3))), bn_scale=tensor(np.ones(3)),
            bn_shift=tensor(np.full(3, 0.3)), bn_mean=np.zeros(3),
            bn_var=np.ones(3))
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 4)
        attn = self_attention_context(x, None, flat_keys, delta, rho)
        pooled = global_context(x, delta, rho)
        assert np.max(np.abs(attn.tensor.data - pooled.tensor.data)) < 1e-12


class TestSchemeRelations:
    def test_da_zero_predictor_uniform(self, rng):
        x = feature_map(rng, 3, 2, 2)
        head = Conv1x1Head(tensor(np.zeros((4, 3))), tensor(np.zeros(4)))
        rel = da_scheme_relations(x, head)
        assert np.max(np.abs(rel.weights.data - 0.25)) < 1e-15

    def test_da_single_region_ones(self, rng):
        x = feature_map(rng, 3, 2, 2)
        rel = da_scheme_relations(x, Conv1x1Head.create(rng, 3, 1))
        assert np.array_equal(rel.weights.data, np.ones((4, 1)))

    def test_da_matches_softmax_oracle(self, rng):
        x = feature_map(rng, 3, 2, 3)
        head = Conv1x1Head.create(rng, 3, 4)
        rel = da_scheme_relations(x, head)
        logits = oracles.conv1x1_loops(x.pixels().data, head.weight.data,
                                       head.bias.data)
        want = oracles.softmax_rows_loops(logits.T)
        assert np.max(np.abs(rel.weights.data - want)) < 1e-12

    def test_da_channel_mismatch(self, rng):
        with pytest.raises(DimensionError):
            da_scheme_relations(feature_map(rng, 3, 2, 2),
                                Conv1x1Head.create(rng, 5, 4))

    def test_acf_uniform_logits(self):
        regions = region_set(np.full((3, 4), 0.25), 2, 2,
                             logits=np.ones((3, 4)))
        rel = acf_scheme_relations(regions)
        assert np.max(np.abs(rel.weights.data - 1.0 / 3.0)) < 1e-15

    def test_acf_peaked_logits_near_one_hot(self, rng):
        logits = rng.normal(0, 1, (3, 4))
        logits[1] += 50.0
        norm = oracles.softmax_rows_loops(logits)
        rel = acf_scheme_relations(region_set(norm, 2, 2, logits=logits))
        assert np.all(rel.weights.data[:, 1] > 1.0 - 1e-9)

    def test_acf_matches_per_pixel_softmax(self, rng):
        logits = rng.normal(0, 2, (3, 6))
        norm = oracles.softmax_rows_loops(logits)
        rel = acf_scheme_relations(region_set(norm, 2, 3, logits=logits))
        want = oracles.softmax_rows_loops(logits.T)
        assert np.max(np.abs(rel.weights.data - want)) < 1e-12

    def test_acf_shift_invariance(self, rng):
        logits = rng.normal(0, 1, (3, 4))
        shifted = logits + rng.normal(0, 4, 4)[None, :]  # per-pixel shifts
        rel_a = acf_scheme_relations(
            region_set(oracles.softmax_rows_loops(logits), 2, 2, logits=logits))
        rel_b = acf_scheme_relations(
            region_set(oracles.softmax_rows_loops(shifted), 2, 2, logits=shifted))
        assert np.max(np.abs(rel_a.weights.data - rel_b.weights.data)) < 1e-9


class TestAsppLite:
    def _delta_branches(self, channels, rates):
        branches = []
        for rate in rates:
            k = np.zeros((channels, channels, 3, 3))
            for c in range(channels):
                k[c, c, 1, 1] = 1.0
            branches.append((rate, tensor(k)))
        return branches

    def test_center_delta_kernels_replicate_input(self, rng):
        x = feature_map(rng, 2, 4, 4)
        out = aspp_lite(x, self._delta_branches(2, (1, 2, 3)))
        assert out.channels == 6
        for branch in range(3):
            sl = out.tensor.data[2 * branch:2 * branch + 2]
            assert np.max(np.abs(sl - x.tensor.data)) < 1e-15

    def test_single_pixel_center_tap_only(self, rng):
        x = rng.normal(0, 1, (2, 1, 1))
        kern = rng.normal(0, 1, (1, 2, 3, 3))
        out = aspp_lite(FeatureMap(tensor(x)), [(2, tensor(kern))])
        want = sum(kern[0, c, 1, 1] * x[c, 0, 0] for c in range(2))
        assert abs(out.tensor.data[0, 0, 0] - want) < 1e-12

    def test_matches_direct_summation(self, rng):
        x = rng.normal(0, 1, (2, 4, 4))
        k1 = rng.normal(0, 1, (3, 2, 3, 3))
        k2 = rng.normal(0, 1, (3, 2, 3, 3))
        out = aspp_lite(FeatureMap(tensor(x)), [(1, tensor(k1)), (2, tensor(k2))])
        want = np.concatenate([oracles.conv_spatial_loops(x, k1, 1),
                               oracles.conv_spatial_loops(x, k2, 2)])
        assert np.max(np.abs(out.tensor.data - want)) < 1e-12

    def test_branches_concatenated_in_one_copy(self, rng, monkeypatch):
        calls = []
        real = T.concat0
        monkeypatch.setattr(T, "concat0", lambda *p: calls.append(len(p)) or real(*p))
        aspp_lite(feature_map(rng, 2, 4, 4), self._delta_branches(2, (1, 2, 3)))
        assert calls == [3]

    def test_spec_validation(self, rng):
        x = feature_map(rng, 1, 4, 4)
        with pytest.raises(ParameterError):
            aspp_lite(x, [(2, tensor(np.ones((1, 1, 2, 2))))])  # even
        with pytest.raises(ParameterError):
            aspp_lite(x, [(0, tensor(np.ones((1, 1, 3, 3))))])  # rate < 1
        with pytest.raises(DimensionError):
            aspp_lite(x, [(1, tensor(np.ones((1, 1, 3))))])  # not 4-D
        with pytest.raises(DimensionError):
            aspp_lite(x, [])
        for rates in ((0, 6), (-5,), ()):
            with pytest.raises(ConfigError, match="aspp_rates"):
                ModelConfig(module="aspp_lite", aspp_rates=rates)

    def test_channel_mismatch(self, rng):
        with pytest.raises(DimensionError):
            aspp_lite(feature_map(rng, 2, 4, 4), self._delta_branches(3, (1,)))


class TestScaledRates:
    def test_reference_size_unchanged(self):
        assert scaled_rates((1, 6, 12), 64, 64) == (1, 6, 12)

    def test_half_size_halves_and_clips(self):
        # 1 * 0.5 rounds to 0 and is floored at 1
        assert scaled_rates((1, 6, 12), 32, 32) == (1, 3, 6)

    def test_double_size_doubles(self):
        assert scaled_rates((1, 6, 12), 128, 128) == (2, 12, 24)


class TestPpmLite:
    def test_global_bin_constant_branch(self, rng):
        x = feature_map(rng, 3, 4, 4)
        proj = Conv1x1Head.create(rng, 3, 2, bias=False)
        out = ppm_lite(x, (1,), (proj,))
        branch = out.tensor.data[3:]
        assert branch.shape == (2, 4, 4)
        assert np.max(np.abs(branch - branch[:, :1, :1])) < 1e-12

    def test_full_bin_identity_projection_recovers_input(self, rng):
        x = feature_map(rng, 3, 4, 4)
        ident = Conv1x1Head(tensor(np.eye(3)))
        out = ppm_lite(x, (4,), (ident,))
        assert np.max(np.abs(out.tensor.data[3:] - x.tensor.data)) < 1e-12

    def test_matches_pool_project_upsample_loops(self, rng):
        x = rng.normal(0, 1, (3, 4, 4))
        projs = [Conv1x1Head.create(rng, 3, 2, bias=False) for _ in range(2)]
        out = ppm_lite(FeatureMap(tensor(x)), (1, 2), projs)
        pieces = [x]
        for b, proj in zip((1, 2), projs):
            pooled = oracles.avg_pool_loops(x, b, b)
            projected = oracles.conv1x1_loops(pooled, proj.weight.data)
            pieces.append(oracles.upsample_nearest_loops(projected, 4, 4))
        want = np.concatenate(pieces)
        assert np.max(np.abs(out.tensor.data - want)) < 1e-12

    def test_branches_concatenated_in_one_copy(self, rng, monkeypatch):
        calls = []
        real = T.concat0
        monkeypatch.setattr(T, "concat0", lambda *p: calls.append(len(p)) or real(*p))
        projs = [Conv1x1Head.create(rng, 3, 2, bias=False) for _ in range(4)]
        out = ppm_lite(feature_map(rng, 3, 6, 6), (1, 2, 3, 6), projs)
        assert calls == [5] and out.channels == 3 + 4 * 2

    def test_bin_larger_than_image(self, rng):
        x = feature_map(rng, 3, 4, 4)
        with pytest.raises(ConfigError):
            ppm_lite(x, (5,), (Conv1x1Head.create(rng, 3, 2),))
