"""Region-context pipeline stages, baseline context schemes, and their
simplex/equivariance properties, each checked against loop-written oracles."""
import tracemalloc

import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.blocks import Conv1x1Head, TransformBlock
from ocrseg.context import (FeatureMap, RelationMatrix, SoftRegionSet,
                            acf_scheme_relations, aspp_lite, augment,
                            compute_soft_regions, da_scheme_relations,
                            global_context, ocr_aggregate,
                            pixel_region_relations, ppm_lite,
                            region_representations, scaled_rates,
                            self_attention_context)
from ocrseg.errors import (ConfigError, DimensionError, ParameterError)
from ocrseg.models import ModelConfig, build_model

import oracles
from conftest import (dot_all, feature_map, identity_block, region_stage, run_stage,
                      tensor)


def region_set(normalized, empty=()):
    """Build a SoftRegionSet straight from a normalized array."""
    return SoftRegionSet(tensor(np.asarray(normalized, dtype=np.float64)),
                         empty_regions=tuple(empty))


class TestFeatureMap:
    def test_pixels_row_major(self, rng):
        data = rng.normal(0, 1, (2, 2, 3))
        fm = FeatureMap(tensor(data))
        assert np.array_equal(fm.pixels().data, data.reshape(2, 6))

    def test_requires_3d(self):
        with pytest.raises(DimensionError):
            FeatureMap(tensor(np.ones((2, 6))))

    def test_pixels_is_a_view_that_passes_gradients(self, rng):
        data = rng.normal(0, 1, (2, 2, 3))
        fm = FeatureMap(tensor(data, requires_grad=True))
        px = fm.pixels()
        assert np.shares_memory(px.data, fm.tensor.data)
        weights = rng.normal(0, 1, (2, 2, 3))
        T.backward(dot_all(px, tensor(weights.reshape(2, 6))))
        assert np.array_equal(fm.tensor.grad, weights)


    def test_band_is_a_view_of_its_rows(self, rng):
        data = rng.normal(0, 1, (2, 5, 3))
        fm = FeatureMap(tensor(data))
        assert fm.band(0, 5) is fm
        band = fm.band(2, 4)
        assert (band.top, band.height, band.width) == (2, 2, 3)
        assert np.shares_memory(band.tensor.data, data)
        assert np.array_equal(band.tensor.data, data[:, 2:4])
        assert band.band(1, 2).top == 3


class TestSimplexValidation:
    def test_negative_entry_rejected(self):
        bad = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ParameterError):
            RelationMatrix(tensor(bad), 0)

    def test_non_unit_row_rejected(self):
        bad = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ParameterError):
            RelationMatrix(tensor(bad), 0)

    def test_float32_rows_use_the_single_tolerance(self):
        # float32 softmax rows miss 1 by a few 1e-7; 1e-4 is still an error
        near = np.array([[0.5, 0.5 + 4e-7], [0.25, 0.75]], dtype=np.float32)
        assert RelationMatrix(T.Tensor(near), 0).weights.shape[1] == 2
        off = np.array([[0.5, 0.5 + 1e-4], [0.25, 0.75]], dtype=np.float32)
        with pytest.raises(ParameterError) as err:
            RelationMatrix(T.Tensor(off), 0)
        assert "row 0 sums to" in str(err.value)

    def test_float64_tolerance_stays_1e_9(self):
        with pytest.raises(ParameterError):
            RelationMatrix(tensor([[0.5, 0.5 + 1e-8], [0.25, 0.75]]), 0)
        assert RelationMatrix(tensor([[0.5, 0.5 + 1e-10], [0.25, 0.75]]),
                              0).weights.shape[1] == 2

    def test_nan_row_rejected(self):
        rows = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(ParameterError, match="row 1 sums to"):
            RelationMatrix(tensor(rows), 0)
        with pytest.raises(ParameterError, match="row 1 sums to"):
            region_set(rows)
        with pytest.raises(ParameterError, match="row 1 is flagged empty"):
            RelationMatrix(tensor(rows), 0, zero_rows=(1,))

    def test_exempt_rows_must_be_zero(self):
        rows = np.array([[0.5, 0.5], [0.3, 0.3]])
        with pytest.raises(ParameterError):
            RelationMatrix(tensor(rows), 0, zero_rows=(1,))
        rows[1] = 0.0
        rel = RelationMatrix(tensor(rows), 0, zero_rows=(1,))
        assert rel.weights.shape[1] == 2

    def test_negative_entry_message(self):
        bad = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ParameterError) as err:
            RelationMatrix(tensor(bad), 0)
        assert str(err.value) == "RelationMatrix.weights contains negative weights"

    def test_flagged_nonzero_row_message(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 1e-300]])
        with pytest.raises(ParameterError) as err:
            RelationMatrix(tensor(rows), 0, zero_rows=(2,))
        assert str(err.value) == "RelationMatrix.weights row 2 is flagged empty but not zero"

    def test_first_off_sum_row_reported(self):
        rows = np.array([[0.5, 0.5], [0.6, 0.6], [0.1, 0.1], [1.0, 0.0]])
        with pytest.raises(ParameterError) as err:
            RelationMatrix(tensor(rows), 0)
        want = f"RelationMatrix.weights row 1 sums to {rows[1].sum()!r}, expected 1"
        assert str(err.value) == want

    def test_earliest_offender_wins_across_kinds(self):
        rows = np.array([[0.5, 0.5], [0.2, 0.2], [0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ParameterError, match="row 0 is flagged empty"):
            RelationMatrix(tensor(rows), 0, zero_rows=(3, 0))
        with pytest.raises(ParameterError, match="row 1 sums to"):
            RelationMatrix(tensor(rows), 0, zero_rows=(3, 2))

    def test_exempt_rows_need_not_sum_to_one(self):
        rows = np.array([[0.0, 0.0], [0.25, 0.75], [0.0, 0.0]])
        rel = RelationMatrix(tensor(rows), 0, zero_rows=(0, 2, 2, 7, -1))
        assert rel.weights.shape[1] == 2
        with pytest.raises(ParameterError, match="row 0 sums to"):
            RelationMatrix(tensor(rows), 0, zero_rows=(2,))

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
                RelationMatrix(tensor(mat), 0, zero_rows=exempt)
                continue
            with pytest.raises(ParameterError) as err:
                RelationMatrix(tensor(mat), 0, zero_rows=exempt)
            assert str(err.value) == want.replace("M", "RelationMatrix.weights", 1)


class TestComputeSoftRegions:
    def test_zero_classifier_uniform_rows(self):
        x = feature_map(np.random.default_rng(0), 3, 2, 2)
        head = Conv1x1Head(tensor(np.zeros((2, 3))))
        regions = compute_soft_regions(head(x.pixels()))
        assert np.allclose(regions.normalized.data, 0.25, atol=1e-15)

    def test_single_pixel_column_of_ones(self, rng):
        x = feature_map(rng, 3, 1, 1)
        head = Conv1x1Head.create(rng, 3, 4)
        regions = compute_soft_regions(head(x.pixels()))
        assert np.array_equal(regions.normalized.data, np.ones((4, 1)))

    def test_hand_logits_match_scalar_softmax(self):
        # pixels form an identity, so logits == head weight rows
        x = FeatureMap(tensor(np.eye(4).reshape(4, 2, 2)))
        w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        logits = Conv1x1Head(tensor(w))(x.pixels())
        assert np.max(np.abs(logits.data - w)) < 1e-15
        regions = compute_soft_regions(logits)
        want = oracles.softmax_rows_loops(w)
        assert np.max(np.abs(regions.normalized.data - want)) < 1e-12

    def test_rows_are_simplex(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 9))
            x = feature_map(rng, 4, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            head = Conv1x1Head.create(rng, 4, k)
            regions = compute_soft_regions(head(x.pixels()))
            rows = regions.normalized.data
            assert np.all(rows >= 0)
            assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-9

    def test_channel_mismatch(self, rng):
        x = feature_map(rng, 3, 2, 2)
        with pytest.raises(DimensionError):
            compute_soft_regions(Conv1x1Head.create(rng, 5, 2)(x.pixels()))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_unkept_logits_normalised_in_place(self, rng, dtype):
        # under no_grad the maps overwrite their logits, bitwise the maps of
        # softmax_rows, so the set holds the one (K, N) buffer; a recording
        # forward keeps both
        x = FeatureMap(T.Tensor(rng.normal(0, 3, (4, 5, 6)).astype(dtype)))
        head = Conv1x1Head(T.Tensor(rng.normal(0, 1, (7, 4)).astype(dtype)))
        want = compute_soft_regions(head(x.pixels())).normalized.data
        with T.no_grad(), T.AllocationTracker() as tracker:
            logits = head(x.pixels())
            got = compute_soft_regions(logits, keep_logits=False)
        assert got.normalized is logits and np.array_equal(got.normalized.data, want)
        assert got.normalized.data.dtype == dtype and tracker.peak_bytes == want.nbytes
        head.weight.requires_grad = True
        logits = head(x.pixels())
        kept = compute_soft_regions(logits, keep_logits=False)
        assert kept.normalized is not logits and np.array_equal(kept.normalized.data, want)


class TestRegionRepresentations:
    def test_one_hot_row_selects_pixel(self):
        regions = region_set([[1.0, 0.0], [0.0, 1.0]])
        pixels = tensor([[1.0, 2.0], [3.0, 4.0]])  # (N, C)
        reps = region_representations(pixels, regions)
        assert np.array_equal(reps.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_uniform_row_is_mean_pooling(self, rng):
        pixels = rng.normal(0, 1, (4, 3))
        regions = region_set(np.full((1, 4), 0.25))
        reps = region_representations(tensor(pixels), regions)
        assert np.max(np.abs(reps.data[:, 0] - pixels.mean(axis=0))) < 1e-12

    def test_matches_summation_loop(self, rng):
        norm = oracles.softmax_rows_loops(rng.normal(0, 1, (3, 4)))
        pixels = rng.normal(0, 1, (4, 3))
        reps = region_representations(tensor(pixels), region_set(norm))
        want = oracles.region_reps_loops(norm, pixels)
        assert np.max(np.abs(reps.data - want.T)) < 1e-12

    def test_pixel_count_mismatch(self, rng):
        regions = region_set(np.full((1, 4), 0.25))
        with pytest.raises(DimensionError):
            region_representations(tensor(rng.normal(0, 1, (5, 3))), regions)


class TestPixelRegionRelations:
    def test_single_region_all_ones(self, rng):
        x = feature_map(rng, 3, 2, 2)
        reps = tensor(rng.normal(0, 1, (1, 3)).T)
        rel = pixel_region_relations(x, reps, identity_block(3), 1.0)
        assert np.array_equal(rel.weights.data, np.ones((4, 1)))

    def test_identity_keys_hand_value(self):
        x = FeatureMap(tensor(np.array([1.0, 0.0]).reshape(2, 1, 1)))
        reps = tensor([[1.0, 0.0], [0.0, 1.0]])
        ident = identity_block(2)
        rel = pixel_region_relations(x, ident(reps), ident, 1.0)
        assert abs(rel.weights.data[0, 0] - 0.7311) < 1e-4
        assert abs(rel.weights.data[0, 1] - 0.2689) < 1e-4

    def test_identical_regions_half_half(self, rng):
        x = feature_map(rng, 3, 2, 2)
        row = rng.normal(0, 1, 3)
        reps = tensor(np.stack([row, row], axis=1))
        rel = pixel_region_relations(x, reps, TransformBlock.create(rng, 3, 3), 1.0)
        assert np.max(np.abs(rel.weights.data - 0.5)) < 1e-12

    def test_matches_loop_oracle_with_transforms(self, rng):
        x = feature_map(rng, 3, 2, 3)
        reps = tensor(rng.normal(0, 1, (4, 3)).T)
        phi = TransformBlock.create(rng, 3, 5)
        psi = TransformBlock.create(rng, 3, 5)
        for scale in (1.0, 0.5):
            rel = pixel_region_relations(x, psi(reps), phi, scale)
            pixel_keys = oracles.apply_block_loops(phi, x.tensor.data.reshape(3, 6))
            region_keys = oracles.apply_block_loops(psi, reps.data)
            want = oracles.relations_loops(pixel_keys, region_keys, scale)
            assert np.max(np.abs(rel.weights.data - want)) < 1e-12

    def test_shift_invariance_per_pixel(self, rng):
        # appending a constant key channel shifts a whole logit row; the
        # softmax output and the per-pixel argmax region must not move (the
        # pixel keys are nonnegative, which the identity block passes)
        pk = np.abs(rng.normal(0, 1, (3, 4)))
        rk = rng.normal(0, 1, (3, 2))
        shifts = np.abs(rng.normal(0, 5, 4))
        x1 = FeatureMap(tensor(pk.reshape(3, 2, 2)))
        reps1 = tensor(rk)
        rel1 = pixel_region_relations(x1, reps1, identity_block(3), 1.0)
        x2 = FeatureMap(tensor(np.vstack([pk, shifts]).reshape(4, 2, 2)))
        reps2 = tensor(np.vstack([rk, np.ones(2)]))
        rel2 = pixel_region_relations(x2, reps2, identity_block(4), 1.0)
        assert np.max(np.abs(rel1.weights.data - rel2.weights.data)) < 1e-9
        assert np.array_equal(np.argmax(rel1.weights.data, axis=1),
                              np.argmax(rel2.weights.data, axis=1))

    def test_key_width_mismatch(self, rng):
        x = feature_map(rng, 3, 2, 2)
        reps = tensor(rng.normal(0, 1, (2, 4)).T)
        with pytest.raises(DimensionError):
            pixel_region_relations(x, reps, identity_block(3), 1.0)

    def test_bad_scale(self, rng):
        x = feature_map(rng, 3, 2, 2)
        reps = tensor(rng.normal(0, 1, (2, 3)).T)
        for scale in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                pixel_region_relations(x, reps, identity_block(3), scale)


class TestOcrAggregate:
    def test_one_hot_weights_select_region(self, rng):
        reps = tensor(rng.normal(0, 1, (3, 4)).T)
        delta = TransformBlock.create(rng, 4, 5)
        rho = TransformBlock.create(rng, 5, 5)
        hot = np.zeros((2, 3))
        hot[0, 2] = hot[1, 0] = 1.0
        y = ocr_aggregate(RelationMatrix(tensor(hot), 0), delta(reps), rho)
        vals = oracles.apply_block_loops(delta, reps.data)  # (5, 3)
        want0 = oracles.apply_block_loops(rho, vals[:, [2]])
        want1 = oracles.apply_block_loops(rho, vals[:, [0]])
        assert np.max(np.abs(y.data[:, 0] - want0[:, 0])) < 1e-12
        assert np.max(np.abs(y.data[:, 1] - want1[:, 0])) < 1e-12

    def test_equal_regions_constant_output(self, rng):
        row = rng.normal(0, 1, 4)
        reps = tensor(np.stack([row, row, row], axis=1))
        weights = oracles.softmax_rows_loops(rng.normal(0, 1, (6, 3)))
        delta = TransformBlock.create(rng, 4, 5)
        y = ocr_aggregate(RelationMatrix(tensor(weights), 0), delta(reps),
                          TransformBlock.create(rng, 5, 5))
        assert np.max(np.abs(y.data - y.data[:, [0]])) < 1e-12

    def test_matches_double_loop_oracle(self, rng):
        reps = tensor(rng.normal(0, 1, (3, 4)).T)
        weights = oracles.softmax_rows_loops(rng.normal(0, 1, (4, 3)))
        delta = TransformBlock.create(rng, 4, 5)
        rho = TransformBlock.create(rng, 5, 6)
        y = ocr_aggregate(RelationMatrix(tensor(weights), 0), delta(reps), rho)
        vals = oracles.apply_block_loops(delta, reps.data)  # (5, K)
        pre = oracles.aggregate_loops(weights, vals.T)  # (N, 5)
        want = oracles.apply_block_loops(rho, pre.T)
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_pre_output_stays_in_value_envelope(self, rng):
        for _ in range(10):
            k, c, n = (int(rng.integers(2, 6)) for _ in range(3))
            reps = tensor(rng.normal(0, 1, (k, c)).T)
            weights = oracles.softmax_rows_loops(rng.normal(0, 1, (n, k)))
            delta = TransformBlock.create(rng, c, 4)
            # the values are nonnegative, which the identity block passes
            y = ocr_aggregate(RelationMatrix(tensor(weights), 0), delta(reps),
                              identity_block(4))
            vals = oracles.apply_block_loops(delta, reps.data)
            low = vals.min(axis=1) - 1e-12
            high = vals.max(axis=1) + 1e-12
            assert np.all(y.data >= low[:, None]) and np.all(y.data <= high[:, None])

    def test_single_region_is_global_pool_of_that_region(self, rng):
        # K=1: relations are forced to 1, so every pixel receives the same
        # context, rho(delta(f1)), where f1 is a weighted global pool
        x = feature_map(rng, 3, 2, 2)
        norm = oracles.softmax_rows_loops(rng.normal(0, 1, (1, 4)))
        reps = region_representations(T.transpose(x.pixels()),
                                      region_set(norm))
        rel = pixel_region_relations(x, reps, identity_block(3), 1.0)
        assert np.array_equal(rel.weights.data, np.ones((4, 1)))
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 4)
        y = ocr_aggregate(rel, delta(reps), rho)
        pooled = (norm[0][:, None] * x.pixels().data.T).sum(axis=0)
        want = oracles.apply_block_loops(
            rho, oracles.apply_block_loops(delta, pooled[:, None]))
        assert np.max(np.abs(y.data - np.repeat(want, 4, axis=1))) < 1e-12

    def test_region_count_mismatch(self, rng):
        reps = tensor(rng.normal(0, 1, (3, 4)).T)
        weights = np.ones((2, 2)) * 0.5
        with pytest.raises(DimensionError):
            ocr_aggregate(RelationMatrix(tensor(weights), 0), reps, identity_block(4))


class TestAugment:
    def test_identity_on_concat_recovers_both(self, rng):
        x = FeatureMap(tensor(np.abs(rng.normal(0, 1, (2, 2, 2)))))
        y = tensor(np.abs(rng.normal(0, 1, (3, 4))))
        z = augment(x, y, identity_block(5))
        assert np.max(np.abs(z.data[:2] - x.pixels().data)) < 1e-12
        assert np.max(np.abs(z.data[2:] - y.data)) < 1e-12

    def test_zero_context_selector_gives_zero(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 2))))
        y = tensor(np.zeros((3, 4)))
        selector = np.hstack([np.zeros((3, 2)), np.eye(3)])  # keep only y half
        block = TransformBlock(
            weight=tensor(selector), bn_scale=tensor(np.ones(3)),
            bn_shift=tensor(np.zeros(3)))
        z = augment(x, y, block)
        assert np.array_equal(z.data, np.zeros((3, 4)))

    def test_matches_concat_transform_oracle(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 3))))
        y = tensor(rng.normal(0, 1, (3, 6)))
        g = TransformBlock.create(rng, 5, 4)
        z = augment(x, y, g)
        stacked = np.vstack([x.tensor.data.reshape(2, 6), y.data])
        want = oracles.apply_block_loops(g, stacked)
        assert np.max(np.abs(z.data - want)) < 1e-12

    def test_spatial_mismatch(self, rng):
        # a context has the features' pixels or one column, nothing else:
        # the fuse block's column parts reject any other
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 2))))
        for cols in (6, 2, 3):
            with pytest.raises(DimensionError, match="one column"):
                augment(x, tensor(rng.normal(0, 1, (3, cols))), identity_block(5))
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 1, 1))))
        with pytest.raises(DimensionError, match="one column"):  # a pixel takes no more
            augment(x, tensor(rng.normal(0, 1, (3, 4))), identity_block(5))

    def test_channel_mismatch(self, rng):
        x = FeatureMap(tensor(rng.normal(0, 1, (2, 2, 2))))
        y = tensor(rng.normal(0, 1, (3, 4)))
        for wrong in (4, 6):
            with pytest.raises(DimensionError):
                augment(x, y, TransformBlock.create(rng, wrong, 3))

    def test_fuse_allocates_no_concatenation(self, rng):
        # (16 + 16) x 16384 float64 would be 4 MiB; the fuse output is 0.5 MiB
        x = feature_map(rng, 16, 128, 128, requires_grad=True)
        y = feature_map(rng, 16, 128, 128, requires_grad=True).pixels()
        g = TransformBlock.create(rng, 32, 4)
        concat_bytes = 32 * 128 * 128 * 8
        with T.AllocationTracker() as tracker:
            z = augment(x, y, g)
        assert tracker.peak_bytes == z.data.nbytes
        out = z
        while out._opname != "conv_bn_relu":
            out = out._parents[0]
        assert all(np.shares_memory(p.data, src.data)
                   for p, src in zip(out._parents[:2], (x.tensor, y)))
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
        z, aux = run_stage(stage, x)
        assert aux.data.shape == (1, 1)
        f = x.pixels()  # the single pixel is the region rep
        y = stage.output_transform(stage.value_transform(f))
        want = oracles.apply_block_loops(
            stage.fuse_transform, np.vstack([f.data, y.data]))
        assert np.max(np.abs(z.data - want)) < 1e-10

    @pytest.mark.parametrize("scheme", ["ocr", "da", "acf"])
    def test_permutation_equivariance(self, rng, scheme):
        stage = region_stage(scheme, in_channels=4, num_classes=3)
        data = rng.normal(0, 1, (4, 6))
        perm = rng.permutation(6)
        z1, _ = run_stage(stage, FeatureMap(tensor(data.reshape(4, 2, 3))))
        z2, _ = run_stage(stage, FeatureMap(tensor(data[:, perm].reshape(4, 2, 3))))
        assert np.max(np.abs(z2.data - z1.data[:, perm])) < 1e-10

    def test_full_composition_against_loop_oracle(self, rng):
        stage = region_stage(in_channels=4, num_classes=3)
        x = feature_map(rng, 4, 8, 8)
        z, aux = run_stage(stage, x)

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
        assert np.max(np.abs(z.data - want)) < 1e-10

    def test_da_wide_regions_use_unsupervised_maps(self, rng):
        stage = region_stage("da", in_channels=3, num_classes=2, da_regions=5)
        x = feature_map(rng, 3, 2, 3)
        z, aux = run_stage(stage, x)
        # auxiliary regions still carry one row per class
        assert aux.data.shape == (2, 6)
        assert z.shape == (stage.fuse_transform.weight.shape[0], 6)

    def test_stem_reroutes_pipeline_but_not_region_head(self, rng):
        stage = region_stage(in_channels=3, num_classes=2, use_stem=True)
        x = feature_map(rng, 3, 3, 3)
        _, aux = run_stage(stage, x)
        head_logits = oracles.conv1x1_loops(x.tensor.data.reshape(3, 9),
                                            stage.region_head.weight.data)
        assert np.max(np.abs(aux.data - head_logits)) < 1e-12


def attention_weights(q, k, scale=1.0):
    """The (N, N) weights that self-attention applies to its values, read
    exactly as the context of identity values."""
    return T.attend(q, k, tensor(np.eye(k.shape[1])), scale).data


class TestSelfAttention:
    def test_identical_pixels_uniform(self, rng):
        col = rng.normal(0, 1, 3)
        x = FeatureMap(tensor(np.repeat(col[:, None], 4, axis=1).reshape(3, 2, 2)))
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 4)
        # identical keys: uniform weights, whatever the queries
        phi = TransformBlock.create(rng, 3, 3)
        y = self_attention_context(x, phi, (x.pixels(), delta(x.pixels())), rho, 1.0)
        weights = attention_weights(phi(x.pixels()), x.pixels())
        assert np.max(np.abs(weights - 0.25)) < 1e-12
        want = oracles.apply_block_loops(
            rho, oracles.apply_block_loops(delta, col[:, None]))
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_single_pixel(self, rng):
        # one pixel attends only to itself: its context is rho(delta(x))
        x = feature_map(rng, 3, 1, 1)
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 5)
        y = self_attention_context(x, identity_block(3), (x.pixels(), delta(x.pixels())),
                                   rho, 1.0)
        want = oracles.apply_block_loops(rho, oracles.apply_block_loops(delta, x.pixels().data))
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_matches_double_loop(self, rng):
        x = feature_map(rng, 3, 2, 2)
        phi = TransformBlock.create(rng, 3, 4)
        psi = TransformBlock.create(rng, 3, 4)
        delta = TransformBlock.create(rng, 3, 5)
        rho = TransformBlock.create(rng, 5, 5)
        scale = 0.5
        y = self_attention_context(x, phi, (psi(x.pixels()), delta(x.pixels())), rho,
                                   scale)
        weights = attention_weights(phi(x.pixels()), psi(x.pixels()), scale)
        px = x.pixels().data
        q = oracles.apply_block_loops(phi, px)
        k = oracles.apply_block_loops(psi, px)
        w = oracles.relations_loops(q, k, scale)
        assert np.max(np.abs(weights - w)) < 1e-12
        vals = oracles.apply_block_loops(delta, px)
        want = oracles.apply_block_loops(rho, oracles.aggregate_loops(w, vals.T).T)
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_rows_are_simplex(self, rng):
        x = feature_map(rng, 3, 3, 3)
        weights = attention_weights(x.pixels(), x.pixels())
        assert weights.shape == (9, 9)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(weights >= 0)

    def test_bad_scale(self, rng):
        x = feature_map(rng, 2, 2, 2)
        with pytest.raises(ParameterError):
            self_attention_context(x, identity_block(2), (x.pixels(), x.pixels()),
                                   identity_block(2), 0.0)

    def test_attention_inputs_freed_before_the_output_transform(self, rng):
        # 8 x 8 pixels, 8 key channels, 128 output channels, keys and values
        # formed before the scope: under no_grad the output transform's
        # result meets only the attention context, (8 + 128) * 64 doubles,
        # which tops the attention's own peak (q, the context and its 64 x 64
        # relation); with q still held it would read (2 * 8 + 128) * 64
        x = feature_map(rng, 3, 8, 8)
        phi, psi, delta = [TransformBlock.create(rng, 3, 8) for _ in range(3)]
        rho = TransformBlock.create(rng, 8, 128)
        with T.no_grad():
            memory = (psi(x.pixels()), delta(x.pixels()))
            with T.AllocationTracker() as tracker:
                y = self_attention_context(x, phi, memory, rho, 1.0)
        assert y.shape == (128, 64)
        assert tracker.peak_bytes == (8 + 128) * 64 * 8


class TestGlobalContext:
    def test_spatially_constant(self, rng):
        # one (C, 1) context, which the fuse reads at every pixel
        x = feature_map(rng, 3, 3, 2)
        y = global_context(x, TransformBlock.create(rng, 3, 4),
                           TransformBlock.create(rng, 4, 4))
        assert y.shape == (4, 1)
        fuse = TransformBlock.create(rng, 7, 5)
        spread = tensor(np.repeat(y.data, 6, axis=1))
        got, want = augment(x, y, fuse).data, augment(x, spread, fuse).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_mean_then_output_oracle(self, rng):
        x = feature_map(rng, 3, 3, 3)
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 5)
        y = global_context(x, delta, rho)
        vals = oracles.apply_block_loops(delta, x.pixels().data)
        mean = vals.mean(axis=1, keepdims=True)
        want = oracles.apply_block_loops(rho, mean)
        assert y.shape == (5, 1)
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_equals_self_attention_under_uniform_weights(self, rng):
        # a zero-weight context transform makes every key identical, which
        # turns dense attention into plain mean pooling
        x = feature_map(rng, 3, 2, 3)
        flat_keys = TransformBlock(
            weight=tensor(np.zeros((3, 3))), bn_scale=tensor(np.ones(3)),
            bn_shift=tensor(np.full(3, 0.3)))
        delta = TransformBlock.create(rng, 3, 4)
        rho = TransformBlock.create(rng, 4, 4)
        attn = self_attention_context(x, TransformBlock.create(rng, 3, 3),
                                      (flat_keys(x.pixels()), delta(x.pixels())), rho, 1.0)
        pooled = global_context(x, delta, rho)  # (4, 1), the same at every pixel
        assert np.max(np.abs(attn.data - pooled.data)) < 1e-12


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
        rel = acf_scheme_relations(tensor(np.ones((3, 4))), 0)
        assert np.max(np.abs(rel.weights.data - 1.0 / 3.0)) < 1e-15

    def test_acf_peaked_logits_near_one_hot(self, rng):
        logits = rng.normal(0, 1, (3, 4))
        logits[1] += 50.0
        rel = acf_scheme_relations(tensor(logits), 0)
        assert np.all(rel.weights.data[:, 1] > 1.0 - 1e-9)

    def test_acf_matches_per_pixel_softmax(self, rng):
        logits = rng.normal(0, 2, (3, 6))
        rel = acf_scheme_relations(tensor(logits), 0)
        want = oracles.softmax_rows_loops(logits.T)
        assert np.max(np.abs(rel.weights.data - want)) < 1e-12

    def test_acf_shift_invariance(self, rng):
        logits = rng.normal(0, 1, (3, 4))
        shifted = logits + rng.normal(0, 4, 4)[None, :]  # per-pixel shifts
        rel_a = acf_scheme_relations(tensor(logits), 0)
        rel_b = acf_scheme_relations(tensor(shifted), 0)
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
        out = aspp_lite(x, self._delta_branches(2, (1, 2, 3)), 0, 4)
        assert out.shape == (6, 16)
        for branch in range(3):
            sl = out.data[2 * branch:2 * branch + 2]
            assert np.max(np.abs(sl - x.pixels().data)) < 1e-15

    def test_single_pixel_center_tap_only(self, rng):
        x = rng.normal(0, 1, (2, 1, 1))
        kern = rng.normal(0, 1, (1, 2, 3, 3))
        out = aspp_lite(FeatureMap(tensor(x)), [(2, tensor(kern))], 0, 1)
        want = sum(kern[0, c, 1, 1] * x[c, 0, 0] for c in range(2))
        assert abs(out.data[0, 0] - want) < 1e-12

    def test_matches_direct_summation(self, rng):
        x = rng.normal(0, 1, (2, 4, 4))
        k1 = rng.normal(0, 1, (3, 2, 3, 3))
        k2 = rng.normal(0, 1, (3, 2, 3, 3))
        fm = FeatureMap(tensor(x))
        want = np.concatenate([oracles.conv_spatial_loops(x, k1, 1),
                               oracles.conv_spatial_loops(x, k2, 2)])
        for r0, r1 in ((0, 4), (1, 3)):
            out = aspp_lite(fm, [(1, tensor(k1)), (2, tensor(k2))], r0, r1)
            assert np.max(np.abs(out.data - want[:, r0:r1].reshape(6, -1))) < 1e-12

    def test_branches_concatenated_in_one_copy(self, rng):
        # each branch is copied once, into its slice of the one op's output:
        # no second op stacks them
        x = feature_map(rng, 2, 4, 4, requires_grad=True)
        out = aspp_lite(x, self._delta_branches(2, (1, 2, 3)), 0, 4)
        assert out._opname == "reshape" and np.shares_memory(out.data, out._parents[0].data)
        out = out._parents[0]
        assert out._opname == "conv_spatial" and out._parents[0] is x.tensor
        assert len(out._parents) == 4 and out.data.flags.c_contiguous
        assert not hasattr(T, "concat0") and not hasattr(T, "upsample_nearest")

    def test_spec_validation(self, rng):
        x = feature_map(rng, 1, 4, 4)
        with pytest.raises(ParameterError):
            aspp_lite(x, [(2, tensor(np.ones((1, 1, 2, 2))))], 0, 4)  # even
        with pytest.raises(ParameterError):
            aspp_lite(x, [(0, tensor(np.ones((1, 1, 3, 3))))], 0, 4)  # rate < 1
        with pytest.raises(DimensionError):
            aspp_lite(x, [(1, tensor(np.ones((1, 1, 3))))], 0, 4)  # not 4-D
        with pytest.raises(DimensionError, match="conv_spatial"):
            aspp_lite(x, [], 0, 4)
        with pytest.raises(DimensionError, match="conv_spatial"):
            T.conv_spatial(x.tensor, [])
        for rates in ((0, 6), (-5,), ()):
            with pytest.raises(ConfigError, match="aspp_rates"):
                ModelConfig(module="aspp_lite", aspp_rates=rates)

    def test_channel_mismatch(self, rng):
        with pytest.raises(DimensionError):
            aspp_lite(feature_map(rng, 2, 4, 4), self._delta_branches(3, (1,)), 0, 4)


class TestScaledRates:
    def test_reference_size_unchanged(self):
        assert scaled_rates((1, 6, 12), 64, 64) == (1, 6, 12)

    def test_half_size_halves_and_clips(self):
        # 1 * 0.5 rounds to 0 and is floored at 1
        assert scaled_rates((1, 6, 12), 32, 32) == (1, 3, 6)

    def test_double_size_doubles(self):
        assert scaled_rates((1, 6, 12), 128, 128) == (2, 12, 24)


class TestPpmLite:
    @staticmethod
    def fused_both_ways(rng, parts, height, width):
        """A 3x3 fuse of the pyramid's parts as returned, and of the parts
        with each branch upsampled first."""
        fuse = TransformBlock.create(rng, sum(p.shape[0] for p in parts), 3, 3)
        up = [parts[0], *(tensor(oracles.upsample_nearest_loops(p.data, height, width))
                          for p in parts[1:])]
        return fuse(*parts).data, fuse(*up).data

    def test_global_bin_constant_branch(self, rng):
        x = feature_map(rng, 3, 4, 4)
        proj = Conv1x1Head.create(rng, 3, 2, bias=False)
        parts = ppm_lite(x, (1,), (proj,))
        want = oracles.conv1x1_loops(oracles.avg_pool_loops(x.tensor.data, 1, 1),
                                     proj.weight.data)
        assert parts[1].shape == (2, 1, 1)
        assert np.max(np.abs(parts[1].data - want)) < 1e-12
        got, upsampled = self.fused_both_ways(rng, parts, 4, 4)
        assert np.max(np.abs(got - upsampled)) < 1e-12

    def test_full_bin_identity_projection_recovers_input(self, rng):
        x = feature_map(rng, 3, 4, 4)
        ident = Conv1x1Head(tensor(np.eye(3)))
        out = np.concatenate([p.data for p in ppm_lite(x, (4,), (ident,))])
        assert np.max(np.abs(out[3:] - x.tensor.data)) < 1e-12

    def test_matches_pool_project_upsample_loops(self, rng):
        x = rng.normal(0, 1, (3, 5, 7))
        projs = [Conv1x1Head.create(rng, 3, 2, bias=False) for _ in range(2)]
        parts = ppm_lite(FeatureMap(tensor(x)), (2, 3), projs)
        assert parts[0].data is x
        for part, b, proj in zip(parts[1:], (2, 3), projs):
            want = oracles.conv1x1_loops(oracles.avg_pool_loops(x, b, b), proj.weight.data)
            assert part.shape == (2, b, b)
            assert np.max(np.abs(part.data - want)) < 1e-12
        got, upsampled = self.fused_both_ways(rng, parts, 5, 7)
        assert np.max(np.abs(got - upsampled)) < 1e-12

    def test_fuse_reads_the_parts_without_concat(self, rng, monkeypatch):
        # the fuse takes x and the bin-size branches as they are
        fused = []
        real = T.conv_bn_relu
        monkeypatch.setattr(T, "conv_bn_relu",
                            lambda x, *a: fused.append([p.shape for p in x]) or real(x, *a))
        model = build_model(ModelConfig(module="ppm_lite", in_channels=8, num_classes=3,
                                        key_channels=4, mid_channels=6), image_size=12)
        with T.no_grad():
            out = model.forward(feature_map(rng, 8, 12, 12))
        assert fused == [[(8, 12, 12), *((2, b, b) for b in (1, 2, 3, 6))]]
        assert out.final_logits.shape == (3, 144)

    def test_bin_larger_than_image(self, rng):
        x = feature_map(rng, 3, 4, 4)
        with pytest.raises(ConfigError):
            ppm_lite(x, (5,), (Conv1x1Head.create(rng, 3, 2),))
