"""Model assembly: one trainable segmentation head with a context stage per
scheme, deterministic seeded construction and checkpointable state."""
import ast
import hashlib
import inspect
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import ocrseg
import ocrseg.models as models
import ocrseg.tensor as T
from ocrseg.context import FeatureMap, self_attention_context
from ocrseg.errors import ConfigError, ParameterError
from ocrseg.models import (AsppStage, GlobalStage, ModelConfig, MODULE_CHOICES,
                           PpmStage, RegionStage, RelationalStage, SegmentationModel,
                           SelfAttentionStage, STAGES, build_model,
                           full_scale_config)
from ocrseg.profiler import BenchConfig, bench_input, measure_peak_memory
from ocrseg.supervision import LabelMap, LossConfig, combined_loss

from conftest import feature_map, tensor

PACKAGE_DIR = Path(T.__file__).parent


def small_config(module, **overrides):
    base = dict(module=module, in_channels=5, num_classes=3, key_channels=4,
                mid_channels=6, seed=7)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_unknown_module(self):
        with pytest.raises(ConfigError):
            ModelConfig(module="fft")

    def test_bad_widths(self):
        with pytest.raises(ConfigError):
            ModelConfig(in_channels=0)
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ModelConfig(seed=-1)
        assert ModelConfig(seed=0).seed == 0

    def test_bad_dtype(self):
        with pytest.raises(ConfigError):
            ModelConfig(dtype="half")

    def test_np_dtype(self):
        assert ModelConfig(dtype="double").np_dtype == np.float64
        assert ModelConfig(dtype="single").np_dtype == np.float32

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_unknown_attention_scale_rejected_for_every_scheme(self, module):
        with pytest.raises(ConfigError) as err:
            ModelConfig(module=module, attention_scale="bogus")
        assert "attention_scale" in str(err.value)

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_negative_da_regions_rejected_for_every_scheme(self, module):
        with pytest.raises(ConfigError) as err:
            ModelConfig(module=module, da_regions=-3)
        assert "da_regions" in str(err.value)

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_zero_key_or_mid_width_rejected_for_every_scheme(self, module):
        with pytest.raises(ConfigError):
            ModelConfig(module=module, key_channels=0)
        with pytest.raises(ConfigError):
            ModelConfig(module=module, mid_channels=0)

    def test_self_attention_uses_the_relation_scale(self, rng):
        cfg = small_config("self_attn", attention_scale="rsqrt_key", key_channels=9)
        assert cfg.relation_scale == 1.0 / 3.0
        assert small_config("self_attn", key_channels=9).relation_scale == 1.0
        stage = build_model(cfg).stage
        feats = feature_map(rng, cfg.mid_channels, 3, 3)
        tail, _ = stage.context(None, feats, None)
        got = tail(feats)  # the whole image as one band
        for scale, same in ((1.0 / 3.0, True), (1.0, False)):
            memory = (stage.context_transform(feats.pixels()),
                      stage.value_transform(feats.pixels()))
            want = self_attention_context(feats, stage.pixel_transform, memory,
                                          stage.output_transform, scale)
            assert np.array_equal(got.data, want.data) == same


class TestBuildModel:
    def test_scheme_to_class(self):
        # every scheme is one head class; only the context stage differs
        expected = {"ocr": RegionStage, "da": RegionStage, "acf": RegionStage,
                    "gt_ocr": RegionStage, "self_attn": SelfAttentionStage,
                    "global": GlobalStage, "aspp_lite": AsppStage,
                    "ppm_lite": PpmStage}
        assert STAGES == expected
        assert MODULE_CHOICES == tuple(expected)
        for module, stage in expected.items():
            model = build_model(small_config(module), image_size=8)
            assert type(model) is SegmentationModel
            assert type(model.stage) is stage

    @pytest.mark.parametrize("use_stem", [True, False])
    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_checkpoint_names_are_pinned(self, module, use_stem):
        # checkpoints and the benchmark's reference heads read these names
        def block(prefix):
            return [f"{prefix}.weight", f"{prefix}.bn_scale", f"{prefix}.bn_shift"]

        stem = block("stem") if use_stem else []
        shared = (block("value_transform") + block("output_transform")
                  + block("fuse_transform"))
        final = ["final_head.weight", "final_head.bias"]
        da = ["da_predictor.weight", "da_predictor.bias"]
        expected = {
            "ocr": stem + ["region_head.weight"] + block("pixel_transform")
            + block("region_transform") + shared + final,
            "da": stem + ["region_head.weight"] + shared + da + final,
            "acf": stem + ["region_head.weight"] + shared + final,
            "gt_ocr": stem + shared + final,
            "self_attn": stem + block("pixel_transform")
            + block("context_transform") + shared + final,
            "global": stem + shared + final,
            "aspp_lite": ["branch_0.weight", "branch_1.weight",
                          "branch_2.weight"] + final,
            "ppm_lite": ["branch_0.weight", "branch_1.weight", "branch_2.weight",
                         "branch_3.weight"] + block("fuse") + final,
        }
        model = build_model(small_config(module, use_stem=use_stem), image_size=8)
        assert [name for name, _ in model.named_parameters()] == expected[module]
        if module == "da":
            wide = build_model(small_config("da", use_stem=use_stem, da_regions=7))
            assert [name for name, _ in wide.named_parameters()] == (
                stem + ["region_head.weight"] + shared + da + ["da_maps.weight"]
                + final)

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_parameter_names_unique(self, module):
        model = build_model(small_config(module), image_size=8)
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert len(model.parameters()) == len(names)
        assert all(t.requires_grad for t in model.parameters())

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_same_seed_same_weights(self, module):
        a = build_model(small_config(module), image_size=8)
        b = build_model(small_config(module), image_size=8)
        for (name_a, ta), (name_b, tb) in zip(a.named_parameters(),
                                              b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_different_weights(self):
        a = build_model(small_config("ocr"))
        b = build_model(small_config("ocr", seed=8))
        diffs = [not np.array_equal(ta.data, tb.data)
                 for (_, ta), (_, tb) in zip(a.named_parameters(),
                                             b.named_parameters())]
        assert any(diffs)

    # SHA-1 of each freshly drawn model at ModelConfig's defaults (seed 0):
    # every parameter's name, then its bytes, in name order. A change to a
    # draw's shape, order or values changes the checkpoint format.
    INIT_DIGESTS = {
        ("ocr", True): "ab4a24d4f226bb74d2bfc591fe23934cbd1e59a8",
        ("ocr", False): "218c54e0c1072024aa9f6082a7ff664d374f81b8",
        ("da", True): "eaab0fc84ceee663dae1d88e99effb4badd53d83",
        ("da", False): "c6564c449d53f7d9759396588f526140d2f3d30d",
        ("acf", True): "1e461a3f653115e5092d90476e2e14d2e516be83",
        ("acf", False): "6932854cfac6ae16c865b5837de342f43c1cf9fc",
        ("gt_ocr", True): "7fe3ea1e4d75a25d2ad01c4b74b900a5bea075a0",
        ("gt_ocr", False): "7ab05a914de53861724f35dbd0d44f8805bdf1e4",
        ("self_attn", True): "36cf039124c3ec5f3c8aafaa9c7ef5d395805b63",
        ("self_attn", False): "f180d0e521390da4a021667ecda13d034dfe580e",
        ("global", True): "2058f3fa546ded1d92f06435369fe5b30f232a1f",
        ("global", False): "57a7edfbc52016b4db0e46f89401821126cc480d",
        # the raw-map heads draw no stem
        ("aspp_lite", True): "cc5d5e72d8da21e1b517a0f46f2bc4eaabae92a9",
        ("aspp_lite", False): "cc5d5e72d8da21e1b517a0f46f2bc4eaabae92a9",
        ("ppm_lite", True): "0dfa2b79911c56ff7cac401d09747c78a108ea05",
        ("ppm_lite", False): "0dfa2b79911c56ff7cac401d09747c78a108ea05",
    }

    @pytest.mark.parametrize("use_stem", [True, False])
    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_initial_draws_are_pinned(self, module, use_stem):
        model = build_model(ModelConfig(module=module, use_stem=use_stem))
        digest = hashlib.sha1()
        for name, t in sorted(model.named_parameters()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(t.data).tobytes())
        assert digest.hexdigest() == self.INIT_DIGESTS[module, use_stem]


class TestForward:
    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_output_shapes(self, rng, module):
        model = build_model(small_config(module), image_size=8)
        x = feature_map(rng, 5, 8, 8)
        labels = LabelMap(rng.integers(0, 3, (8, 8)), 3) \
            if model.cfg.module == "gt_ocr" else None
        out = model.forward(x, labels)
        assert out.final_logits.data.shape == (3, 64)

    def test_aux_logits_presence(self, rng):
        x = feature_map(rng, 5, 8, 8)
        for module in ("ocr", "da", "acf"):
            out = build_model(small_config(module)).forward(x)
            assert out.aux_logits is not None
            assert out.aux_logits.data.shape == (3, 64)
        for module in ("self_attn", "global", "aspp_lite", "ppm_lite"):
            out = build_model(small_config(module), image_size=8).forward(x)
            assert out.aux_logits is None

    @pytest.mark.parametrize("module", ["ocr", "da"])
    def test_single_precision_region_schemes_run(self, rng, module):
        # float32 softmax rows are checked at the single-precision tolerance
        model = build_model(ModelConfig(module=module, in_channels=5, num_classes=4,
                                        key_channels=4, mid_channels=6,
                                        da_regions=7, dtype="single"))
        x = FeatureMap(T.Tensor(rng.normal(0, 1, (5, 64, 64)).astype(np.float32)))
        out = model.forward(x)
        assert out.final_logits.data.dtype == np.float32
        assert np.all(np.isfinite(out.final_logits.data))

    def test_single_precision_oracle_scheme_stays_single(self, rng):
        model = build_model(ModelConfig(module="gt_ocr", in_channels=5, num_classes=4,
                                        key_channels=4, mid_channels=6, dtype="single"))
        x = FeatureMap(T.Tensor(rng.normal(0, 1, (5, 16, 16)).astype(np.float32)))
        labels = LabelMap(rng.integers(0, 4, (16, 16)), 4)
        out = model.forward(x, labels)
        assert out.final_logits.data.dtype == np.float32

    @pytest.mark.parametrize(
        "module", [m for m in MODULE_CHOICES if issubclass(STAGES[m], RelationalStage)])
    def test_relational_fuse_builds_no_concatenation(self, rng, monkeypatch, module):
        # the fuse, the stage's last block, reads the stemmed features and the
        # context as two column parts; global's context is one column
        fused = []
        real = T.conv_bn_relu
        monkeypatch.setattr(T, "conv_bn_relu",
                            lambda x, *a: fused.append([p.shape for p in x]) or real(x, *a))
        model = build_model(small_config(module, use_stem=True), image_size=8)
        x = feature_map(rng, 5, 8, 8)
        labels = LabelMap(rng.integers(0, 3, (8, 8)), 3) if model.cfg.module == "gt_ocr" else None
        out = model.forward(x, labels)
        assert out.final_logits.data.shape == (3, 64)
        assert fused[-1] == [(6, 64), (6, 1 if module == "global" else 64)]

    def test_gt_scheme_requires_labels(self, rng):
        model = build_model(small_config("gt_ocr"))
        x = feature_map(rng, 5, 8, 8)
        with pytest.raises(ConfigError):
            model.forward(x)
        labels = LabelMap(rng.integers(0, 3, (8, 8)), 3)
        out = model.forward(x, labels)
        assert out.aux_logits is None

    def test_gt_scheme_freezes_region_machinery(self):
        learned = build_model(small_config("ocr"))
        oracle = build_model(small_config("gt_ocr"))
        learned_names = {name for name, _ in learned.named_parameters()}
        oracle_names = {name for name, _ in oracle.named_parameters()}
        frozen = {n for n in learned_names - oracle_names}
        assert frozen
        assert all(n.startswith(("region_head", "pixel_transform",
                                 "region_transform")) for n in frozen)


RELATIONAL = tuple(m for m in MODULE_CHOICES if issubclass(STAGES[m], RelationalStage))


def banded_forward(monkeypatch, model, x, labels=None, rows=None):
    """No-grad forward with a band budget of ``rows`` image rows of the
    model's widest per-band output buffer (None: the whole image), so bands
    of the smallest power of two rows >= ``rows``. Returns the output and the
    bands the final head read, as (first row, height) pairs sorted by first
    row: bands may run on two threads, so they reach the spies in any order.
    Every tensor the final head reads is one band's fuse itself."""
    cfg = model.cfg
    widest = max(cfg.key_channels, model.stage.out_channels, cfg.num_classes,
                 cfg.da_regions)
    row_bytes = np.dtype(cfg.np_dtype).itemsize * widest * x.width
    share = models._BAND_WORKERS // model.stage.band_workers  # the rule's budget, in _BAND_BYTES
    monkeypatch.setattr(models, "_BAND_BYTES", (rows or x.height) * row_bytes // share)
    prepare, head, fused, read = model.stage.prepare, model.final_head, {}, []

    def recording(x, labels):
        fuse, aux = prepare(x, labels)

        def spy(r0, r1):
            y = fuse(r0, r1)
            fused[id(y)] = (r0, r1 - r0, y)
            return y

        return spy, aux

    model.stage.prepare = recording
    model.final_head = lambda px: read.append(px) or head(px)
    try:
        with T.no_grad():
            out = model.forward(x, labels)
    finally:
        model.final_head, model.stage.prepare = head, prepare
    assert all(fused[id(px)][2] is px for px in read)
    return out, sorted(fused[id(px)][:2] for px in read)


def split(height, rows):
    """The (first row, height) bands of ``rows`` rows over ``height`` rows."""
    return [(r0, min(rows, height - r0)) for r0 in range(0, height, rows)]


def band_inputs(rng, module, height, width, dtype=np.float64):
    """Features and labels (a few ignored pixels) for a small_config head."""
    x = FeatureMap(T.Tensor(rng.normal(0, 1, (5, height, width)).astype(dtype)))
    raw = rng.integers(0, 3, (height, width))
    raw[rng.random((height, width)) < 0.1] = 255
    return x, LabelMap(raw, 3) if module == "gt_ocr" else None


class TestBandTail:
    """Under no_grad a stage's fuse (a relational stage's tail, the kxk
    heads' convolutions) and the final head run one band of image rows at a
    time; the logits are bitwise those of one band."""

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got.final_logits.data, want.final_logits.data)
        assert got.final_logits.data.dtype == want.final_logits.data.dtype
        if want.aux_logits is None:
            assert got.aux_logits is None
        else:
            assert np.array_equal(got.aux_logits.data, want.aux_logits.data)

    @staticmethod
    def assert_within_four_ulps(got, want):
        """Banded logits within 4 ulps of one band's largest |logit|; the
        auxiliary logits are the whole-image part's and keep their bits."""
        ulp = np.spacing(np.abs(want.final_logits.data).max())
        assert np.abs(got.final_logits.data - want.final_logits.data).max() <= 4 * ulp
        if want.aux_logits is not None:
            assert np.array_equal(got.aux_logits.data, want.aux_logits.data)

    @pytest.mark.parametrize("module,use_stem", [
        (m, s) for m in MODULE_CHOICES for s in (False, True) if m in RELATIONAL or not s])
    def test_ragged_last_band(self, rng, monkeypatch, module, use_stem):
        model = build_model(small_config(module, use_stem=use_stem,
                                         da_regions=5 if module == "da" else 0),
                            image_size=37)
        x, labels = band_inputs(rng, module, 37, 53)
        if module == "self_attn":  # one-row attend blocks: band borders are block borders
            monkeypatch.setattr(T, "_ACCUMULATE_BYTES", 8 * x.num_pixels * x.width)
        whole, one = banded_forward(monkeypatch, model, x, labels)
        banded, bands = banded_forward(monkeypatch, model, x, labels, rows=5)
        assert one == [(0, 37)] and bands == split(37, 8)  # a 5-row budget on 37 rows
        self.assert_same(banded, whole)

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_one_row_bands(self, rng, monkeypatch, module):
        model = build_model(small_config(module), image_size=9)
        x, labels = band_inputs(rng, module, 9, 11)
        whole, _ = banded_forward(monkeypatch, model, x, labels)
        banded, bands = banded_forward(monkeypatch, model, x, labels, rows=1)
        assert bands == split(9, 1)
        self.assert_same(banded, whole)

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_single_precision(self, rng, monkeypatch, module):
        model = build_model(small_config(module, dtype="single"), image_size=16)
        x, labels = band_inputs(rng, module, 16, 13, np.float32)
        whole, _ = banded_forward(monkeypatch, model, x, labels)
        banded, bands = banded_forward(monkeypatch, model, x, labels, rows=3)
        assert bands == split(16, 4)
        assert banded.final_logits.data.dtype == np.float32
        self.assert_same(banded, whole)

    @staticmethod
    def assert_bands_of_the_fuse(model, x, rows):
        """Each band of ``rows`` image rows of the stage's fuse is bitwise its
        columns of the whole image's."""
        with T.no_grad():
            fuse, _ = model.stage.prepare(x, None)
            whole = fuse(0, x.height).data
            for r0 in range(0, x.height, rows):
                r1 = min(r0 + rows, x.height)
                band = fuse(r0, r1).data
                assert np.array_equal(band, whole[:, r0 * x.width:r1 * x.width])

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_dilations_taller_than_the_band(self, rng, monkeypatch, rows):
        # at 64 pixels the rates stay as set: 9 is the image's height and 30
        # is past its width, so every band is thinner than the rates, and
        # its taps read their k groups of rows, not the rows between them;
        # 4 x 3 channels meet the final head (16 may round a band's product
        # apart, see test_wide_band_products_within_four_ulps)
        model = build_model(small_config("aspp_lite", aspp_rates=(1, 4, 9, 30),
                                         key_channels=3), image_size=64)
        x, _ = band_inputs(rng, "aspp_lite", 9, 11)
        whole, _ = banded_forward(monkeypatch, model, x)
        banded, bands = banded_forward(monkeypatch, model, x, rows=rows)
        assert bands == split(9, {3: 4}.get(rows, rows))
        self.assert_same(banded, whole)
        self.assert_bands_of_the_fuse(model, x, rows)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_pyramid_runs_across_band_borders(self, rng, rows):
        # on 9 rows bin 2 repeats its rows over 0:5 and 5:9 and bin 4 over
        # 0:3, 3:5, 5:7 and 7:9, so bands of 2, 3 and 4 rows cut runs
        model = build_model(small_config("ppm_lite", ppm_bins=(2, 4, 5)), image_size=9)
        x, _ = band_inputs(rng, "ppm_lite", 9, 11)
        self.assert_bands_of_the_fuse(model, x, rows)

    @pytest.mark.parametrize("module", ["ocr", "self_attn", "aspp_lite", "ppm_lite"])
    @pytest.mark.parametrize("rows,height", [(1, 1), (2, 2), (3, 4), (5, 8), (9, 16),
                                             (17, 32), (33, 64), (100, 64)])
    def test_bands_are_powers_of_two(self, rng, monkeypatch, module, rows, height):
        # the smallest power of two rows whose widest band buffer reaches the
        # budget, at most the image's 64 rows, whatever the kxk rates
        model = build_model(small_config(module, ppm_bins=(1, 2, 3)), image_size=64)
        x, _ = band_inputs(rng, module, 64, 3)
        assert banded_forward(monkeypatch, model, x, rows=rows)[1] == split(64, height)

    @pytest.mark.parametrize("use_stem", [False, True])
    @pytest.mark.parametrize("block_rows,rows,heights", [(1, 1, [1] * 37),
                                                         (2, 1, [1] * 37),
                                                         (1, 5, [8] * 4 + [5]),
                                                         (2, 5, [8] * 4 + [5])])
    def test_attention_bands_keep_the_bits_on_ragged_rows(self, rng, monkeypatch, use_stem,
                                                         block_rows, rows, heights):
        # at 37 x 53 with attend's row blocks of 53 or 106 pixels over the
        # whole image, 8-row bands start at block borders (the last band's
        # ragged block included) and 1-row bands at or halfway into a block:
        # a band's rows of the relation keep their bits either way
        model = build_model(small_config("self_attn", use_stem=use_stem), image_size=37)
        x, _ = band_inputs(rng, "self_attn", 37, 53)
        monkeypatch.setattr(T, "_ACCUMULATE_BYTES", 8 * x.num_pixels * x.width * block_rows)
        whole, _ = banded_forward(monkeypatch, model, x)
        banded, bands = banded_forward(monkeypatch, model, x, rows=rows)
        assert bands == split(37, heights[0]) and [h for _, h in bands] == heights
        self.assert_same(banded, whole)

    @pytest.mark.parametrize("use_stem", [False, True])
    @pytest.mark.parametrize("rows,heights", [(1, [1] * 37), (5, [8] * 4 + [5])])
    def test_ragged_attention_bands_within_four_ulps(self, rng, monkeypatch, use_stem, rows,
                                                     heights):
        # at 37 x 53 attend's row blocks over the whole image are 267 pixels,
        # so bands start inside them, the last band's ragged block included
        model = build_model(small_config("self_attn", use_stem=use_stem), image_size=37)
        x, _ = band_inputs(rng, "self_attn", 37, 53)
        whole, _ = banded_forward(monkeypatch, model, x)
        banded, bands = banded_forward(monkeypatch, model, x, rows=rows)
        assert bands == split(37, heights[0]) and [h for _, h in bands] == heights
        self.assert_within_four_ulps(banded, whole)

    # aspp_lite's rates as set at 64 pixels: 30 is taller than every band
    WIDE = {"da": dict(da_regions=5), "aspp_lite": dict(aspp_rates=(1, 4, 9, 30))}

    @pytest.mark.parametrize("module", ["ocr", "da", "acf", "global", "self_attn",
                                        "aspp_lite", "ppm_lite"])
    @pytest.mark.parametrize("channels", [16, 32])
    def test_wide_band_products_within_four_ulps(self, rng, monkeypatch, module, channels):
        """With 16 or more channels read into a band's products, OpenBLAS may
        sum a band's narrower product in another order than the whole
        image's, so banded logits equal one band's only up to rounding: at
        37 x 53 each is within 4 ulps of one band's largest |logit| (2 ulps
        measured at most on these inputs, 3 on other draws for aspp_lite,
        whose taps read row groups of bands thinner than its rates; self_attn's
        bands also split the row blocks of its attention)."""
        model = build_model(small_config(module, key_channels=channels,
                                         mid_channels=channels, **self.WIDE.get(module, {})),
                            image_size=64 if module == "aspp_lite" else 37)
        x, _ = band_inputs(rng, module, 37, 53)
        whole, _ = banded_forward(monkeypatch, model, x)
        for rows in (1, 2, 4, 8, 16):
            banded, bands = banded_forward(monkeypatch, model, x, rows=rows)
            assert bands[0] == (0, rows)
            self.assert_within_four_ulps(banded, whole)

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_bench_shape_bands_keep_the_bits(self, monkeypatch, precision):
        # every head at the bench widths, 64 x 64: its bands (8 rows in
        # double, 16 in single; twice that for the kxk heads, which run one
        # band at a time) give the logits of one band, bitwise
        cfg = BenchConfig(precision=precision)
        x = bench_input(cfg)
        for module in ("ocr", "da", "acf", "self_attn", "global", "aspp_lite", "ppm_lite"):
            model = build_model(cfg.model_config(module), image_size=cfg.height)
            with T.no_grad():
                banded, step = model.forward(x), model._band_height(x)
            with monkeypatch.context() as m:
                whole, one = banded_forward(m, model, x)
            rows = {"double": 8, "single": 16}[precision]
            assert step == rows * (2 if module in ("aspp_lite", "ppm_lite") else 1)
            assert one == [(0, 64)]
            self.assert_same(banded, whole)

    def test_attention_bands_follow_the_one_rule(self):
        # self_attn at the bench widths on 48 x 97 runs 8-row bands, as
        # every head does, and tracks 11,236,480 B with two bands in flight
        # (8,355,968 B one at a time); 48-row bands (the whole image) would
        # track 14,303,232 B
        cfg = BenchConfig(height=48, width=97)
        model = build_model(cfg.model_config("self_attn"), image_size=cfg.height)
        x = bench_input(cfg)
        with T.no_grad():
            assert model._band_height(x) == 8
        assert measure_peak_memory(model, x) <= 11_600_000

    def test_oracle_relations_across_a_band_border(self, rng, monkeypatch):
        model = build_model(small_config("gt_ocr"), image_size=8)
        x, _ = band_inputs(rng, "ocr", 8, 7)
        raw = rng.integers(0, 3, (8, 7))
        raw[3, 1:4] = raw[4, 2:6] = 255  # both sides of the border below row 3
        labels = LabelMap(raw, 3)
        whole, _ = banded_forward(monkeypatch, model, x, labels)
        banded, bands = banded_forward(monkeypatch, model, x, labels, rows=4)
        assert bands == split(8, 4)
        self.assert_same(banded, whole)

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_each_band_fuse_is_what_the_final_head_reads(self, rng, monkeypatch, module):
        # every band's fuse(r0, r1) is the (C, (r1 - r0) * W) tensor that the
        # final head reads, itself: no view or copy between them
        model = build_model(small_config(module), image_size=9)
        x, labels = band_inputs(rng, module, 9, 11)
        prepare, head, fused, read = model.stage.prepare, model.final_head, [], []

        def recording(x, labels):
            fuse, aux = prepare(x, labels)

            def spy(r0, r1):  # bands may run on two threads: keep each its own y
                y = fuse(r0, r1)
                fused.append((r0, r1, y))
                return y

            return spy, aux

        monkeypatch.setattr(model.stage, "prepare", recording)
        monkeypatch.setattr(model, "final_head", lambda px: read.append(px) or head(px))
        assert banded_forward(monkeypatch, model, x, labels, rows=4)[1] == split(9, 4)
        fused.sort(key=lambda band: band[0])
        assert [(r0, r1) for r0, r1, _ in fused] == [(0, 4), (4, 8), (8, 9)]
        assert len(read) == len(fused)
        for r0, r1, y in fused:
            assert any(px is y for px in read)
            assert y.shape == (model.stage.out_channels, (r1 - r0) * x.width)

    def test_zero_width_map_is_one_band(self):
        model = build_model(small_config("self_attn"), image_size=8)
        with T.no_grad():
            out = model.forward(FeatureMap(T.Tensor(np.zeros((5, 3, 0)))))
        assert out.final_logits.shape == (3, 0)

    # tensor ops of one recorded forward at 12x12 with a stem; the tail
    # hands (C, N) pixels to the fuse and the fuse to the final head, with no
    # reshape between them (global reshapes its pooled context to one
    # column, the kxk heads their output once); self_attn forms its keys and
    # values from one pixel view of the whole image and its queries from the
    # band's, a second reshape view that allocates nothing; ocr's relation
    # is three ops, a transpose view, the product and the scaled softmax
    RECORDED_OPS = {"ocr": 22, "da": 20, "acf": 18, "gt_ocr": 13, "self_attn": 12,
                    "global": 8, "aspp_lite": 3, "ppm_lite": 9}

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_recording_forward_runs_one_band(self, rng, monkeypatch, module):
        cfg = ModelConfig(module=module, in_channels=8, num_classes=4, key_channels=4,
                          mid_channels=6, use_stem=True, seed=3, ppm_bins=(1, 2, 3))
        model = build_model(cfg, image_size=12)
        x = feature_map(rng, 8, 12, 12)
        labels = LabelMap(rng.integers(0, 4, (12, 12)), 4)
        monkeypatch.setattr(models, "_BAND_BYTES", 1)  # one-row bands under no_grad
        ops = []
        real = T._result
        monkeypatch.setattr(T, "_result", lambda *a: ops.append(a[-1]) or real(*a))
        out = model.forward(x, labels)
        assert len(ops) == self.RECORDED_OPS[module]
        # the final head's own result, which the backward replays
        assert ops[-1] == "conv1x1" and out.final_logits.requires_grad

    def test_nan_in_a_later_band_names_the_image_pixel(self, rng, monkeypatch):
        model = build_model(small_config("ocr"), image_size=8)
        x = feature_map(rng, 5, 8, 6)
        real = models.pixel_region_relations

        def poisoned(band, *args, **kwargs):
            if band.top == 4:  # the second band: a NaN at its pixel (1, 3)
                data = band.tensor.data.copy()
                data[:, 1, 3] = np.nan
                band = FeatureMap(T.Tensor(data), band.top)
            return real(band, *args, **kwargs)

        monkeypatch.setattr(models, "pixel_region_relations", poisoned)
        # the pixel is row 5 * 6 + 3 of the image's relations, row 9 of the band's
        with pytest.raises(ParameterError, match=r"RelationMatrix.weights row 33 sums"):
            banded_forward(monkeypatch, model, x, rows=4)


class TestBandWorkers:
    """Under no_grad a relational head's bands run on up to two threads and a
    kxk head's on one (``models._run_bands``); each band runs the ops it runs
    alone, so the logits are bitwise those of one worker."""

    BENCH_HEADS = ("ocr", "da", "acf", "self_attn", "global", "aspp_lite", "ppm_lite")

    @staticmethod
    def forward_on(monkeypatch, model, x, cpus):
        """A no-grad forward on a host with ``cpus`` usable CPUs. Returns the
        output, the band heights the final head read, sorted, and the threads
        it ran on."""
        head, heights, threads = model.final_head, [], set()

        def spy(px):
            heights.append(px.shape[1] // x.width)
            threads.add(threading.get_ident())
            return head(px)

        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            m.setattr(model, "final_head", spy)
            with T.no_grad():
                out = model.forward(x)
        return out, sorted(heights), threads

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_two_workers_give_the_bits_of_one(self, monkeypatch, size, precision):
        cfg = BenchConfig(height=size, width=size, precision=precision)
        x = bench_input(cfg)
        for module in self.BENCH_HEADS:
            model = build_model(cfg.model_config(module), image_size=size)
            two, heights, threads = self.forward_on(monkeypatch, model, x, cpus=2)
            one, one_heights, one_thread = self.forward_on(monkeypatch, model, x, cpus=1)
            assert len(threads) == model.stage.band_workers  # never more than two
            assert one_thread == {threading.get_ident()} and one_heights == heights
            TestBandTail.assert_same(two, one)

    def test_bands_interleaved_at_every_switch_keep_the_bits(self, rng, monkeypatch):
        # 32 one-row bands whose threads switch as often as the interpreter
        # lets them: a band written into another's columns, or lost, would
        # change the logits
        model = build_model(small_config("ocr"), image_size=32)
        x = feature_map(rng, 5, 32, 7)
        monkeypatch.setattr(models, "_BAND_BYTES", 1)
        one, heights, _ = self.forward_on(monkeypatch, model, x, cpus=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                two, two_heights, threads = self.forward_on(monkeypatch, model, x, cpus=2)
                assert len(threads) == 2 and two_heights == heights == [1] * 32
                TestBandTail.assert_same(two, one)
        finally:
            sys.setswitchinterval(interval)

    def test_one_usable_cpu_runs_one_worker_at_the_same_heights(self, monkeypatch):
        cfg = BenchConfig()
        x = bench_input(cfg)
        model = build_model(cfg.model_config("ocr"), image_size=cfg.height)
        two, heights, threads = self.forward_on(monkeypatch, model, x, cpus=2)
        assert heights == [8] * 8 and len(threads) == 2
        one, one_heights, one_thread = self.forward_on(monkeypatch, model, x, cpus=1)
        assert one_heights == heights and one_thread == {threading.get_ident()}
        TestBandTail.assert_same(one, two)
        # without an affinity mask the CPU count is the host's
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert models._usable_cpus() == 1

    def test_earliest_failing_band_is_raised_and_no_thread_outlives_forward(
            self, rng, monkeypatch):
        # four 4-row bands on two workers: worker 0 runs those at rows 0 and
        # 8, worker 1 those at rows 4 and 12; a band that fails later in time
        # but earlier in the image is the one raised
        model = build_model(small_config("ocr"), image_size=16)
        x = feature_map(rng, 5, 16, 6)
        real, delays = models.pixel_region_relations, {}

        def failing(band, *args, **kwargs):
            if band.top in delays:
                time.sleep(delays[band.top])
                raise ValueError(f"band at row {band.top}")
            return real(band, *args, **kwargs)

        monkeypatch.setattr(models, "pixel_region_relations", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        before = threading.active_count()
        for failures, first in [({4: 0.05, 8: 0.0}, 4), ({8: 0.05, 12: 0.0}, 8),
                                ({12: 0.0}, 12)]:
            delays.clear()
            delays.update(failures)
            with pytest.raises(ValueError, match=f"band at row {first}$"):
                banded_forward(monkeypatch, model, x, rows=4)
            assert threading.active_count() == before

    @pytest.mark.parametrize("module", BENCH_HEADS)
    def test_tracked_peak_is_repeatable_and_covers_one_worker(self, monkeypatch, module):
        cfg = BenchConfig()
        x = bench_input(cfg)
        model = build_model(cfg.model_config(module), image_size=cfg.height)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        peaks = [measure_peak_memory(model, x) for _ in range(3)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = measure_peak_memory(model, x)
        assert peaks[0] == peaks[1] == peaks[2] >= one


class TestDaScheme:
    def test_class_count_regions_skip_extra_maps(self):
        model = build_model(small_config("da", da_regions=0))
        assert model.params.da_predictor is not None
        assert model.params.da_maps is None

    def test_wide_regions_add_unsupervised_maps(self, rng):
        model = build_model(small_config("da", da_regions=7))
        assert model.params.da_maps is not None
        names = {name for name, _ in model.named_parameters()}
        assert "da_predictor.weight" in names
        assert "da_maps.weight" in names
        out = model.forward(feature_map(rng, 5, 4, 4))
        assert out.final_logits.data.shape == (3, 16)
        assert out.aux_logits.data.shape == (3, 16)


class TestLoadState:
    def test_round_trip(self, rng):
        source = build_model(small_config("ocr"))
        x = feature_map(rng, 5, 4, 4)
        want = source.forward(x).final_logits.data.copy()
        state = {name: t.data.copy() for name, t in source.named_parameters()}

        target = build_model(small_config("ocr", seed=99))
        assert not np.allclose(target.forward(x).final_logits.data, want)
        target.load_state(state)
        assert np.array_equal(target.forward(x).final_logits.data, want)

    def test_missing_and_extra_keys(self):
        model = build_model(small_config("ocr"))
        state = {name: t.data.copy() for name, t in model.named_parameters()}
        short = dict(state)
        short.pop("final_head.weight")
        with pytest.raises(ConfigError) as err:
            model.load_state(short)
        assert "final_head.weight" in str(err.value)
        extra = dict(state)
        extra["phantom.weight"] = np.zeros(3)
        with pytest.raises(ConfigError) as err:
            model.load_state(extra)
        assert "phantom.weight" in str(err.value)

    def test_shape_mismatch(self):
        model = build_model(small_config("ocr"))
        state = {name: t.data.copy() for name, t in model.named_parameters()}
        state["final_head.bias"] = np.zeros(5)
        with pytest.raises(ConfigError):
            model.load_state(state)

    def test_dtype_mismatch(self):
        model = build_model(small_config("ocr", dtype="single"))
        state = {name: np.zeros_like(t.data) for name, t in model.named_parameters()}
        state["final_head.bias"] = state["final_head.bias"].astype(np.float64)
        before = [t.data.copy() for t in model.parameters()]
        with pytest.raises(ConfigError) as err:
            model.load_state(state)
        assert "final_head.bias" in str(err.value)
        assert "float64" in str(err.value)
        # nothing is loaded from a checkpoint that fails the check
        assert all(np.array_equal(t.data, b)
                   for t, b in zip(model.parameters(), before))


class TestFlopBreakdown:
    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_breakdown_sums_and_positivity(self, module):
        model = build_model(small_config(module), image_size=8)
        breakdown = model.flop_breakdown(8, 8)
        assert breakdown
        assert all(isinstance(v, int) and v > 0 for v in breakdown.values())
        assert model.analytic_flops(8, 8) == sum(breakdown.values())

    @pytest.mark.parametrize("module,settings,billed", [
        ("ocr", {}, True), ("acf", {}, True), ("da", {}, True),
        ("da", {"da_regions": 7}, False), ("gt_ocr", {}, False)])
    def test_region_softmax_billed_where_it_runs(self, module, settings, billed):
        # da with its own maps pools those and never forms the classifier's
        # softmax; gt_ocr runs no classifier
        model = build_model(small_config(module, **settings), image_size=8)
        assert ("region_softmax" in model.flop_breakdown(8, 8)) == billed

    def test_stem_toggle(self):
        with_stem = build_model(small_config("ocr", use_stem=True))
        without = build_model(small_config("ocr", use_stem=False))
        assert "stem" in with_stem.flop_breakdown(8, 8)
        assert "stem" not in without.flop_breakdown(8, 8)

    def test_aspp_rates_clip_at_small_images(self):
        clipped = build_model(small_config("aspp_lite"), image_size=8)
        # 0.125, 0.75, 1.5 rounded, floored at 1
        assert [rate for rate, _ in clipped.stage.branches] == [1, 1, 2]
        full = build_model(small_config("aspp_lite"), image_size=64)
        assert [rate for rate, _ in full.stage.branches] == [1, 6, 12]

    def test_ppm_branch_width_floor(self):
        narrow = build_model(small_config("ppm_lite", in_channels=3))
        assert narrow.stage.branch_channels == 1
        wide = build_model(small_config("ppm_lite", in_channels=16))
        assert wide.stage.branch_channels == 4


class TestFullScaleConfig:
    def test_published_widths(self):
        cfg = full_scale_config("ocr")
        assert cfg.in_channels == 2048
        assert cfg.key_channels == 256
        assert cfg.mid_channels == 512
        assert cfg.num_classes == 19
        assert cfg.use_stem
        assert cfg.da_regions == 0

    def test_da_region_count(self):
        assert full_scale_config("da").da_regions == 64
        assert full_scale_config("self_attn").da_regions == 0


class TestEngineSurface:
    """The engine keeps only ops some scheme's training step runs, a
    backward leaves gradients on leaves only, every package module reads
    each name it imports, and every error class is raised somewhere."""

    # public op functions whose recorded name differs from the function name
    OP_NAMES = {"cross_entropy_logits": "cross_entropy"}

    @staticmethod
    def training_step(module, input_grad=True):
        """One tiny forward, combined loss and backward; by default the input
        features require grad, so ops applied to them directly are recorded
        too. Returns the model, the input and the replayed op results."""
        rng = np.random.default_rng(3)
        model = build_model(small_config(module, aspp_rates=(1, 2), ppm_bins=(1, 2)),
                            image_size=4)
        x = feature_map(rng, 5, 4, 4, requires_grad=input_grad)
        labels = LabelMap(rng.integers(0, 3, size=(4, 4)), 3)
        out = model.forward(x, labels)
        loss = combined_loss(out.final_logits, out.aux_logits, labels, LossConfig())
        return model, x, T.backward(loss)

    def test_every_public_op_is_recorded_by_some_scheme(self):
        ops = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__
               and not name.startswith("_")
               and inspect.signature(fn).return_annotation in ("Tensor", T.Tensor)}
        recorded = set()
        for module in MODULE_CHOICES:
            recorded |= {node._opname for node in self.training_step(module)[2]}
        assert "conv_bn_relu" in ops and "backward" not in ops
        missing = sorted(op for op in ops if self.OP_NAMES.get(op, op) not in recorded)
        assert not missing, f"tensor ops no scheme's training step runs: {missing}"

    @pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
    def test_every_imported_name_is_read(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # ``import a.b`` binds ``a``
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread = sorted(f"{name} (line {line})" for name, line in imported.items()
                        if name not in read)
        assert not unread, f"{path.name} imports names it never reads: {unread}"

    def test_every_top_level_definition_is_read(self):
        """A module-level function, class or constant that nothing in the
        package reads (as a name, an attribute or an import), apart from its
        own definition, is dead."""
        defined, reads = {}, []  # name -> (where, its statement); (statement, names read)
        for path in sorted(PACKAGE_DIR.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                where = f"{path.name}:{node.lineno}"
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = (where, node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                defined[name.id] = (where, node)
                read = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        read.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        read.add(sub.attr)
                    elif isinstance(sub, ast.alias):
                        read.add(sub.name)
                reads.append((node, read))
        dead = sorted(f"{name} ({where})" for name, (where, own) in defined.items()
                      if not any(name in read for node, read in reads if node is not own)
                      and not (name.startswith("__") and name.endswith("__")))
        assert not dead, f"definitions nothing in the package reads: {dead}"

    def test_every_member_is_read(self):
        """A method, property or ``self.`` attribute of a package class that
        nothing in the package reads as an attribute is dead; dunder methods
        are exempt, as the language calls them."""
        defined, read = {}, set()
        for path in sorted(PACKAGE_DIR.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in ast.walk(cls):
                    if isinstance(node, ast.FunctionDef) and node in cls.body:
                        name = node.name
                    elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name) and node.value.id == "self"):
                        name = node.attr
                    else:
                        continue
                    if not (name.startswith("__") and name.endswith("__")):
                        defined.setdefault(f"{cls.name}.{name}", (name, path.name, node.lineno))
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        dead = sorted(f"{member} ({path}:{line})"
                      for member, (name, path, line) in defined.items() if name not in read)
        assert not dead, f"members nothing in the package reads: {dead}"

    def test_every_public_tensor_function_is_called_by_the_package(self):
        """An engine function that only the tests call is kept for them alone."""
        tree = ast.parse((PACKAGE_DIR / "tensor.py").read_text(encoding="utf-8"))
        public = {node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        called = set()
        for path in PACKAGE_DIR.glob("*.py"):
            if path.name == "tensor.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # ``from . import tensor as T`` binds T; ``from .tensor import f`` binds f
            aliases, direct = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        if node.module is None and alias.name == "tensor":
                            aliases.add(alias.asname or alias.name)
                        elif node.module == "tensor":
                            direct.add(alias.name)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                        and fn.value.id in aliases):
                    called.add(fn.attr)
                elif isinstance(fn, ast.Name) and fn.id in direct:
                    called.add(fn.id)
        assert {"backward", "cross_entropy_logits", "conv_bn_relu"} <= public
        uncalled = sorted(public - called)
        assert not uncalled, f"tensor functions no other package module calls: {uncalled}"

    def test_every_module_is_reachable_through_the_package(self):
        stems = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
        assert sorted(ocrseg._SUBMODULES) == stems
        assert ocrseg.checks.run_gradient_suite

    def test_every_error_class_is_raised(self):
        classes = [node for node in ast.parse(
            (PACKAGE_DIR / "errors.py").read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)]
        bases = {base.id for cls in classes for base in cls.bases}
        raised = set()
        for path in PACKAGE_DIR.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(getattr(exc, "id", None))
        # a base class is raised through its subclasses
        unraised = sorted(cls.name for cls in classes
                          if cls.name not in raised | bases)
        assert not unraised, f"error classes raised nowhere: {unraised}"

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_only_leaves_keep_gradients(self, module):
        model, x, nodes = self.training_step(module)
        assert nodes
        assert all(node.grad is None for node in nodes)
        assert x.tensor.grad is not None and x.tensor.grad.shape == x.tensor.shape
        assert all(p.grad is not None for p in model.parameters())

    @pytest.mark.parametrize("module", MODULE_CHOICES)
    def test_frozen_input_leaves_parameter_gradients_bitwise(self, module):
        model, _, _ = self.training_step(module)
        frozen, x, _ = self.training_step(module, input_grad=False)
        assert x.tensor.grad is None
        for p, q in zip(model.parameters(), frozen.parameters()):
            assert np.array_equal(p.grad, q.grad)
