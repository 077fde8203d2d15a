"""Analytic cost counting conventions, the full-scale comparison table, and
the empirical peak-memory/wall-time bench."""
import ast
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ocrseg.context as context
import ocrseg.flopcount as F
from ocrseg.errors import ConfigError
from ocrseg.models import ModelConfig, build_model, full_scale_config
from ocrseg.profiler import (BENCH_REPEATS, BENCH_WARMUP, BenchConfig, CostReport, DEFAULT_BENCH_MODULES,
                             EXPECTED_FLOP_RANK, FULL_SCALE_SIZE, bench_input,
                             bench_report, bench_to_json, count_params,
                             full_scale_table, measure_peak_memory,
                             measure_wall_time,
                             rank_matches_expected)
from ocrseg.blocks import Conv1x1Head

from conftest import quadratic_share

REPO = Path(__file__).resolve().parents[1]


def benchmark_workloads():
    """``perfbench/workloads.py``'s ``WORKLOADS``, imported as
    ``perfbench/run.py`` imports it."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return workloads.WORKLOADS


def layers_map(name):
    """The literal top-level dict ``name`` of ``perfbench/layers.py``."""
    layers = ast.parse((REPO / "perfbench" / "layers.py").read_text())
    return next(ast.literal_eval(node.value) for node in layers.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name)


class SmallBench(BenchConfig):
    """A bench at test widths: ``BenchConfig``'s widths are class constants."""
    channels, num_classes, key_channels, mid_channels = 8, 3, 4, 8


def small_bench(**overrides):
    base = dict(height=8, width=8, seed=3)
    base.update(overrides)
    return SmallBench(**base)


def fail_modules(monkeypatch, cfg, failing):
    """Makes ``bench_report``'s model of each module in ``failing`` fail to
    build with a ``ConfigError``."""
    real = cfg.model_config

    def model_config(module):
        if module in failing:
            raise ConfigError(f"no {module} here")
        return real(module)

    monkeypatch.setattr(cfg, "model_config", model_config)


class TestFlopConventions:
    def test_matmul(self):
        assert F.matmul_flops(2, 3, 4) == 48

    def test_conv1x1_closed_form(self):
        assert F.conv1x1_flops(2048, 256, 128 * 128) == 17_179_869_184
        assert F.conv1x1_flops(2, 3, 4, bias=True) == 48 + 12

    def test_conv_kxk(self):
        assert F.conv_kxk_flops(2, 3, 4, 3) == 2 * 9 * 2 * 3 * 4

    def test_block_adds_norm_and_relu(self):
        assert F.block_flops(2, 3, 4) == F.conv_kxk_flops(2, 3, 4, 1) + 3 * 3 * 4

    def test_pointwise_conventions(self):
        assert F.softmax_flops(3, 4) == 60
        assert F.pool_flops(2, 16, 4) == 2 * 20
        assert F.pool_flops(3, 9, 1) == 30


class TestCountParams:
    def test_conv1x1_head_closed_form(self, rng):
        head = Conv1x1Head.create(rng, 2048, 256, bias=True)
        assert count_params(head) == 2048 * 256 + 256 == 524_544

    def test_full_scale_context_head_magnitude(self):
        model = build_model(full_scale_config("ocr"), image_size=128)
        params = count_params(model)
        assert abs(params - 10.5e6) <= 0.15 * 10.5e6


class TestCountFlops:
    def test_matches_model_breakdown(self):
        # the bench bills each head its model's breakdown at the bench shape
        bench = small_bench(height=8, width=6)
        reports, _, errors = bench_report(bench)
        assert not errors and [r.module for r in reports] == list(DEFAULT_BENCH_MODULES)
        for report in reports:
            breakdown = build_model(bench.model_config(report.module)).flop_breakdown(8, 6)
            assert report.flops == sum(breakdown.values())

    def test_self_attention_quadratic_term_scaling(self):
        cfg = small_bench().model_config("self_attn")
        model = build_model(cfg)
        small = model.flop_breakdown(16, 16)   # N = 256
        large = model.flop_breakdown(32, 32)   # N = 1024
        for key in ("relation_logits", "relation_softmax", "aggregation"):
            assert large[key] == 16 * small[key]
        ratio = model.analytic_flops(32, 32) / model.analytic_flops(16, 16)
        assert 4.0 < ratio <= 16.0


class TestScalingFit:
    def test_region_scheme_is_linear_in_pixels(self):
        share, residual = quadratic_share("ocr", sides=(8, 16, 32),
                                          bench=small_bench())
        assert share < 0.01
        assert residual < 0.01

    def test_dense_attention_is_quadratic(self):
        share, residual = quadratic_share("self_attn", sides=(8, 16, 32),
                                          bench=small_bench())
        assert share > 0.9
        assert residual < 0.01


class TestFullScaleTable:
    def test_rank_and_magnitudes(self):
        reports = full_scale_table()
        assert [r.module for r in reports] == ["da", "ocr", "aspp_lite",
                                               "self_attn", "ppm_lite"]
        flops = {r.module: r.flops for r in reports}
        assert rank_matches_expected(flops)
        assert flops["ocr"] <= 1.1 * flops["da"]
        # reference totals for the standard widths, with 10% slack
        assert abs(flops["ocr"] - 3.40e11) <= 0.10 * 3.40e11
        assert abs(flops["self_attn"] - 6.19e11) <= 0.10 * 6.19e11
        assert all(r.input_shape == (2048, FULL_SCALE_SIZE, FULL_SCALE_SIZE) for r in reports)
        assert all(r.peak_bytes is None and r.wall_ms is None for r in reports)

    def test_counts_without_allocating_weights(self):
        tracemalloc.start()
        try:
            reports = full_scale_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # drawn weights would take ~336 MB
        # the shape-only count equals the count on a model with drawn weights
        # (ocr is the smallest full-scale head: 10.5M parameters)
        ocr = next(r for r in reports if r.module == "ocr")
        drawn = build_model(full_scale_config("ocr"), image_size=FULL_SCALE_SIZE)
        assert ocr.params == count_params(drawn)
        assert ocr.flops == drawn.analytic_flops(FULL_SCALE_SIZE, FULL_SCALE_SIZE)

    def test_rank_matcher_logic(self):
        good = {"da": 1, "ocr": 2, "aspp_lite": 3, "self_attn": 5, "ppm_lite": 4}
        assert rank_matches_expected(good)
        tied_group_swapped = dict(good, self_attn=4, ppm_lite=5)
        assert rank_matches_expected(tied_group_swapped)
        bad = dict(good, ocr=10)
        assert not rank_matches_expected(bad)
        assert rank_matches_expected({"ocr": 7})  # single entry


class TestReportSerialization:
    def test_json_is_deterministic_and_structured(self):
        cfg = small_bench()
        measured = [CostReport("ocr", 1, 2, cfg.input_shape, 3, 4.0, 0.1)]
        extras = {"full_scale": [CostReport("ocr", 1, 2, (2048, 128, 128))],
                  "verdicts": {"some_direction": True}}
        a = bench_to_json(cfg, measured, extras, {})
        b = bench_to_json(cfg, measured, extras, {})
        assert a == b
        payload = json.loads(a)
        assert set(payload) == {"bench_config", "full_scale", "measured",
                                "verdicts", "timing_verdicts", "errors"}
        assert payload["measured"][0]["peak_bytes"] == 3
        assert (payload["bench_config"]["repeats"],
                payload["bench_config"]["warmup"]) == (BENCH_REPEATS, BENCH_WARMUP) == (5, 2)


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BenchConfig(precision="half")
        with pytest.raises(ConfigError):
            BenchConfig(attention_scale="bogus")
        with pytest.raises(ConfigError):
            BenchConfig(da_regions=-1)
        with pytest.raises(ConfigError, match="seed"):
            BenchConfig(seed=-1)

    @pytest.mark.parametrize("height,width", [(5, 6), (6, 5), (1, 1)])
    def test_sides_below_the_largest_pyramid_bin_rejected(self, height, width):
        # every measured head must run: ppm_lite pools a 6x6 bin
        with pytest.raises(ConfigError, match=f"must be >= 6, ppm_lite's largest bin; "
                                              f"got {height}x{width}"):
            BenchConfig(height=height, width=width)
        assert BenchConfig(height=6, width=6).input_shape == (256, 6, 6)

    def test_model_config_wiring(self):
        cfg = small_bench()
        mc = cfg.model_config("da")
        assert mc.da_regions == 64
        assert not mc.use_stem
        assert mc.in_channels == cfg.channels
        assert cfg.model_config("ocr").da_regions == 0
        assert cfg.input_shape == (8, 8, 8)

    def test_scheme_settings_reach_the_heads(self):
        default = small_bench()
        assert default.model_config("ocr").attention_scale == "unit"
        rsqrt = small_bench(attention_scale="rsqrt_key", da_regions=5)
        for module in ("ocr", "da", "self_attn"):
            assert rsqrt.model_config(module).attention_scale == "rsqrt_key"
        assert rsqrt.model_config("da").da_regions == 5
        assert rsqrt.model_config("ocr").da_regions == 0
        model = build_model(rsqrt.model_config("ocr"), image_size=rsqrt.height)
        assert model.params.config.relation_scale == 1.0 / np.sqrt(rsqrt.key_channels)


class TestWhatTheBenchmarkReads:
    """Names the benchmark under ``perfbench/`` reads from the package: a
    rename fails here, not in the benchmark."""

    @pytest.mark.parametrize("name", sorted(benchmark_workloads()))
    def test_workload_checks_pass(self, name, tmp_path):
        # the benchmark's own calls: an output the benchmark would count as
        # incorrect fails here
        import ocrseg
        workload = benchmark_workloads()[name](ocrseg, 0, str(tmp_path))
        workload.setup()
        assert workload.prepare_checks() == []
        assert workload.check(workload.op()) is None

    def test_flop_keys_are_the_ones_the_stage_table_sums(self):
        stages = layers_map("STAGES")
        assert all(callable(getattr(context, fn))
                   for fns, _ in stages.values() for fn in fns)
        summed = {key for _, keys in stages.values() for key in keys}
        bench = BenchConfig(height=8, width=8)
        seen = set()
        for module in ("ocr", "da", "acf"):
            model = build_model(bench.model_config(module), image_size=8)
            # the stem and the classifier belong to no context stage
            keys = set(model.flop_breakdown(8, 8)) - {"stem", "final_head"}
            assert keys <= summed, module
            seen |= keys
        assert bench.model_config("da").da_regions > 0
        assert seen == summed

    def test_baseline_functions_are_context_functions(self):
        baselines = layers_map("BASELINES")
        assert baselines
        assert all(callable(getattr(context, fn)) for fn in baselines.values())


class TestMeasurement:
    def test_dense_attention_needs_more_memory(self):
        cfg = small_bench()
        fm = bench_input(cfg)
        peaks = {}
        for module in ("ocr", "global", "self_attn"):
            model = build_model(cfg.model_config(module), image_size=cfg.height)
            peaks[module] = measure_peak_memory(model, fm)
        assert peaks["global"] < peaks["self_attn"]
        assert peaks["ocr"] < peaks["self_attn"]

    def test_banded_tail_peak(self):
        # at the bench widths a 64x64 ocr forward runs its tail in four
        # bands of 16 rows: 3,517,440 tracked bytes, against 9,011,200 when
        # the whole image was one band
        cfg = BenchConfig()
        model = build_model(cfg.model_config("ocr"), image_size=cfg.height)
        assert measure_peak_memory(model, bench_input(cfg)) <= 3_600_000

    @pytest.mark.parametrize("module,bound", [("aspp_lite", 8_100_000),
                                              ("ppm_lite", 6_800_000)])
    def test_banded_kxk_peak(self, module, bound):
        # at the bench widths a 64x64 aspp_lite or ppm_lite forward runs in
        # bands of 16 rows, a band's taps reading only their rows: 8,036,352
        # and 6,726,656 tracked bytes, against 18,145,280 and 22,070,272
        # when the whole image was one band (9,555,968 for aspp_lite when a
        # band's grid padded every row between its rate-12 taps)
        cfg = BenchConfig()
        model = build_model(cfg.model_config(module), image_size=cfg.height)
        assert measure_peak_memory(model, bench_input(cfg)) <= bound

    @pytest.mark.parametrize("module,bound", [("self_attn", 10_300_000),
                                              ("da", 3_600_000)])
    def test_banded_wide_head_peak(self, module, bound):
        # at the bench widths, 64x64: self_attn's queries, attention and
        # output transform run per 16-row band (10,215,424 tracked bytes,
        # 12,582,912 with the attention whole), and da normalises its 64
        # region maps' logits in place (3,530,752, 5,603,328 with a copy)
        cfg = BenchConfig()
        model = build_model(cfg.model_config(module), image_size=cfg.height)
        assert measure_peak_memory(model, bench_input(cfg)) <= bound

    @pytest.mark.parametrize("precision,bound", [("double", 11_100_000),
                                                 ("single", 5_600_000)])
    def test_da_maps_peak_at_128(self, precision, bound):
        # at the bench widths, 128x128: da pools its 64 maps and forms only
        # the logits of the classifier, whose softmax nothing reads:
        # 11,042,816 and 5,521,408 tracked bytes, against 13,533,184 and
        # 6,766,592 while that softmax was formed
        cfg = BenchConfig(height=128, width=128, precision=precision)
        model = build_model(cfg.model_config("da"), image_size=cfg.height)
        assert measure_peak_memory(model, bench_input(cfg)) <= bound

    def test_repeated_peaks_identical(self):
        cfg = small_bench()
        fm = bench_input(cfg)
        model = build_model(cfg.model_config("ocr"), image_size=cfg.height)
        first = measure_peak_memory(model, fm)
        second = measure_peak_memory(model, fm)
        assert first == second > 0

    def test_wall_time_median_and_spread(self):
        cfg = small_bench()
        fm = bench_input(cfg)
        model = build_model(cfg.model_config("ocr"), image_size=cfg.height)
        median, spread = measure_wall_time(model, fm)
        assert median > 0.0
        assert spread >= 0.0

    def test_bench_input_deterministic(self):
        cfg = small_bench()
        assert np.array_equal(bench_input(cfg).tensor.data,
                              bench_input(cfg).tensor.data)


class TestBenchReport:
    def test_single_module_vacuous_verdicts(self, monkeypatch):
        cfg = small_bench()
        others = [m for m in DEFAULT_BENCH_MODULES if m != "ocr"]
        fail_modules(monkeypatch, cfg, others)
        reports, extras, errors = bench_report(cfg)
        assert [r.module for r in reports] == ["ocr"]
        assert sorted(errors) == sorted(others)
        # every measured verdict lacks an operand and is left unjudged
        verdicts = extras["verdicts"]
        assert {name for name, v in verdicts.items() if v is None} == {
            "ocr_peak_below_self_attention", "ocr_time_below_self_attention",
            "ocr_peak_below_ppm_lite", "ocr_time_below_ppm_lite"}
        assert verdicts["full_scale_flops_rank_matches_expected"] is True
        assert reports[0].peak_bytes > 0
        assert reports[0].wall_ms is not None

    def test_module_failure_isolates(self, monkeypatch):
        cfg = small_bench()
        fail_modules(monkeypatch, cfg, ["self_attn"])
        reports, extras, errors = bench_report(cfg)
        assert [r.module for r in reports] == [m for m in DEFAULT_BENCH_MODULES
                                               if m != "self_attn"]
        assert errors == {"self_attn": "ConfigError: no self_attn here"}
        verdicts = extras["verdicts"]
        assert verdicts["ocr_peak_below_self_attention"] is None
        assert verdicts["ocr_time_below_self_attention"] is None
        assert verdicts["ocr_peak_below_ppm_lite"] in (True, False)

    def test_default_module_list(self):
        assert DEFAULT_BENCH_MODULES == ("ocr", "da", "self_attn", "global",
                                         "aspp_lite", "ppm_lite")
        assert EXPECTED_FLOP_RANK[0] == ("da",)
