"""Analytic and empirical complexity profiling.

Analytic parameter and FLOP counts come from the models' closed-form
breakdowns (conventions in :mod:`ocrseg.flopcount`). Empirical measurements
run the same forward code: peak memory from the tensor engine's allocation
tracker (inputs and parameters excluded by scoping), wall time as the median
of ``BENCH_REPEATS`` timed runs after ``BENCH_WARMUP`` warmups on a monotonic
clock.
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import ShapeOnlyRng
from .context import FeatureMap
from .errors import ConfigError
from .models import PRECISIONS, ModelConfig, SegmentationModel, build_model, \
    full_scale_config

# The side of the full-scale input; its channels are ``full_scale_config``'s.
FULL_SCALE_SIZE = 128
FULL_SCALE_CLASSES = 19

# Expected cost ordering of the context schemes at full scale, cheapest group
# first; the last two are an established near-tie, so their mutual order is
# not checked.
EXPECTED_FLOP_RANK = (("da",), ("ocr",), ("aspp_lite",), ("self_attn", "ppm_lite"))

DEFAULT_BENCH_MODULES = ("ocr", "da", "self_attn", "global", "aspp_lite", "ppm_lite")

# Verdicts that compare wall times; they are no more repeatable than the times
# themselves, so the JSON keeps them apart from the deterministic ones.
TIMING_VERDICTS = ("ocr_time_below_self_attention", "ocr_time_below_ppm_lite")

# Timed no-grad forwards per measured head, and the untimed ones before them.
BENCH_REPEATS, BENCH_WARMUP = 5, 2


@dataclass
class BenchConfig:
    """Empirical measurement settings: the desk-scale input (a divided-down
    full-scale map), the scheme settings of the measured heads, and float
    precision. ``da_regions`` applies to the da head only."""

    # the measured heads' widths, the same for every bench: constants, not fields
    channels = 256
    num_classes = FULL_SCALE_CLASSES
    key_channels = 64
    mid_channels = 128

    height: int = 64
    width: int = 64
    attention_scale: str = "unit"
    da_regions: int = 64
    precision: str = "double"
    seed: int = 0

    def __post_init__(self) -> None:
        bins = max(ModelConfig().ppm_bins)
        if min(self.height, self.width) < bins:
            raise ConfigError(f"bench height and width (bench_size) must be >= {bins}, "
                              f"ppm_lite's largest bin; got {self.height}x{self.width}")
        self.model_config("da")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    def model_config(self, module: str) -> ModelConfig:
        # No stem: it is identical across the relational schemes, so leaving
        # it out of the measured models isolates the context-stage contrast.
        # The analytic full-scale table keeps it, matching published totals.
        return ModelConfig(module=module, in_channels=self.channels,
                           num_classes=self.num_classes,
                           key_channels=self.key_channels,
                           mid_channels=self.mid_channels,
                           attention_scale=self.attention_scale,
                           da_regions=self.da_regions if module == "da" else 0,
                           use_stem=False,
                           dtype=self.precision, seed=self.seed)


@dataclass
class CostReport:
    module: str
    params: int
    flops: int
    input_shape: tuple[int, int, int]
    peak_bytes: int | None = None
    wall_ms: float | None = None
    wall_ms_spread: float | None = None


def count_params(module) -> int:
    """Exact count of learnable scalar entries of a model or block."""
    return sum(t.data.size for _, t in module.named_parameters())


def bench_input(cfg: BenchConfig) -> FeatureMap:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xBE)))
    dtype = PRECISIONS[cfg.precision]
    data = rng.standard_normal((cfg.channels, cfg.height, cfg.width)).astype(dtype)
    return FeatureMap(T.Tensor(data))


def measure_peak_memory(model: SegmentationModel, fm: FeatureMap) -> int:
    """Peak tracked bytes of one no-grad forward; the input and the model's
    parameters predate the scope and are excluded."""
    with T.no_grad():
        with T.AllocationTracker() as tracker:
            out = model.forward(fm)
            del out
    return tracker.peak_bytes


def measure_wall_time(model: SegmentationModel, fm: FeatureMap) -> tuple[float, float]:
    """(median_ms, spread_ms) over ``BENCH_REPEATS`` timed no-grad forwards."""
    with T.no_grad():
        for _ in range(BENCH_WARMUP):
            model.forward(fm)
        samples = []
        for _ in range(BENCH_REPEATS):
            start = time.perf_counter()
            model.forward(fm)
            samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples), max(samples) - min(samples)


def full_scale_table() -> list[CostReport]:
    """Analytic params/FLOPs of each ranked scheme at the full production
    scale, counted on shape-only models that hold no weights."""
    reports = []
    for name in (m for group in EXPECTED_FLOP_RANK for m in group):
        cfg = full_scale_config(name, num_classes=FULL_SCALE_CLASSES)
        model = build_model(cfg, image_size=FULL_SCALE_SIZE, rng=ShapeOnlyRng())
        reports.append(CostReport(
            module=name, params=count_params(model),
            flops=model.analytic_flops(FULL_SCALE_SIZE, FULL_SCALE_SIZE),
            input_shape=(cfg.in_channels, FULL_SCALE_SIZE, FULL_SCALE_SIZE)))
    return reports


def rank_matches_expected(flops_by_module: dict[str, int]) -> bool:
    """True when sorting by FLOPs never places a costlier rank group before a
    cheaper one (order inside a group is free)."""
    group_of = {m: i for i, group in enumerate(EXPECTED_FLOP_RANK) for m in group}
    present = [m for m in flops_by_module if m in group_of]
    ranked = sorted(present, key=lambda m: flops_by_module[m])
    indices = [group_of[m] for m in ranked]
    return all(a <= b for a, b in zip(indices, indices[1:]))


def bench_report(cfg: BenchConfig) -> tuple[list[CostReport], dict, dict[str, str]]:
    """Measure every module of ``DEFAULT_BENCH_MODULES`` at the bench shape
    and judge the direction claims. A module failure isolates to its row; the
    run continues.

    Returns (measured reports, verdicts, errors). A verdict that lacks an
    operand (a module that failed) is None: it was not judged.
    """
    fm = bench_input(cfg)
    reports: list[CostReport] = []
    errors: dict[str, str] = {}
    for name in DEFAULT_BENCH_MODULES:
        try:
            model = build_model(cfg.model_config(name), image_size=cfg.height)
            params = count_params(model)
            flops = model.analytic_flops(cfg.height, cfg.width)
            peak = measure_peak_memory(model, fm)
            wall, spread = measure_wall_time(model, fm)
            reports.append(CostReport(name, params, flops, cfg.input_shape,
                                      peak, wall, spread))
            del model
        except Exception as exc:  # isolate per row
            errors[name] = f"{type(exc).__name__}: {exc}"
    full = full_scale_table()
    full_flops = {r.module: r.flops for r in full}
    measured = {r.module: r for r in reports}

    def _lt(metric: str, a: str, b: str) -> bool | None:
        if a not in measured or b not in measured:
            return None
        return getattr(measured[a], metric) < getattr(measured[b], metric)

    verdicts = {
        "full_scale_flops_rank_matches_expected": rank_matches_expected(full_flops),
        "ocr_flops_within_1p1x_double_attention":
            full_flops["ocr"] <= 1.1 * full_flops["da"],
        "ocr_peak_below_self_attention": _lt("peak_bytes", "ocr", "self_attn"),
        "ocr_time_below_self_attention": _lt("wall_ms", "ocr", "self_attn"),
        "ocr_peak_below_ppm_lite": _lt("peak_bytes", "ocr", "ppm_lite"),
        "ocr_time_below_ppm_lite": _lt("wall_ms", "ocr", "ppm_lite"),
    }
    return reports, {"full_scale": full, "verdicts": verdicts}, errors


# ---------------------------------------------------------------------------
# deterministic serialization


def bench_to_json(cfg: BenchConfig, measured: list[CostReport], extras: dict,
                  errors: dict[str, str]) -> str:
    def report_obj(r: CostReport, with_measurements: bool) -> dict:
        obj = {"module": r.module, "params": r.params, "flops": r.flops,
               "input_shape": list(r.input_shape)}
        if with_measurements:
            obj["peak_bytes"] = r.peak_bytes
            obj["wall_ms"] = None if r.wall_ms is None else round(r.wall_ms, 3)
            obj["wall_ms_spread"] = (None if r.wall_ms_spread is None
                                     else round(r.wall_ms_spread, 3))
        return obj

    verdicts = dict(extras["verdicts"])
    timing = {name: verdicts.pop(name) for name in TIMING_VERDICTS if name in verdicts}
    payload = {
        "bench_config": {
            "input_shape": list(cfg.input_shape), "num_classes": cfg.num_classes,
            "key_channels": cfg.key_channels, "mid_channels": cfg.mid_channels,
            "attention_scale": cfg.attention_scale, "da_regions": cfg.da_regions,
            "repeats": BENCH_REPEATS, "warmup": BENCH_WARMUP,
            "precision": cfg.precision, "seed": cfg.seed,
            "modules": list(DEFAULT_BENCH_MODULES),
        },
        "full_scale": [report_obj(r, False) for r in extras["full_scale"]],
        "measured": [report_obj(r, True) for r in measured],
        "verdicts": verdicts,
        "timing_verdicts": timing,
        "errors": errors,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
