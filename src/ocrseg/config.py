"""Flat key=value run configuration shared by every CLI subcommand."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .data import COORD_CHANNELS, read_text_lines, scene_shape_problem
from .errors import ConfigError
from .models import ModelConfig
from .profiler import BenchConfig
from .supervision import LossConfig


@dataclass
class RunConfig:
    """Everything a run needs: task shape, learning rate, scheme switches, paths.

    Parsed from a text file of ``key = value`` lines ('#' comments allowed)
    plus ``--set key=value`` overrides; unknown keys are rejected.
    """

    seed: int = 0
    grid: int = 32
    classes: int = 6
    train_scenes: int = 128
    eval_scenes: int = 48
    noise: float = 30.0
    jitter: float = 4.0
    shapes_min: int = 2
    shapes_max: int = 4
    ignore_fraction: float = 0.0

    # 150 iterations is deliberately short of convergence: the relation
    # schemes tie once fully trained, so the scheme comparison lives in
    # the transient. The region-oracle run gets its own 500-step budget.
    iterations: int = 150
    base_lr: float = 0.5
    aux_weight: float = LossConfig.aux_weight

    module: str = "ocr"
    feat_channels: int = 14
    key_channels: int = ModelConfig.key_channels
    mid_channels: int = ModelConfig.mid_channels
    attention_scale: str = ModelConfig.attention_scale
    da_regions: int = ModelConfig.da_regions
    precision: str = ModelConfig.dtype

    # the bench input's side; its widths are ``BenchConfig``'s
    bench_size: int = BenchConfig.height

    equiv_instances: int = 100
    grad_instances: int = 50

    data_dir: str = "data"
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # feat_channels reaches the model config as in_channels: checked
        # first, so that its error names the key that was set
        if self.feat_channels < 0:
            raise ConfigError(f"feat_channels must be >= 0, got {self.feat_channels}")
        self.model_config()
        # the run's loss weight and rate, checked here so that a bad weight
        # or rate fails the config, not the training runs inside it
        self.loss = LossConfig(self.aux_weight)
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.equiv_instances < 1 or self.grad_instances < 1:
            raise ConfigError("equiv_instances and grad_instances must be >= 1")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.train_scenes < 1 or self.eval_scenes < 1:
            raise ConfigError("train_scenes and eval_scenes must be >= 1")
        if not 0.0 <= self.ignore_fraction < 1.0:
            raise ConfigError(f"ignore_fraction must be in [0, 1), "
                              f"got {self.ignore_fraction}")
        for key in ("noise", "jitter"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.shapes_min < 1 or self.shapes_max < self.shapes_min:
            raise ConfigError("need shapes_max >= shapes_min >= 1")
        problem = scene_shape_problem(self.grid, self.classes)
        if problem is not None:
            raise ConfigError(f"classes/grid: {problem}")

    @property
    def in_channels(self) -> int:
        return self.feat_channels + COORD_CHANNELS  # lifted colors plus coordinates

    def model_config(self, module: str | None = None) -> ModelConfig:
        return ModelConfig(
            module=module or self.module, in_channels=self.in_channels,
            num_classes=self.classes, key_channels=self.key_channels,
            mid_channels=self.mid_channels, attention_scale=self.attention_scale,
            da_regions=self.da_regions, seed=self.seed, dtype=self.precision)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def parse_assignments(pairs: list[str]) -> dict:
    """``key=value`` strings to a typed dict; unknown keys rejected."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    values: dict = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        assignments = []
        for lineno, line in enumerate(read_text_lines(path, ConfigError), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            assignments.append(line)
        values.update(parse_assignments(assignments))
    if overrides:
        values.update(parse_assignments(list(overrides)))
    return RunConfig(**values)
