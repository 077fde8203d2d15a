"""Trainable segmentation heads: one context stage, then a 1x1 classifier.

Every scheme is the same ``SegmentationModel``; ``STAGES`` maps each module
name to its context stage. The model draws the stage's parameters from one
seeded stream, registering each under its checkpoint name as it is drawn,
exposes ``forward`` (final logits plus optional coarse/auxiliary logits) and a
closed-form ``flop_breakdown`` used by the profiler. The same assemblies are
trained at desk scale and profiled at full scale, so the analytic counts
describe exactly the code that runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flopcount as F
from . import tensor as T
from .blocks import Conv1x1Head, TransformBlock, conv_weight
from .context import (FeatureMap, acf_scheme_relations, aspp_lite, augment,
                      compute_soft_regions, da_scheme_relations, global_context, ocr_aggregate,
                      pixel_region_relations, ppm_lite, region_representations, scaled_rates,
                      self_attention_context)
from .errors import ConfigError, DimensionError
from .supervision import LabelMap, gt_regions, gt_relations

_SCALE_MODES = ("unit", "rsqrt_key")
# The ``precision`` setting's values and the float dtype each computes in.
PRECISIONS = {"double": np.float64, "single": np.float32}

# Bytes the widest buffer of one band of a stage's fuse reaches: a band is the
# smallest power of two rows that reach it (``_band_height``), at the bench
# widths in float64 16 rows at 64x64 and 8 at 128x128 for every head. There,
# on a 2-vCPU VM, ocr's no-grad tracemalloc peak at 128x128 read 40.3 MB whole
# and 18.2, 11.6, 8.3 and 6.7 MB in bands of 32, 16, 8 and 4 rows, its median
# forward 87, 76, 75, 78 and 83 ms (98 and 106 ms at 2 and 1 rows); aspp_lite's
# 64x64 forward took 125 ms in 8-row bands (rounding down) and 109 ms in 16.
_BAND_BYTES = 1 << 20


@dataclass
class ModelConfig:
    """Widths and scheme switches for one segmentation head; every setting
    is checked here, and a bad one raises ``ConfigError`` naming its key."""

    module: str = "ocr"
    in_channels: int = 16
    num_classes: int = 4
    key_channels: int = 16
    mid_channels: int = 32
    attention_scale: str = "unit"
    da_regions: int = 0
    use_stem: bool = True
    aspp_rates: tuple[int, ...] = (1, 6, 12)
    ppm_bins: tuple[int, ...] = (1, 2, 3, 6)
    seed: int = 0
    dtype: str = "double"

    def __post_init__(self) -> None:
        if self.module not in MODULE_CHOICES:
            raise ConfigError(f"module must be one of {MODULE_CHOICES}, "
                              f"got {self.module!r}")
        if self.in_channels < 1 or self.num_classes < 1:
            raise ConfigError("in_channels and num_classes must be >= 1")
        if self.key_channels < 1 or self.mid_channels < 1:
            raise ConfigError("key_channels and mid_channels must be >= 1")
        if self.attention_scale not in _SCALE_MODES:
            raise ConfigError(f"attention_scale must be one of {_SCALE_MODES}, "
                              f"got {self.attention_scale!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.da_regions < 0:
            raise ConfigError(f"da_regions must be >= 0, got {self.da_regions}")
        for key in ("aspp_rates", "ppm_bins"):
            values = getattr(self, key)
            if not values or min(values) < 1:
                raise ConfigError(f"{key} must be one or more integers >= 1, "
                                  f"got {values!r}")
        if self.dtype not in PRECISIONS:
            raise ConfigError(f"precision (dtype) must be one of {tuple(PRECISIONS)}, "
                              f"got {self.dtype!r}")

    @property
    def np_dtype(self):
        return PRECISIONS[self.dtype]

    @property
    def relation_scale(self) -> float:
        """Relation-logit scale: ``unit`` leaves dot products unscaled,
        ``rsqrt_key`` divides them by sqrt(key_channels)."""
        if self.attention_scale == "unit":
            return 1.0
        return 1.0 / float(np.sqrt(self.key_channels))


@dataclass
class ModelOutput:
    final_logits: T.Tensor          # (K, N)
    aux_logits: T.Tensor | None     # coarse segmentation, when the scheme has one


class SegmentationModel:
    """One segmentation head: a context stage, then a 1x1 classifier.

    ``stage(model, image_size)`` builds the stage, drawing its parameters
    through ``draw`` from ``rng`` (by default the stream seeded with
    ``cfg.seed``); the final head is drawn last. Names, draw order and
    values are the checkpoint format. A stage has ``out_channels``, gives
    its closed-form FLOP terms with ``flops(n)`` and splits its map from
    ``(x, labels)`` to the features the final head reads: ``prepare(x,
    labels)`` runs the whole-image part and returns ``fuse(r0, r1)``, the
    (C, (r1 - r0) * W) features of image rows r0:r1, and the auxiliary
    logits (or None). Bands run top to bottom, all of one height but the
    last (under no_grad, that of one rule, ``_band_height``).
    """

    def __init__(self, cfg: ModelConfig, stage, image_size: int = 64,
                 rng=None) -> None:
        self.cfg = cfg
        self._named: list[tuple[str, T.Tensor]] = []
        self._rng = (np.random.default_rng(np.random.SeedSequence(cfg.seed))
                     if rng is None else rng)
        self.stage = stage(self, image_size)
        self.final_head = self.draw("final_head", Conv1x1Head.create,
                                    self.stage.out_channels, cfg.num_classes,
                                    bias=True)

    def draw(self, name: str | None, create, *args, **kwargs):
        """``create(rng, *args, dtype=..., **kwargs)`` on the model's seeded
        stream. The result, a block or one tensor, is registered under
        ``name`` as it is drawn (a block's parameters as ``name.<field>``);
        ``name=None`` draws it without making it state."""
        obj = create(self._rng, *args, dtype=self.cfg.np_dtype, **kwargs)
        if name is not None:
            self._named.extend([(name, obj)] if isinstance(obj, T.Tensor)
                               else obj.named_parameters(name + "."))
        return obj

    @property
    def params(self):
        """The context stage, whose block attributes carry their checkpoint
        names (``value_transform``, ...) and whose ``config`` is ``cfg``."""
        return self.stage

    def named_parameters(self) -> list[tuple[str, T.Tensor]]:
        return list(self._named)

    def parameters(self) -> list[T.Tensor]:
        return [t for _, t in self._named]

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self._named)
        if set(own) != set(state):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise ConfigError(f"checkpoint mismatch; missing={missing} extra={extra}")
        for name, tensor in own.items():
            if tensor.data.shape != state[name].shape:
                raise ConfigError(
                    f"checkpoint entry {name} has shape {state[name].shape}, "
                    f"model expects {tensor.data.shape}")
            if tensor.data.dtype != state[name].dtype:
                raise ConfigError(
                    f"checkpoint entry {name} has dtype {state[name].dtype}, "
                    f"model expects {tensor.data.dtype}")
        for name, tensor in own.items():
            tensor.data[...] = state[name]

    def _band_height(self, x: FeatureMap) -> int:
        """Image rows per band of the stage's fuse: all of them when the
        forward records a backward, otherwise the smallest power of two rows
        whose widest per-band buffer reaches ``_BAND_BYTES``, at most the
        image's."""
        cfg = self.cfg
        if T._grad_enabled:
            return x.height
        widest = max(cfg.key_channels, self.stage.out_channels, cfg.num_classes,
                     cfg.da_regions)
        row_bytes = np.dtype(cfg.np_dtype).itemsize * widest * max(x.width, 1)
        rows = 1 << (-(-_BAND_BYTES // row_bytes) - 1).bit_length()
        return min(rows, x.height)

    def forward(self, x: FeatureMap, labels: LabelMap | None = None) -> ModelOutput:
        """The stage's whole-image part, then its fuse and the final head one
        band of image rows at a time, each band's logits written into one
        (K, N) buffer. With one band the final head's result is returned as
        it is, so a forward that records a backward runs its ops in one order
        whatever the image size."""
        fuse, aux = self.stage.prepare(x, labels)
        step = self._band_height(x)
        if step >= x.height:
            return ModelOutput(self.final_head(fuse(0, x.height)), aux)
        logits = None
        for r0 in range(0, x.height, step):
            r1 = min(r0 + step, x.height)
            band = self.final_head(fuse(r0, r1)).data
            if logits is None:
                logits = T.Tensor(np.empty((band.shape[0], x.num_pixels), dtype=band.dtype))
            logits.data[:, r0 * x.width:r1 * x.width] = band
        return ModelOutput(logits, aux)

    def flop_breakdown(self, height: int, width: int) -> dict[str, int]:
        n = height * width
        out = self.stage.flops(n)
        out["final_head"] = F.conv1x1_flops(self.stage.out_channels,
                                            self.cfg.num_classes, n, bias=True)
        return out

    def analytic_flops(self, height: int, width: int) -> int:
        return sum(self.flop_breakdown(height, width).values())


class RelationalStage:
    """Optional 3x3 stem, a relational context, then the fuse of features and
    context. Every relational scheme draws the stem first and the value,
    output and fuse transforms in ``_draw_shared``; a subclass draws its own
    parameters around them in ``_draw`` and supplies ``context_flops`` and
    ``context(x, feats, labels)``. That runs the context's whole-image part
    on the raw and stemmed features and returns its tail, which maps a band
    of the stemmed features (``FeatureMap.band``) to the band's (C, N)
    context, or to one (C, 1) column for every pixel, and the auxiliary
    logits (or None). Each block attribute is named as its checkpoint entry."""

    def __init__(self, model: SegmentationModel, image_size: int) -> None:
        cfg = self.config = model.cfg
        self.pipe_in = cfg.mid_channels if cfg.use_stem else cfg.in_channels
        self.out_channels = cfg.mid_channels
        self.stem = model.draw("stem", TransformBlock.create, cfg.in_channels,
                               cfg.mid_channels, 3) if cfg.use_stem else None
        self._draw(model)

    def _draw(self, model: SegmentationModel) -> None:
        self._draw_shared(model)

    def _draw_shared(self, model: SegmentationModel) -> None:
        cfg = self.config
        self.value_transform = model.draw("value_transform", TransformBlock.create,
                                          self.pipe_in, cfg.key_channels)
        self.output_transform = model.draw("output_transform", TransformBlock.create,
                                           cfg.key_channels, cfg.mid_channels)
        self.fuse_transform = model.draw("fuse_transform", TransformBlock.create,
                                         self.pipe_in + cfg.mid_channels,
                                         cfg.mid_channels)

    def prepare(self, x: FeatureMap, labels: LabelMap | None):
        """The stem and the context's whole-image part. Returns
        ``fuse(r0, r1)``, the (C, N) fused features of image rows r0:r1, and
        the auxiliary logits (or None)."""
        feats = x if self.stem is None else FeatureMap(self.stem(x.tensor))
        tail, aux = self.context(x, feats, labels)

        def fuse(r0: int, r1: int) -> T.Tensor:
            band = feats.band(r0, r1)
            return augment(band, tail(band), self.fuse_transform)

        return fuse, aux

    def flops(self, n: int) -> dict[str, int]:
        cfg = self.config
        out: dict[str, int] = {}
        if self.stem is not None:
            out["stem"] = F.block_flops(cfg.in_channels, cfg.mid_channels, n, kernel=3)
        out.update(self.context_flops(n))
        out["fuse"] = F.block_flops(self.pipe_in + cfg.mid_channels,
                                    cfg.mid_channels, n)
        return out


class RegionStage(RelationalStage):
    """The region-context pipeline: soft regions from the raw map's classifier,
    one representation per region pooled from the stemmed features, then
    pixel-region relations by ``config.module``: learned keys (ocr), predicted
    from the pixel (da) or the classifier posterior (acf). gt_ocr substitutes
    the label map's regions and relations and runs neither the region head nor
    the relation step, so pixels of one class receive identical context."""

    def _draw(self, model: SegmentationModel) -> None:
        cfg = self.config
        oracle = cfg.module == "gt_ocr"
        # Under oracle regions and relations the classifier and both key
        # transforms never receive gradients, so they are drawn (the stream
        # stays the same) but are not state.
        self.region_head = model.draw(None if oracle else "region_head",
                                      Conv1x1Head.create, cfg.in_channels,
                                      cfg.num_classes, bias=False)
        self.pixel_transform = self.region_transform = None
        if cfg.module in ("ocr", "gt_ocr"):
            # only the learned-relation scheme compares pixel and region keys
            self.pixel_transform = model.draw(
                None if oracle else "pixel_transform", TransformBlock.create,
                self.pipe_in, cfg.key_channels)
            self.region_transform = model.draw(
                None if oracle else "region_transform", TransformBlock.create,
                self.pipe_in, cfg.key_channels)
        self._draw_shared(model)
        self.regions = cfg.num_classes
        self.da_predictor = self.da_maps = None
        if cfg.module == "da":
            self.regions = cfg.da_regions or cfg.num_classes
            self.da_predictor = model.draw("da_predictor", Conv1x1Head.create,
                                           self.pipe_in, self.regions, bias=True)
            if self.regions != cfg.num_classes:
                self.da_maps = model.draw("da_maps", Conv1x1Head.create,
                                          self.pipe_in, self.regions, bias=False)

    def context(self, x: FeatureMap, feats: FeatureMap, labels: LabelMap | None):
        cfg = self.config
        module = cfg.module
        dtype = x.tensor.dtype
        if module == "gt_ocr":
            if labels is None:
                raise ConfigError("gt_ocr forward requires a label map")
            if (labels.height, labels.width) != (x.height, x.width):
                raise DimensionError(f"labels {labels.height}x{labels.width} do not "
                                     f"match the {x.height}x{x.width} features")
            regions, logits = gt_regions(labels, dtype=dtype), None
        else:
            logits = self.region_head(x.pixels())  # (K, N), the auxiliary output
            # Wider unsupervised region maps: the pipeline pools these, and
            # the supervised classifier's logits only feed the auxiliary loss.
            regions = (compute_soft_regions(logits) if self.da_maps is None else
                       compute_soft_regions(self.da_maps(feats.pixels()), keep_logits=False))
        reps = region_representations(T.transpose(feats.pixels()), regions)  # (C, K)
        keys = self.region_transform(reps) if module == "ocr" else None
        values = self.value_transform(reps)

        def tail(band: FeatureMap) -> T.Tensor:
            if module == "ocr":
                relations = pixel_region_relations(band, keys, self.pixel_transform,
                                                   cfg.relation_scale)
            elif module == "da":
                relations = da_scheme_relations(band, self.da_predictor)
            elif module == "acf":
                c0 = band.top * band.width
                cols = logits if band is feats else T.Tensor(
                    logits.data[:, c0:c0 + band.num_pixels])  # a view, as bands are
                relations = acf_scheme_relations(cols, c0)
            else:
                relations = gt_relations(labels, dtype, band.top,
                                         band.top + band.height)
            return ocr_aggregate(relations, values, self.output_transform)

        return tail, logits

    def context_flops(self, n: int) -> dict[str, int]:
        cfg = self.config
        module = cfg.module
        c, d, k, r = self.pipe_in, cfg.key_channels, cfg.num_classes, self.regions
        out: dict[str, int] = {}
        if module != "gt_ocr":
            out["region_head"] = F.conv1x1_flops(cfg.in_channels, k, n)
        if self.da_maps is not None:  # pooled in place of the classifier's softmax
            out["da_maps"] = F.conv1x1_flops(c, r, n) + F.softmax_flops(r, n)
        elif module != "gt_ocr":
            out["region_softmax"] = F.softmax_flops(k, n)
        out["region_pool"] = F.matmul_flops(r, n, c)
        if module == "ocr":
            out["pixel_keys"] = F.block_flops(c, d, n)
            out["region_keys"] = F.block_flops(c, d, r)
            out["relation_logits"] = F.matmul_flops(n, d, r)
            out["relation_softmax"] = F.softmax_flops(n, r)
        elif module == "da":
            out["relation_predictor"] = F.conv1x1_flops(c, r, n, bias=True)
            out["relation_softmax"] = F.softmax_flops(n, r)
        elif module == "acf":
            out["relation_softmax"] = F.softmax_flops(n, k)
        out["region_values"] = F.block_flops(c, d, r)
        out["aggregation"] = F.matmul_flops(n, r, d)
        out["output_transform"] = F.block_flops(d, cfg.mid_channels, n)
        return out


class SelfAttentionStage(RelationalStage):
    """Dense pairwise attention context: the quadratic-cost baseline."""

    def _draw(self, model: SegmentationModel) -> None:
        cfg = self.config
        self.pixel_transform = model.draw("pixel_transform", TransformBlock.create,
                                          self.pipe_in, cfg.key_channels)
        self.context_transform = model.draw("context_transform",
                                            TransformBlock.create,
                                            self.pipe_in, cfg.key_channels)
        self._draw_shared(model)

    def context(self, x: FeatureMap, feats: FeatureMap, labels: LabelMap | None):
        px = feats.pixels()
        memory = (self.context_transform(px), self.value_transform(px))
        return (lambda band: self_attention_context(
            band, self.pixel_transform, memory, self.output_transform,
            self.config.relation_scale)), None

    def context_flops(self, n: int) -> dict[str, int]:
        c, d = self.pipe_in, self.config.key_channels
        return {"pixel_keys": F.block_flops(c, d, n),
                "context_keys": F.block_flops(c, d, n),
                "values": F.block_flops(c, d, n),
                "relation_logits": F.matmul_flops(n, d, n),
                "relation_softmax": F.softmax_flops(n, n),
                "aggregation": F.matmul_flops(n, n, d),
                "output_transform": F.block_flops(d, self.config.mid_channels, n)}


class GlobalStage(RelationalStage):
    """Single pooled context shared by every pixel: a (C, 1) column that
    the fuse adds to every pixel's column."""

    def context(self, x: FeatureMap, feats: FeatureMap, labels: LabelMap | None):
        y = global_context(feats, self.value_transform, self.output_transform)
        return (lambda band: y), None

    def context_flops(self, n: int) -> dict[str, int]:
        d = self.config.key_channels
        return {"values": F.block_flops(self.pipe_in, d, n),
                "pool": F.pool_flops(d, n, 1),
                "output_transform": F.block_flops(d, self.config.mid_channels, 1)}


class AsppStage:
    """Parallel dilated convolutions of the raw map, one ``conv_spatial``
    whose output holds each branch in its channel slice; a band's taps read
    only their rows of the image (``T._TapGrid``)."""

    def __init__(self, model: SegmentationModel, image_size: int) -> None:
        cfg = self.config = model.cfg
        self.branch_channels = cfg.key_channels
        rates = scaled_rates(cfg.aspp_rates, image_size, image_size)
        self.branches = [(rate, model.draw(f"branch_{i}.weight", conv_weight,
                                           cfg.in_channels, self.branch_channels, 3))
                         for i, rate in enumerate(rates)]
        self.out_channels = self.branch_channels * len(rates)

    def prepare(self, x: FeatureMap, labels: LabelMap | None):
        return (lambda r0, r1: aspp_lite(x, self.branches, r0, r1)), None

    def flops(self, n: int) -> dict[str, int]:
        return {f"branch_{i}": F.conv_kxk_flops(self.config.in_channels,
                                                self.branch_channels, n, 3)
                for i in range(len(self.branches))}


class PpmStage:
    """Pooling pyramid with the standard 3x3 fuse conv on the concatenation,
    which the fuse reads as column parts, upsampling the bin-size branches
    as it pads them. The pooled, projected branches are the whole-image
    part; a band's fuse reads one row above and below it."""

    def __init__(self, model: SegmentationModel, image_size: int) -> None:
        cfg = self.config = model.cfg
        self.bins = tuple(cfg.ppm_bins)
        self.branch_channels = max(1, cfg.in_channels // len(self.bins))
        self.projections = [model.draw(f"branch_{i}", Conv1x1Head.create,
                                       cfg.in_channels, self.branch_channels,
                                       bias=False)
                            for i in range(len(self.bins))]
        self.cat_channels = cfg.in_channels + self.branch_channels * len(self.bins)
        self.fuse = model.draw("fuse", TransformBlock.create, self.cat_channels,
                               cfg.mid_channels, 3)
        self.out_channels = cfg.mid_channels

    def prepare(self, x: FeatureMap, labels: LabelMap | None):
        parts = ppm_lite(x, self.bins, self.projections)
        return (lambda r0, r1: T.reshape(self.fuse(*parts, rows=(r0, r1)),
                                         (self.out_channels, (r1 - r0) * x.width))), None

    def flops(self, n: int) -> dict[str, int]:
        cfg = self.config
        out: dict[str, int] = {}
        for i, b in enumerate(self.bins):
            out[f"pool_{i}"] = F.pool_flops(cfg.in_channels, n, b * b)
            out[f"branch_{i}"] = F.conv1x1_flops(cfg.in_channels,
                                                 self.branch_channels, b * b)
        out["fuse"] = F.block_flops(self.cat_channels, cfg.mid_channels, n, kernel=3)
        return out


STAGES = {"ocr": RegionStage, "da": RegionStage, "acf": RegionStage,
          "gt_ocr": RegionStage, "self_attn": SelfAttentionStage,
          "global": GlobalStage, "aspp_lite": AsppStage, "ppm_lite": PpmStage}
MODULE_CHOICES = tuple(STAGES)


def build_model(cfg: ModelConfig, image_size: int = 64, rng=None) -> SegmentationModel:
    return SegmentationModel(cfg, STAGES[cfg.module], image_size, rng)


def full_scale_config(module: str, num_classes: int = 19) -> ModelConfig:
    """Widths of the published full-scale heads: 2048-channel input features,
    512 mid channels, 256 key channels, 64 regions for the double-attention
    style scheme."""
    return ModelConfig(module=module, in_channels=2048, num_classes=num_classes,
                       key_channels=256, mid_channels=512,
                       da_regions=64 if module == "da" else 0, use_stem=True)
