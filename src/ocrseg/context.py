"""Context aggregation modules.

The main pipeline forms soft object regions from a pixel classifier, pools a
representation per region, relates every pixel to every region, and aggregates
region representations back into each pixel. Baseline schemes share the same
skeleton with different relation estimates (dense pairwise self-attention,
a global average, relations predicted from the pixel alone, relations taken
from the coarse classification posterior) or replace it outright (dilated-conv
and pooling pyramids).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .blocks import Conv1x1Head, Conv3x3Block, TransformBlock
from .errors import ConfigError, DimensionError, ParameterError

SIMPLEX_TOL = 1e-9


@dataclass
class FeatureMap:
    """A (C, H, W) tensor of per-pixel features."""

    tensor: T.Tensor

    def __post_init__(self) -> None:
        if self.tensor.data.ndim != 3:
            raise DimensionError(
                f"FeatureMap tensor must be (C, H, W), got {self.tensor.data.shape}")

    @property
    def channels(self) -> int:
        return self.tensor.shape[0]

    @property
    def height(self) -> int:
        return self.tensor.shape[1]

    @property
    def width(self) -> int:
        return self.tensor.shape[2]

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    def pixels(self) -> T.Tensor:
        """Flatten to a (C, N) matrix; pixel order is row-major."""
        return T.reshape(self.tensor, (self.channels, self.num_pixels))

    @classmethod
    def from_pixels(cls, pixels: T.Tensor, height: int, width: int) -> "FeatureMap":
        return cls(T.reshape(pixels, (pixels.shape[0], height, width)))


def _check_simplex_rows(mat: np.ndarray, exempt: Sequence[int], what: str) -> None:
    """Every row of ``mat`` sums to 1 within ``SIMPLEX_TOL``, except rows in
    ``exempt``, which must be all zero. Reports the first offending row."""
    if mat.size == 0:
        return
    if mat.min() < -SIMPLEX_TOL:
        raise ParameterError(f"{what} contains negative weights")
    sums = mat.sum(axis=1)
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    flagged = np.unique(np.array([int(i) for i in exempt], dtype=np.int64))
    flagged = flagged[(flagged >= 0) & (flagged < mat.shape[0])]
    off[flagged] = False
    not_zero = flagged[np.any(mat[flagged] != 0.0, axis=1)]
    bad_sum = np.flatnonzero(off)
    if not_zero.size and (not bad_sum.size or not_zero[0] < bad_sum[0]):
        raise ParameterError(f"{what} row {not_zero[0]} is flagged empty but not zero")
    if bad_sum.size:
        i = bad_sum[0]
        raise ParameterError(f"{what} row {i} sums to {sums[i]!r}, expected 1")


@dataclass
class SoftRegionSet:
    """Per-region spatial weights: ``logits`` (K, N) and ``normalized`` (K, N),
    each normalized row a distribution over pixels. Rows listed in
    ``empty_regions`` are all-zero (a region with no support)."""

    logits: T.Tensor
    normalized: T.Tensor
    height: int
    width: int
    empty_regions: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.logits.data.shape != self.normalized.data.shape:
            raise DimensionError(
                f"logits {self.logits.data.shape} and normalized "
                f"{self.normalized.data.shape} shapes differ")
        if self.normalized.data.shape[1] != self.height * self.width:
            raise DimensionError(
                f"normalized shape {self.normalized.data.shape} does not cover "
                f"{self.height}x{self.width} pixels")
        _check_simplex_rows(self.normalized.data, self.empty_regions,
                            "SoftRegionSet.normalized")

    @property
    def num_regions(self) -> int:
        return self.logits.shape[0]


@dataclass
class RegionReps:
    """One pooled representation per region: (K, C)."""

    reps: T.Tensor

    def __post_init__(self) -> None:
        if self.reps.data.ndim != 2:
            raise DimensionError(f"region reps must be (K, C), got {self.reps.data.shape}")

    @property
    def num_regions(self) -> int:
        return self.reps.shape[0]

    @property
    def channels(self) -> int:
        return self.reps.shape[1]


@dataclass
class RelationMatrix:
    """Pixel-to-region relation weights: (N, K), each row a distribution.
    Rows listed in ``zero_rows`` are all-zero (e.g. ignored pixels)."""

    weights: T.Tensor
    height: int
    width: int
    zero_rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.weights.data.ndim != 2:
            raise DimensionError(
                f"relation weights must be (N, K), got {self.weights.data.shape}")
        if self.weights.data.shape[0] != self.height * self.width:
            raise DimensionError(
                f"relation weights {self.weights.data.shape} do not cover "
                f"{self.height}x{self.width} pixels")
        _check_simplex_rows(self.weights.data, self.zero_rows, "RelationMatrix.weights")

    @property
    def num_regions(self) -> int:
        return self.weights.shape[1]


_SCALE_MODES = ("unit", "rsqrt_key")
_RELATION_SCHEMES = ("ocr", "da", "acf")


@dataclass
class OcrConfig:
    """Width and scheme settings for the region-context pipeline.

    ``attention_scale`` selects the relation-logit scale: ``unit`` leaves
    dot products unscaled, ``rsqrt_key`` divides by sqrt(key_channels).
    ``da_regions`` overrides the region count for the ``da`` relation scheme
    (0 means: use ``num_classes`` regions).
    """

    num_classes: int
    key_channels: int = 256
    mid_channels: int = 512
    attention_scale: str = "unit"
    relation_scheme: str = "ocr"
    da_regions: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.key_channels < 1 or self.mid_channels < 1:
            raise ConfigError("key_channels and mid_channels must be >= 1")
        if self.attention_scale not in _SCALE_MODES:
            raise ConfigError(f"attention_scale must be one of {_SCALE_MODES}, "
                              f"got {self.attention_scale!r}")
        if self.relation_scheme not in _RELATION_SCHEMES:
            raise ConfigError(f"relation_scheme must be one of {_RELATION_SCHEMES}, "
                              f"got {self.relation_scheme!r}")
        if self.da_regions < 0:
            raise ConfigError(f"da_regions must be >= 0, got {self.da_regions}")

    @property
    def relation_scale(self) -> float:
        if self.attention_scale == "unit":
            return 1.0
        return 1.0 / float(np.sqrt(self.key_channels))


@dataclass
class OcrParams:
    """Parameter bundle for ``ocr_forward``. ``stem`` is optional; when absent
    the pipeline reads the raw feature map. ``da_predictor`` and ``da_maps``
    exist only for the ``da`` relation scheme."""

    config: OcrConfig
    region_head: Conv1x1Head
    pixel_transform: TransformBlock | None
    region_transform: TransformBlock | None
    value_transform: TransformBlock
    output_transform: TransformBlock
    fuse_transform: TransformBlock
    stem: Conv3x3Block | None = None
    da_predictor: Conv1x1Head | None = None
    da_maps: Conv1x1Head | None = None

    def __post_init__(self) -> None:
        if self.config.relation_scheme == "ocr" and (
                self.pixel_transform is None or self.region_transform is None):
            raise ConfigError("the learned-relation scheme needs both the pixel "
                              "and region key transforms")


# ---------------------------------------------------------------------------
# pipeline stages


def compute_soft_regions(x: FeatureMap, head: Conv1x1Head,
                         temperature: float = 1.0) -> SoftRegionSet:
    """Classifier logits per region, spatially softmaxed: each region row is a
    distribution over the image's pixels."""
    if head.out_channels < 1:
        raise ConfigError("region head must produce at least one region")
    if head.in_channels != x.channels:
        raise DimensionError(
            f"region head expects {head.in_channels} channels, feature map has "
            f"{x.channels}")
    logits = head(x.pixels())  # (K, N)
    normalized = T.softmax_rows(logits, temperature=temperature)
    return SoftRegionSet(logits, normalized, x.height, x.width)


def region_representations(x_pixels: T.Tensor, regions: SoftRegionSet) -> RegionReps:
    """Weighted sum of pixel features per region: (K, N) @ (N, C) -> (K, C)."""
    if x_pixels.data.ndim != 2:
        raise DimensionError(f"x_pixels must be (N, C), got {x_pixels.data.shape}")
    if x_pixels.data.shape[0] != regions.normalized.data.shape[1]:
        raise DimensionError(
            f"pixel count mismatch: features {x_pixels.data.shape} vs regions "
            f"{regions.normalized.data.shape}")
    return RegionReps(T.matmul(regions.normalized, x_pixels))


def pixel_region_relations(x: FeatureMap, reps: RegionReps,
                           pixel_transform: TransformBlock | None,
                           region_transform: TransformBlock | None,
                           scale: float = 1.0) -> RelationMatrix:
    """Relation of every pixel to every region: softmax over regions of the
    scaled key-space dot products. ``None`` transforms mean identity."""
    if not np.isfinite(scale) or scale <= 0:
        raise ParameterError(f"relation scale must be finite and > 0, got {scale}")
    q = x.pixels() if pixel_transform is None else pixel_transform(x.pixels())
    k = transpose_reps(reps) if region_transform is None else region_transform(
        transpose_reps(reps))
    if q.data.shape[0] != k.data.shape[0]:
        raise DimensionError(
            f"pixel keys {q.data.shape} and region keys {k.data.shape} disagree "
            f"on key width")
    logits = T.matmul(T.transpose(q), k)  # (N, K)
    weights = T.softmax_rows(logits, temperature=1.0 / scale)
    return RelationMatrix(weights, x.height, x.width)


def transpose_reps(reps: RegionReps) -> T.Tensor:
    """Region reps as a (C, K) column-per-region matrix for block transforms."""
    return T.transpose(reps.reps)


def ocr_aggregate(relations: RelationMatrix, reps: RegionReps,
                  value_transform: TransformBlock | None,
                  output_transform: TransformBlock | None) -> FeatureMap:
    """Per pixel, the relation-weighted sum of transformed region reps, passed
    through the output transform: the contextual representation y."""
    if relations.num_regions != reps.num_regions:
        raise DimensionError(
            f"relations cover {relations.num_regions} regions, reps have "
            f"{reps.num_regions}")
    vals = transpose_reps(reps) if value_transform is None else value_transform(
        transpose_reps(reps))  # (C_v, K)
    ctx = T.matmul(relations.weights, T.transpose(vals))  # (N, C_v)
    y = T.transpose(ctx)
    if output_transform is not None:
        y = output_transform(y)
    return FeatureMap.from_pixels(y, relations.height, relations.width)


def augment(x: FeatureMap, y: FeatureMap, fuse_transform: TransformBlock) -> FeatureMap:
    """Fuse pixel and contextual features: g applied to their channel concat."""
    if (x.height, x.width) != (y.height, y.width):
        raise DimensionError(
            f"spatial sizes differ: {x.height}x{x.width} vs {y.height}x{y.width}")
    cat = T.concat0(x.pixels(), y.pixels())
    z = fuse_transform(cat)
    return FeatureMap.from_pixels(z, x.height, x.width)


def da_scheme_relations(feats: FeatureMap, predictor: Conv1x1Head) -> RelationMatrix:
    """Relations predicted from the pixel representation alone: softmax over
    regions of a pointwise head, no region features involved."""
    if predictor.in_channels != feats.channels:
        raise DimensionError(
            f"relation predictor expects {predictor.in_channels} channels, "
            f"features have {feats.channels}")
    logits = predictor(feats.pixels())  # (K~, N)
    weights = T.softmax_rows(T.transpose(logits))
    return RelationMatrix(weights, feats.height, feats.width)


def acf_scheme_relations(regions: SoftRegionSet) -> RelationMatrix:
    """Relations read off the coarse classification posterior: per-pixel
    softmax over regions of the same classifier logits."""
    weights = T.softmax_rows(T.transpose(regions.logits))
    return RelationMatrix(weights, regions.height, regions.width)


def ocr_forward(x: FeatureMap, params: OcrParams) -> tuple[FeatureMap, SoftRegionSet]:
    """Full pipeline: soft regions from the raw map, then region pooling,
    relations (scheme-dependent), aggregation, and fusion on the (optionally
    3x3-stemmed) pipeline features. Returns the augmented map and the region
    set (whose logits double as the coarse segmentation)."""
    cfg = params.config
    regions = compute_soft_regions(x, params.region_head)
    feats = x if params.stem is None else FeatureMap(params.stem(x.tensor))

    if cfg.relation_scheme == "da" and params.da_maps is not None:
        # Wider unsupervised region maps: the pipeline runs on these while the
        # supervised classifier above still feeds the auxiliary loss.
        pipeline_regions = compute_soft_regions(feats, params.da_maps)
    else:
        pipeline_regions = regions

    reps = region_representations(T.transpose(feats.pixels()), pipeline_regions)

    if cfg.relation_scheme == "ocr":
        relations = pixel_region_relations(
            feats, reps, params.pixel_transform, params.region_transform,
            scale=cfg.relation_scale)
    elif cfg.relation_scheme == "da":
        if params.da_predictor is None:
            raise ConfigError("relation_scheme 'da' requires a da_predictor head")
        relations = da_scheme_relations(feats, params.da_predictor)
    elif cfg.relation_scheme == "acf":
        relations = acf_scheme_relations(pipeline_regions)
    else:  # pragma: no cover - OcrConfig validates the scheme
        raise ConfigError(f"unknown relation scheme {cfg.relation_scheme!r}")

    y = ocr_aggregate(relations, reps, params.value_transform, params.output_transform)
    z = augment(feats, y, params.fuse_transform)
    return z, regions


# ---------------------------------------------------------------------------
# baseline context schemes


def self_attention_context(x: FeatureMap,
                           pixel_transform: TransformBlock | None,
                           context_transform: TransformBlock | None,
                           value_transform: TransformBlock | None,
                           output_transform: TransformBlock | None,
                           scale: float = 1.0,
                           return_relations: bool = False):
    """Dense pairwise context: every pixel attends over every pixel. The
    relation matrix is N x N, the quadratic-cost baseline."""
    if not np.isfinite(scale) or scale <= 0:
        raise ParameterError(f"attention scale must be finite and > 0, got {scale}")
    px = x.pixels()
    q = px if pixel_transform is None else pixel_transform(px)
    k = px if context_transform is None else context_transform(px)
    if q.data.shape[0] != k.data.shape[0]:
        raise DimensionError(
            f"query keys {q.data.shape} and context keys {k.data.shape} disagree")
    logits = T.matmul(T.transpose(q), k)  # (N, N)
    weights = T.softmax_rows(logits, temperature=1.0 / scale)
    vals = px if value_transform is None else value_transform(px)  # (C_v, N)
    ctx = T.matmul(weights, T.transpose(vals))  # (N, C_v)
    y = T.transpose(ctx)
    if output_transform is not None:
        y = output_transform(y)
    fm = FeatureMap.from_pixels(y, x.height, x.width)
    if return_relations:
        return fm, RelationMatrix(weights, x.height, x.width)
    return fm


def global_context(x: FeatureMap,
                   value_transform: TransformBlock | None,
                   output_transform: TransformBlock | None) -> FeatureMap:
    """Uniform relations: every pixel receives the same pooled context, the
    w = 1/N special case of relational aggregation."""
    px = x.pixels()
    vals = px if value_transform is None else value_transform(px)
    pooled = T.mean_cols(vals)  # (C_v, 1)
    y = pooled if output_transform is None else output_transform(pooled)
    y = T.tile_cols(y, x.num_pixels)
    return FeatureMap.from_pixels(y, x.height, x.width)


@dataclass
class DilatedConvSpec:
    """Parallel dilated convolutions: one square odd kernel per rate."""

    rates: tuple[int, ...]
    kernels: tuple[T.Tensor, ...]

    def __post_init__(self) -> None:
        if len(self.rates) != len(self.kernels):
            raise ConfigError(
                f"{len(self.rates)} rates but {len(self.kernels)} kernels")
        if not self.rates:
            raise ConfigError("at least one dilation rate is required")
        for rate in self.rates:
            if int(rate) < 1:
                raise ConfigError(f"dilation rates must be >= 1, got {rate}")
        for kern in self.kernels:
            if kern.data.ndim != 4 or kern.data.shape[2] != kern.data.shape[3]:
                raise ConfigError(
                    f"kernels must be (C_out, C_in, k, k), got {kern.data.shape}")
            if kern.data.shape[2] % 2 == 0:
                raise ConfigError(
                    f"kernel size must be odd, got {kern.data.shape[2]}")


def scaled_rates(base_rates: Sequence[int], height: int, width: int,
                 reference: int = 64) -> tuple[tuple[int, ...], bool]:
    """Scale dilation rates by image-size/reference, flooring at 1.
    Returns (rates, clipped_flag)."""
    factor = min(height, width) / float(reference)
    out = []
    clipped = False
    for r in base_rates:
        scaled = int(round(r * factor))
        if scaled < 1:
            scaled = 1
            clipped = True
        out.append(scaled)
    return tuple(out), clipped


def aspp_lite(x: FeatureMap, spec: DilatedConvSpec) -> FeatureMap:
    """Multi-scale context from parallel dilated convs, channel-concatenated."""
    branches = []
    for rate, kern in zip(spec.rates, spec.kernels):
        if kern.data.shape[1] != x.channels:
            raise DimensionError(
                f"kernel {kern.data.shape} does not match {x.channels} input channels")
        branches.append(T.conv_spatial(x.tensor, kern, dilation=rate))
    out = branches[0]
    for b in branches[1:]:
        out = T.concat0(out, b)
    return FeatureMap(out)


def ppm_lite(x: FeatureMap, bins: Sequence[int],
             projections: Sequence[Conv1x1Head]) -> FeatureMap:
    """Pooling pyramid: per bin size, average-pool to bin x bin, project with
    a 1x1 conv, nearest-upsample back, and concatenate with x."""
    bins = tuple(int(b) for b in bins)
    if len(bins) != len(projections):
        raise ConfigError(f"{len(bins)} bins but {len(projections)} projections")
    if not bins:
        raise ConfigError("at least one pooling bin is required")
    limit = min(x.height, x.width)
    for b in bins:
        if b < 1 or b > limit:
            raise ConfigError(f"bin {b} invalid for {x.height}x{x.width} input")
    out = x.tensor
    for b, proj in zip(bins, projections):
        pooled = T.avg_pool2d(x.tensor, b, b)
        projected = proj(pooled)
        up = T.upsample_nearest(projected, x.height, x.width)
        out = T.concat0(out, up)
    return FeatureMap(out)
