"""Context aggregation modules.

The main pipeline forms soft object regions from a pixel classifier, pools a
representation per region, relates every pixel to every region, and aggregates
region representations back into each pixel. Baseline schemes share the same
skeleton with different relation estimates (dense pairwise self-attention,
a global average, relations predicted from the pixel alone, relations taken
from the coarse classification posterior) or replace it outright (dilated-conv
and pooling pyramids). ``models.RegionStage`` runs the main pipeline's stages.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .blocks import Conv1x1Head, TransformBlock
from .errors import ConfigError, DimensionError, ParameterError

SIMPLEX_TOL = 1e-9
# float32 softmax rows miss 1 by up to a few 1e-7 (3.6e-7 measured at
# N <= 16,384), far above the float64 tolerance
SIMPLEX_TOL_SINGLE = 1e-5


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
    """Every row of ``mat`` sums to 1 within ``SIMPLEX_TOL`` (float32 rows:
    ``SIMPLEX_TOL_SINGLE``), except rows in ``exempt``, which must be all
    zero. Reports the first offending row."""
    if mat.size == 0:
        return
    tol = SIMPLEX_TOL_SINGLE if mat.dtype == np.float32 else SIMPLEX_TOL
    if mat.min() < -tol:
        raise ParameterError(f"{what} contains negative weights")
    sums = mat.sum(axis=1)
    off = np.abs(sums - 1.0) > tol
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


# ---------------------------------------------------------------------------
# pipeline stages


def compute_soft_regions(x: FeatureMap, head: Conv1x1Head) -> SoftRegionSet:
    """Classifier logits per region, spatially softmaxed: each region row is a
    distribution over the image's pixels."""
    logits = head(x.pixels())  # (K, N)
    normalized = T.softmax_rows(logits)
    return SoftRegionSet(logits, normalized, x.height, x.width)


def region_representations(x_pixels: T.Tensor, regions: SoftRegionSet) -> RegionReps:
    """Weighted sum of pixel features per region: (K, N) @ (N, C) -> (K, C)."""
    return RegionReps(T.matmul(regions.normalized, x_pixels))


def pixel_region_relations(x: FeatureMap, reps: RegionReps,
                           pixel_transform: TransformBlock | None,
                           region_transform: TransformBlock | None,
                           scale: float = 1.0) -> RelationMatrix:
    """Relation of every pixel to every region: softmax over regions of the
    scaled key-space dot products. ``None`` transforms mean identity."""
    q = x.pixels() if pixel_transform is None else pixel_transform(x.pixels())
    k = transpose_reps(reps) if region_transform is None else region_transform(
        transpose_reps(reps))
    weights = T.relation_softmax(q, k, scale)  # (N, K)
    return RelationMatrix(weights, x.height, x.width)


def transpose_reps(reps: RegionReps) -> T.Tensor:
    """Region reps as a (C, K) column-per-region matrix for block transforms."""
    return T.transpose(reps.reps)


def ocr_aggregate(relations: RelationMatrix, reps: RegionReps,
                  value_transform: TransformBlock | None,
                  output_transform: TransformBlock | None) -> FeatureMap:
    """Per pixel, the relation-weighted sum of transformed region reps, passed
    through the output transform: the contextual representation y."""
    vals = transpose_reps(reps) if value_transform is None else value_transform(
        transpose_reps(reps))  # (C_v, K)
    ctx = T.matmul(relations.weights, T.transpose(vals))  # (N, C_v)
    y = T.transpose(ctx)
    if output_transform is not None:
        y = output_transform(y)
    return FeatureMap.from_pixels(y, relations.height, relations.width)


def augment(x: FeatureMap, y: FeatureMap, fuse_transform: TransformBlock) -> FeatureMap:
    """Fuse pixel and contextual features: g applied to their channel concat,
    which the block reads as two column parts without building it."""
    if (x.height, x.width) != (y.height, y.width):
        raise DimensionError(
            f"spatial sizes differ: {x.height}x{x.width} vs {y.height}x{y.width}")
    z = fuse_transform(x.pixels(), y.pixels())
    return FeatureMap.from_pixels(z, x.height, x.width)


def da_scheme_relations(feats: FeatureMap, predictor: Conv1x1Head) -> RelationMatrix:
    """Relations predicted from the pixel representation alone: softmax over
    regions of a pointwise head, no region features involved."""
    logits = predictor(feats.pixels())  # (K~, N)
    weights = T.softmax_rows(T.transpose(logits))
    return RelationMatrix(weights, feats.height, feats.width)


def acf_scheme_relations(regions: SoftRegionSet) -> RelationMatrix:
    """Relations read off the coarse classification posterior: per-pixel
    softmax over regions of the same classifier logits."""
    weights = T.softmax_rows(T.transpose(regions.logits))
    return RelationMatrix(weights, regions.height, regions.width)


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
    px = x.pixels()
    q = px if pixel_transform is None else pixel_transform(px)
    k = px if context_transform is None else context_transform(px)
    weights = T.relation_softmax(q, k, scale)  # (N, N)
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
    w = 1/N special case of relational aggregation and the 1 x 1 bin of the
    pooling pyramid."""
    vals = x.tensor if value_transform is None else value_transform(x.tensor)
    pooled = T.avg_pool2d(vals, 1, 1)  # (C_v, 1, 1)
    y = pooled if output_transform is None else output_transform(pooled)
    return FeatureMap(T.upsample_nearest(y, x.height, x.width))


def scaled_rates(base_rates: Sequence[int], height: int,
                 width: int) -> tuple[int, ...]:
    """Scale dilation rates set for a 64-pixel image to this image's size,
    flooring at 1."""
    factor = min(height, width) / 64.0
    return tuple(max(1, int(round(r * factor))) for r in base_rates)


def aspp_lite(x: FeatureMap,
              branches: Sequence[tuple[int, T.Tensor]]) -> FeatureMap:
    """Multi-scale context from parallel dilated convs, one per (rate,
    (C_out, C_in, k, k) kernel) branch, channel-concatenated."""
    return FeatureMap(T.concat0(*(T.conv_spatial(x.tensor, kern, dilation=rate)
                                  for rate, kern in branches)))


def ppm_lite(x: FeatureMap, bins: Sequence[int],
             projections: Sequence[Conv1x1Head]) -> FeatureMap:
    """Pooling pyramid: per bin size, average-pool to bin x bin, project with
    a 1x1 conv, nearest-upsample back, and concatenate with x."""
    bins = tuple(int(b) for b in bins)
    limit = min(x.height, x.width)
    for b in bins:
        if b < 1 or b > limit:
            raise ConfigError(f"bin {b} invalid for {x.height}x{x.width} input")
    ups = [T.upsample_nearest(proj(T.avg_pool2d(x.tensor, b, b)), x.height, x.width)
           for b, proj in zip(bins, projections)]
    return FeatureMap(T.concat0(x.tensor, *ups))
