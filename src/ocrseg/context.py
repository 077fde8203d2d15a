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
    """A (C, H, W) tensor of per-pixel features. ``top`` is the image row of
    its first row: 0 for a whole image, the band's offset for a band of one."""

    tensor: T.Tensor
    top: int = 0

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

    def band(self, r0: int, r1: int) -> "FeatureMap":
        """Rows r0:r1: the map itself when they are all of it, otherwise a
        leaf over a view of its buffer, which allocates nothing and records
        no gradient (a band of a no-grad forward)."""
        if (r0, r1) == (0, self.height):
            return self
        return FeatureMap(T.Tensor(self.tensor.data[:, r0:r1]), self.top + r0)


def _check_simplex_rows(mat: np.ndarray, exempt: Sequence[int], what: str,
                        first: int = 0) -> None:
    """Every row of ``mat`` sums to 1 within ``SIMPLEX_TOL`` (float32 rows:
    ``SIMPLEX_TOL_SINGLE``), except rows in ``exempt``, which must be all
    zero. A row holding NaN sums to no number and is flagged. Reports the
    first offending row, numbered from ``first``."""
    if mat.size == 0:
        return
    tol = SIMPLEX_TOL_SINGLE if mat.dtype == np.float32 else SIMPLEX_TOL
    if mat.min() < -tol:
        raise ParameterError(f"{what} contains negative weights")
    sums = T._reduce_rows(np.add, mat)[:, 0]
    deviation = np.abs(sums - 1.0)
    if not len(exempt) and deviation.max() <= tol:  # a NaN row fails the test
        return
    off = ~(deviation <= tol)
    flagged = np.unique(np.array([int(i) for i in exempt], dtype=np.int64))
    flagged = flagged[(flagged >= 0) & (flagged < mat.shape[0])]
    off[flagged] = False
    not_zero = flagged[np.any(mat[flagged] != 0.0, axis=1)]
    bad_sum = np.flatnonzero(off)
    if not_zero.size and (not bad_sum.size or not_zero[0] < bad_sum[0]):
        raise ParameterError(
            f"{what} row {first + not_zero[0]} is flagged empty but not zero")
    if bad_sum.size:
        i = bad_sum[0]
        raise ParameterError(f"{what} row {first + i} sums to {sums[i]!r}, expected 1")


@dataclass
class SoftRegionSet:
    """Per-region spatial weights: ``normalized`` (K, N), each row a
    distribution over pixels. Rows listed in ``empty_regions`` are all-zero
    (a region with no support)."""

    normalized: T.Tensor
    empty_regions: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_simplex_rows(self.normalized.data, self.empty_regions,
                            "SoftRegionSet.normalized")


@dataclass
class RelationMatrix:
    """Pixel-to-region relation weights: (N, K), each row a distribution.
    ``first`` is the image pixel of row 0 (a band's rows start past 0), so a
    failed check names the pixel in the image. Rows listed in ``zero_rows``
    are all-zero (e.g. ignored pixels)."""

    weights: T.Tensor
    first: int
    zero_rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_simplex_rows(self.weights.data, self.zero_rows, "RelationMatrix.weights",
                            self.first)


# ---------------------------------------------------------------------------
# pipeline stages


def compute_soft_regions(logits: T.Tensor, keep_logits: bool = True) -> SoftRegionSet:
    """The (K, N) region logits spatially softmaxed: each region row is a
    distribution over the image's pixels. Under no_grad, logits that nothing
    else reads (``keep_logits=False``) are normalised in place, in
    ``softmax_rows``' arithmetic, and the set holds their buffer."""
    if keep_logits or T._grad_enabled:
        return SoftRegionSet(T.softmax_rows(logits))
    T._normalize_rows(logits.data)
    return SoftRegionSet(logits)


def region_representations(x_pixels: T.Tensor, regions: SoftRegionSet) -> T.Tensor:
    """Weighted sum of pixel features per region, (K, N) @ (N, C), as a
    (C, K) view with one column per region: the layout the blocks read."""
    return T.transpose(T.matmul(regions.normalized, x_pixels))


def pixel_region_relations(x: FeatureMap, keys: T.Tensor, pixel_transform: TransformBlock,
                           scale: float) -> RelationMatrix:
    """Relation of every pixel to every region: softmax over regions of the
    scaled dot products of the pixels' queries with the (d, K) region
    ``keys``, which arrive already transformed (once per image)."""
    queries = pixel_transform(x.pixels())  # (d, N)
    weights = T.softmax_rows(T.matmul(T.transpose(queries), keys), scale)  # (N, K)
    return RelationMatrix(weights, x.top * x.width)


def ocr_aggregate(relations: RelationMatrix, values: T.Tensor,
                  output_transform: TransformBlock) -> T.Tensor:
    """Per pixel, the relation-weighted sum of the (C_v, K) region
    ``values``, which arrive already transformed (once per image), passed
    through the output transform: the (C, N) contextual representation y."""
    ctx = T.matmul(relations.weights, T.transpose(values))  # (N, C_v)
    return output_transform(T.transpose(ctx))


def augment(x: FeatureMap, y: T.Tensor, fuse_transform: TransformBlock) -> T.Tensor:
    """Fuse pixel and contextual features into a (C, N) matrix: g applied to
    their channel concat, which the block reads as two column parts without
    building it. A (C_y, 1) context ``y`` is one context for every pixel:
    the block adds its one product to every column."""
    return fuse_transform(x.pixels(), y)


def da_scheme_relations(feats: FeatureMap, predictor: Conv1x1Head) -> RelationMatrix:
    """Relations predicted from the pixel representation alone: softmax over
    regions of a pointwise head, no region features involved."""
    logits = predictor(feats.pixels())  # (K~, N)
    weights = T.softmax_rows(T.transpose(logits))
    return RelationMatrix(weights, feats.top * feats.width)


def acf_scheme_relations(logits: T.Tensor, first: int) -> RelationMatrix:
    """Relations read off the coarse classification posterior: per-pixel
    softmax over regions of the region classifier's (K, N) ``logits`` at the
    N pixels from image pixel ``first`` on."""
    weights = T.softmax_rows(T.transpose(logits))
    return RelationMatrix(weights, first)


# ---------------------------------------------------------------------------
# baseline context schemes


def self_attention_context(x: FeatureMap, pixel_transform: TransformBlock,
                           memory: tuple[T.Tensor, T.Tensor],
                           output_transform: TransformBlock,
                           scale: float) -> T.Tensor:
    """Dense pairwise context: every pixel of ``x`` attends over every pixel
    of ``memory``, the (d, N) keys and (C_v, N) values of the image that x is
    a band of (or is), then the output transform: a (C, N) context. The
    relation matrix is N x N, the quadratic-cost baseline; ``T.attend`` forms
    it a row block at a time. Its inputs are dropped once it returns, so a
    no-grad forward frees the queries before the output transform."""
    y = T.transpose(T.attend(pixel_transform(x.pixels()), *memory, scale))  # (C_v, N)
    return output_transform(y)


def global_context(x: FeatureMap, value_transform: TransformBlock,
                   output_transform: TransformBlock) -> T.Tensor:
    """Uniform relations: every pixel receives the same pooled context, the
    w = 1/N special case of relational aggregation and the 1 x 1 bin of the
    pooling pyramid. Returns that context once, as one (C, 1) column, which
    ``augment`` fuses into every pixel."""
    pooled = T.avg_pool2d(value_transform(x.tensor), 1, 1)  # (C_v, 1, 1)
    return output_transform(T.reshape(pooled, (pooled.shape[0], 1)))


def scaled_rates(base_rates: Sequence[int], height: int,
                 width: int) -> tuple[int, ...]:
    """Scale dilation rates set for a 64-pixel image to this image's size,
    flooring at 1."""
    factor = min(height, width) / 64.0
    return tuple(max(1, int(round(r * factor))) for r in base_rates)


def aspp_lite(x: FeatureMap, branches: Sequence[tuple[int, T.Tensor]],
              r0: int, r1: int) -> T.Tensor:
    """Multi-scale context from parallel dilated convs, one per (rate,
    (C_out, C_in, k, k) kernel) branch, each in its channel slice of one
    output, in branch order: the (C, (r1 - r0) * W) pixels of image rows
    r0:r1."""
    out = T.conv_spatial(x.tensor, branches, (r0, r1))
    return T.reshape(out, (out.shape[0], (r1 - r0) * x.width))


def ppm_lite(x: FeatureMap, bins: Sequence[int],
             projections: Sequence[Conv1x1Head]) -> list[T.Tensor]:
    """Pooling pyramid: per bin size, average-pool to bin x bin and project
    with a 1x1 conv. Returns x and the (C_b, bin, bin) branches as the column
    parts of their channel concatenation at x's size, which is never built:
    a kxk fuse nearest-upsamples each branch as it pads it."""
    limit = min(x.height, x.width)
    for b in bins:
        if b > limit:
            raise ConfigError(f"bin {b} exceeds the {x.height}x{x.width} input")
    return [x.tensor, *(proj(T.avg_pool2d(x.tensor, b, b))
                        for b, proj in zip(bins, projections))]
