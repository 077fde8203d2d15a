"""Scaled dot-product attention units and the correspondence between the
category-query attention pipeline and the region-context pipeline.

A decoder-style cross-attention whose queries are the region classifier's
rows reproduces soft region extraction and region pooling; an encoder-style
cross-attention from pixels onto those pooled outputs, with the value and
output transforms absorbed into the value projection and the feed-forward,
reproduces the contextual aggregation. The equivalence checker runs both code
paths on the same instance and reports their maximum discrepancy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Conv1x1Head, TransformBlock
from .context import (FeatureMap, compute_soft_regions, ocr_aggregate,
                      pixel_region_relations, region_representations)
from .errors import ConfigError, ParameterError


def scaled_dot_attention(queries: T.Tensor, keys: T.Tensor, values: T.Tensor,
                         scale: float = 1.0) -> tuple[T.Tensor, T.Tensor]:
    """Softmax(scale * Q K^T) V for queries (Nq, d), keys (Nkv, d) and values
    (Nkv, dv). Returns (weights (Nq, Nkv), output (Nq, dv))."""
    weights = T.relation_softmax(T.transpose(queries), T.transpose(keys), scale)
    return weights, T.matmul(weights, values)


def decoder_cross_attention(image_features: T.Tensor, queries: T.Tensor,
                            scale: float = 1.0) -> tuple[T.Tensor, T.Tensor]:
    """Category queries (K, C) attend over pixels; keys and values are both
    the (N, C) image features. Returns (region_maps, region_reps): the
    pre-softmax logits (K, N) and the attention outputs (K, C).

    With queries equal to the region classifier's weight rows and scale 1,
    region_maps equal that classifier's logits and region_reps equal the
    softly pooled region representations.
    """
    # checked here because the softmax temperature below divides by it
    if not np.isfinite(scale) or scale <= 0:
        raise ParameterError(f"attention scale must be finite and > 0, got {scale}")
    region_maps = T.matmul(queries, T.transpose(image_features))  # (K, N)
    weights = T.softmax_rows(region_maps, temperature=1.0 / scale)
    return region_maps, T.matmul(weights, image_features)


def encoder_cross_attention(pixel_queries: T.Tensor, region_keys: T.Tensor,
                            region_values: T.Tensor, ffn: TransformBlock | None,
                            scale: float = 1.0) -> T.Tensor:
    """Pixels attend over the decoder's region outputs; the feed-forward plays
    the output transform. Returns the (N, C_out) contextual features."""
    _, ctx = scaled_dot_attention(pixel_queries, region_keys, region_values,
                                  scale)  # (N, dv)
    if ffn is None:
        return ctx
    return T.transpose(ffn(T.transpose(ctx)))


@dataclass
class EquivalenceMapping:
    """How the attention-form pipeline borrows the region pipeline's pieces.
    Every field must be mapped; the scales must be set explicitly."""

    queries: Conv1x1Head | None
    pixel_transform: TransformBlock | None
    region_transform: TransformBlock | None
    value_transform: TransformBlock | None
    output_transform: TransformBlock | None
    decoder_scale: float = 1.0
    encoder_scale: float = 1.0

    def validate(self) -> None:
        missing = [name for name in ("queries", "pixel_transform", "region_transform",
                                     "value_transform", "output_transform")
                   if getattr(self, name) is None]
        if missing:
            raise ConfigError("unmapped transform(s) in equivalence mapping: "
                              + ", ".join(missing))

    @classmethod
    def from_params(cls, params,
                    encoder_scale: float | None = None) -> "EquivalenceMapping":
        """Map a region stage (``SegmentationModel.params``); the encoder scale
        defaults to its ``config.relation_scale``."""
        if encoder_scale is None:
            encoder_scale = params.config.relation_scale
        return cls(queries=params.region_head,
                   pixel_transform=params.pixel_transform,
                   region_transform=params.region_transform,
                   value_transform=params.value_transform,
                   output_transform=params.output_transform,
                   encoder_scale=encoder_scale)


@dataclass
class EquivalenceReport:
    max_abs_discrepancy: float
    tolerance: float
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] max |y_context - y_attention| = "
                f"{self.max_abs_discrepancy:.3e} (tolerance {self.tolerance:.1e}); "
                f"{self.detail}")


def transformer_equivalence_check(x: FeatureMap, mapping: EquivalenceMapping,
                                  tolerance: float = 1e-10,
                                  region_scale: float = 1.0,
                                  relation_scale: float = 1.0) -> EquivalenceReport:
    """Run the region-context pipeline and its attention rephrasing on the
    same features and compare the contextual outputs.

    ``region_scale``/``relation_scale`` drive the region pipeline's two
    softmaxes; the mapping's decoder/encoder scales drive the attention path.
    Equal scales must agree to ``tolerance``. A deliberate scale mismatch is
    diagnosed in the report detail.
    """
    mapping.validate()
    if mapping.queries.bias is not None:
        raise ConfigError("query correspondence requires a bias-free region head")

    # Region-context path.
    regions = compute_soft_regions(x, mapping.queries, temperature=1.0 / region_scale)
    reps = region_representations(T.transpose(x.pixels()), regions)
    relations = pixel_region_relations(x, reps, mapping.pixel_transform,
                                       mapping.region_transform, scale=relation_scale)
    y_ctx = ocr_aggregate(relations, reps, mapping.value_transform,
                          mapping.output_transform)

    # Attention path: decoder over pixels, encoder back onto its outputs.
    feats_nc = T.transpose(x.pixels())  # (N, C)
    _, reps_att = decoder_cross_attention(feats_nc, mapping.queries.weight,
                                          scale=mapping.decoder_scale)
    pixel_q = T.transpose(mapping.pixel_transform(x.pixels()))  # (N, key)
    region_k = T.transpose(mapping.region_transform(T.transpose(reps_att)))  # (K, key)
    region_v = T.transpose(mapping.value_transform(T.transpose(reps_att)))  # (K, Cv)
    y_att = encoder_cross_attention(pixel_q, region_k, region_v,
                                    mapping.output_transform,
                                    scale=mapping.encoder_scale)  # (N, C_out)

    diff = float(np.abs(y_ctx.pixels().data - T.transpose(y_att).data).max())
    passed = diff <= tolerance
    if passed:
        detail = "paths agree under the mapped parameters"
    else:
        mismatches = []
        if mapping.decoder_scale != region_scale:
            mismatches.append(
                f"decoder scale {mapping.decoder_scale:g} vs region softmax scale "
                f"{region_scale:g}")
        if mapping.encoder_scale != relation_scale:
            mismatches.append(
                f"encoder scale {mapping.encoder_scale:g} vs relation scale "
                f"{relation_scale:g}")
        detail = ("scale mismatch: " + "; ".join(mismatches)) if mismatches else \
            "paths disagree despite matching scales"
    return EquivalenceReport(diff, float(tolerance), passed, detail)
