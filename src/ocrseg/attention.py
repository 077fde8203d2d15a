"""Scaled dot-product attention units and the correspondence between the
category-query attention pipeline and the region-context pipeline.

A decoder-style cross-attention whose queries are the region classifier's
rows reproduces soft region extraction and region pooling; an encoder-style
cross-attention from pixels onto those pooled outputs, with the value and
output transforms absorbed into the value projection and the feed-forward,
reproduces the contextual aggregation. The equivalence checker runs a no-stem
ocr region stage's own ``context`` (the code that trains) and this attention
form built from the same stage's blocks on one instance, and reports their
maximum discrepancy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import TransformBlock
from .context import FeatureMap
from .errors import ConfigError, ParameterError
from .models import RegionStage


def scaled_dot_attention(queries: T.Tensor, keys: T.Tensor, values: T.Tensor,
                         scale: float = 1.0) -> tuple[T.Tensor, T.Tensor]:
    """Softmax(scale * Q K^T) V for queries (Nq, d), keys (Nkv, d) and values
    (Nkv, dv). Returns (weights (Nq, Nkv), output (Nq, dv))."""
    weights = T.relation_softmax(T.transpose(queries), T.transpose(keys), scale)
    return weights, T.matmul(weights, values)


def decoder_cross_attention(image_features: T.Tensor,
                            queries: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Category queries (K, C) attend over pixels; keys and values are both
    the (N, C) image features. Returns (region_maps, region_reps): the
    pre-softmax logits (K, N) and the attention outputs (K, C).

    With queries equal to the region classifier's weight rows, region_maps
    equal that classifier's logits and region_reps equal the softly pooled
    region representations: the softmax runs at unit scale, as the region
    stage's does.
    """
    region_maps = T.matmul(queries, T.transpose(image_features))  # (K, N)
    weights = T.softmax_rows(region_maps)
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
    """The attention form borrows a no-stem ocr region stage: the region
    head's rows are the decoder's queries, the stage's key, value and output
    transforms are the encoder's projections and feed-forward. The encoder
    scale defaults to the stage's ``config.relation_scale``."""

    stage: RegionStage
    encoder_scale: float | None = None

    def __post_init__(self) -> None:
        cfg = self.stage.config
        if cfg.module != "ocr" or cfg.use_stem:
            raise ConfigError(f"equivalence mapping needs a no-stem ocr stage, got "
                              f"module={cfg.module!r} use_stem={cfg.use_stem}")
        if self.encoder_scale is None:
            self.encoder_scale = cfg.relation_scale

    @classmethod
    def from_params(cls, params,
                    encoder_scale: float | None = None) -> "EquivalenceMapping":
        """Map a region stage (``SegmentationModel.params``)."""
        return cls(params, encoder_scale)


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
                                  relation_scale: float | None = None
                                  ) -> EquivalenceReport:
    """Run the mapped stage's own ``context`` (its whole-image part, then its
    tail on the whole image) and its attention rephrasing on the same
    features and compare the contextual outputs.

    The stage's region softmax runs at unit scale and its relation softmax
    at ``config.relation_scale``; the attention path's decoder runs at unit
    scale and its encoder at the mapping's ``encoder_scale``. Equal scales
    must agree to ``tolerance``; a deliberate encoder-scale mismatch is
    diagnosed in the report detail. ``region_scale`` and ``relation_scale``
    only restate the stage's two scales and raise ``ParameterError`` when
    they differ; they are kept for the benchmark's call in
    ``perfbench/workloads.py`` and go at the next change to the benchmark.
    """
    stage = mapping.stage
    stage_scale = stage.config.relation_scale
    if region_scale != 1.0 or relation_scale not in (None, stage_scale):
        raise ParameterError(
            f"region_scale={region_scale!r}, relation_scale={relation_scale!r}: the "
            f"stage runs its region softmax at 1 and its relations at {stage_scale!r}")
    if stage.region_head.bias is not None:
        raise ConfigError("query correspondence requires a bias-free region head")

    tail, _ = stage.context(x, x, None)
    y_ctx = tail(x)  # the whole image as one band, as training runs it

    # Attention path: decoder over pixels, encoder back onto its outputs.
    feats_nc = T.transpose(x.pixels())  # (N, C)
    _, reps_att = decoder_cross_attention(feats_nc, stage.region_head.weight)
    pixel_q = T.transpose(stage.pixel_transform(x.pixels()))  # (N, key)
    region_k = T.transpose(stage.region_transform(T.transpose(reps_att)))  # (K, key)
    region_v = T.transpose(stage.value_transform(T.transpose(reps_att)))  # (K, Cv)
    y_att = encoder_cross_attention(pixel_q, region_k, region_v,
                                    stage.output_transform,
                                    scale=mapping.encoder_scale)  # (N, C_out)

    diff = float(np.abs(y_ctx.pixels().data - T.transpose(y_att).data).max())
    passed = diff <= tolerance
    if passed:
        detail = "paths agree under the mapped parameters"
    elif mapping.encoder_scale != stage_scale:
        detail = (f"scale mismatch: encoder scale {mapping.encoder_scale:g} vs "
                  f"relation scale {stage_scale:g}")
    else:
        detail = "paths disagree despite matching scales"
    return EquivalenceReport(diff, float(tolerance), passed, detail)
