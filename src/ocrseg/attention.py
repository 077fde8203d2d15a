"""The correspondence between the category-query attention pipeline and the
region-context pipeline, stated as two attention calls.

A decoder cross-attention whose queries are the region classifier's rows,
over the pixels as keys and values, reproduces soft region extraction and
region pooling; an encoder cross-attention from the pixels' queries onto
those pooled outputs, with the value and output transforms as the value
projection and the feed-forward, reproduces the contextual aggregation. The
equivalence checker runs a no-stem ocr region stage's own ``context`` (the
code that trains) and this attention form, in NumPy around the same stage's
blocks, on one instance, and reports their maximum discrepancy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .context import FeatureMap
from .errors import ConfigError, ParameterError
from .models import RegionStage


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


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """softmax(scale * q^T k) v^T of (d, N) queries, (d, M) keys and (C_v, M)
    values in plain NumPy, sharing no kernel with the stage it checks."""
    logits = scale * (q.T @ k)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v.T


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

    tail, _ = stage.context(x, x, None)
    y_ctx = tail(x)  # the whole image as one band, as training runs it

    # Attention path: the decoder's category queries attend over the pixels,
    # then the pixels' queries attend over the decoder's (K, C) outputs.
    pixels = x.pixels()  # (C, N)
    reps = T.Tensor(_attend(stage.region_head.weight.data.T, pixels.data, pixels.data,
                            1.0).T)  # (C, K)
    ctx = _attend(stage.pixel_transform(pixels).data, stage.region_transform(reps).data,
                  stage.value_transform(reps).data, mapping.encoder_scale)  # (N, Cv)
    y_att = stage.output_transform(T.Tensor(ctx.T))  # (C_out, N)

    diff = float(np.abs(y_ctx.data - y_att.data).max())
    passed = diff <= tolerance
    if passed:
        detail = "paths agree under the mapped parameters"
    elif mapping.encoder_scale != stage_scale:
        detail = (f"scale mismatch: encoder scale {mapping.encoder_scale:g} vs "
                  f"relation scale {stage_scale:g}")
    else:
        detail = "paths disagree despite matching scales"
    return EquivalenceReport(diff, float(tolerance), passed, detail)
