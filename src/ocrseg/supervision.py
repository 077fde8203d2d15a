"""Ground-truth region oracles and pixel-wise losses."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .context import RelationMatrix, SoftRegionSet
from .errors import ConfigError, DataError, DimensionError
from .tensor import IGNORE_INDEX


@dataclass
class LabelMap:
    """Integer class labels per pixel, (H, W); ``IGNORE_INDEX`` marks pixels
    excluded from losses, metrics, and ground-truth regions."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise DimensionError(f"labels must be (H, W), got {self.labels.shape}")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise DataError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        flat = self.labels.ravel()
        bad = flat[(flat != IGNORE_INDEX) & ((flat < 0) | (flat >= self.num_classes))]
        if bad.size:
            raise DataError(
                f"label {int(bad[0])} outside [0, {self.num_classes}) and not "
                f"ignore_index {IGNORE_INDEX}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.labels.ravel()


@dataclass
class LossConfig:
    """Weight of the auxiliary pixel-wise cross entropy; the final one's is 1."""

    aux_weight: float = 0.4

    def __post_init__(self) -> None:
        if self.aux_weight < 0:
            raise ConfigError(f"aux_weight must be >= 0, got {self.aux_weight}")


def gt_regions(labels: LabelMap, dtype=np.float64) -> SoftRegionSet:
    """Ground-truth regions, spatially normalized: row k weights the pixels
    labeled k uniformly (1/count, divided in ``dtype``, the precision of the
    features they pool). Classes with no pixels yield an all-zero row and are
    flagged; ignored pixels belong to no region."""
    flat = labels.flat
    pixels = np.flatnonzero(flat != IGNORE_INDEX)
    counts = np.bincount(flat[pixels], minlength=labels.num_classes).astype(dtype)
    normalized = np.zeros((labels.num_classes, flat.size), dtype=dtype)
    normalized[flat[pixels], pixels] = 1 / counts[flat[pixels]]
    empty = tuple(int(c) for c in np.flatnonzero(counts == 0))
    return SoftRegionSet(T.Tensor(normalized), empty)


def gt_relations(labels: LabelMap, dtype=np.float64, top: int = 0,
                 bottom: int | None = None) -> RelationMatrix:
    """One-hot ground-truth relations of the pixels in label rows top:bottom
    (all of them by default): pixel i relates only to the region of its own
    label. Ignored pixels get a zero row and are flagged. The matrix takes
    ``dtype``, as ``gt_regions`` does."""
    k = labels.num_classes
    rows = labels.labels[top:bottom]
    flat = rows.ravel()
    n = flat.size
    weights = np.zeros((n, k), dtype=dtype)
    valid = flat != IGNORE_INDEX
    weights[np.where(valid)[0], flat[valid]] = 1.0
    zero_rows = tuple(int(i) for i in np.where(~valid)[0])
    return RelationMatrix(T.Tensor(weights), top * labels.width, zero_rows)


def combined_loss(final_logits: T.Tensor, aux_logits: T.Tensor | None,
                  labels: LabelMap, cfg: LossConfig) -> T.Tensor:
    """CE(final) + aux_weight * CE(aux), as one op. ``aux_logits`` may be
    None (models without a coarse head), dropping the auxiliary term."""
    terms = [(final_logits, 1.0)]
    if aux_logits is not None and cfg.aux_weight > 0:
        terms.append((aux_logits, cfg.aux_weight))
    for logits, _ in terms:
        if logits.data.shape[0] < labels.num_classes:
            raise DimensionError(
                f"{logits.data.shape[0]} logit rows for {labels.num_classes} classes")
    return T.cross_entropy_logits(terms, labels.flat)
