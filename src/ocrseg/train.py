"""Training loop, evaluation metrics, ablation grid, checkpoints.

Everything here is deterministic given the run config: scene sampling, init,
and the update order all draw from seeded generators, and the emitted CSV and
checkpoint bytes are reproducible across runs on the same platform.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .config import RunConfig
from .context import FeatureMap
from .blocks import Sgd
from .data import SyntheticScene, lift_weights, scene_features, scene_label_map
from .errors import DataError, OcrsegError, TrainingDiverged
from .models import PRECISIONS, SegmentationModel, build_model
from .supervision import IGNORE_INDEX, LabelMap, combined_loss

ABLATION_SCHEMES = ("ocr", "da", "acf")
# The exponent of the poly learning-rate decay.
POLY_POWER = 0.9


def prepare_features(scenes: list[SyntheticScene],
                     cfg: RunConfig) -> list[tuple[FeatureMap, LabelMap]]:
    """Lift every scene once, in the run's precision, so a single-precision
    run computes in float32 throughout; training then reuses the cached
    tensors."""
    lift = lift_weights(cfg.seed, cfg.feat_channels)
    dtype = cfg.model_config().np_dtype
    pairs = []
    for scene in scenes:
        pairs.append((scene_features(scene, lift, dtype),
                      scene_label_map(scene, cfg.classes)))
    return pairs


@dataclass
class TrainRow:
    iteration: int
    lr: float
    loss: float


def train_model(cfg: RunConfig,
                pairs: list[tuple[FeatureMap, LabelMap]],
                ) -> tuple[SegmentationModel, list[TrainRow]]:
    if not pairs:
        raise DataError("no training scenes")
    model = build_model(cfg.model_config(), image_size=cfg.grid)
    opt = Sgd(model.parameters())
    order = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    rows = []
    for it in range(cfg.iterations):
        feats, labels = pairs[int(order.integers(len(pairs)))]
        out = model.forward(feats, labels)
        loss = combined_loss(out.final_logits, out.aux_logits, labels, cfg.loss)
        value = float(loss.data)
        if not math.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss {value} at iteration {it}")
        lr = cfg.base_lr * (1.0 - it / cfg.iterations) ** POLY_POWER
        T.backward(loss)
        opt.step(lr)
        opt.zero_grad()
        rows.append(TrainRow(it, lr, value))
    return model, rows


def train_log_csv(rows: list[TrainRow]) -> str:
    lines = ["iteration,lr,loss"]
    for r in rows:
        lines.append(f"{r.iteration},{r.lr:.10g},{r.loss:.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    pixel_accuracy: float
    mean_iou: float
    per_class_iou: tuple  # None for classes absent from both gt and pred
    confusion: np.ndarray  # (K, K), rows gt, cols predicted

    def csv(self) -> str:
        header = ["pixel_accuracy", "mean_iou"]
        row = [f"{self.pixel_accuracy:.6f}", f"{self.mean_iou:.6f}"]
        for k, iou in enumerate(self.per_class_iou):
            header.append(f"iou_{k}")
            row.append("" if iou is None else f"{iou:.6f}")
        return ",".join(header) + "\n" + ",".join(row) + "\n"


def evaluate_model(model: SegmentationModel,
                   pairs: list[tuple[FeatureMap, LabelMap]]) -> EvalResult:
    if not pairs:
        raise DataError("no evaluation scenes")
    num_classes = pairs[0][1].num_classes
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    with T.no_grad():
        for feats, labels in pairs:
            out = model.forward(feats, labels)
            # ties go to the lowest class index
            pred = np.argmax(out.final_logits.data, axis=0)
            gt = labels.labels.reshape(-1)
            valid = gt != IGNORE_INDEX
            np.add.at(conf, (gt[valid].astype(np.int64), pred[valid]), 1)
    total = int(conf.sum())
    if total == 0:
        raise DataError("every evaluation pixel is ignored")
    ious = []
    for k in range(num_classes):
        inter = int(conf[k, k])
        union = int(conf[k, :].sum() + conf[:, k].sum()) - inter
        ious.append(inter / union if union > 0 else None)
    present = [v for v in ious if v is not None]
    mean_iou = sum(present) / len(present) if present else 0.0
    return EvalResult(
        pixel_accuracy=float(np.trace(conf)) / total,
        mean_iou=mean_iou, per_class_iou=tuple(ious), confusion=conf)


# ---------------------------------------------------------------------------
# ablation grid: context scheme x auxiliary supervision, shared data and seeds


@dataclass
class AblationCell:
    scheme: str
    aux_supervision: bool
    mean_iou: float | None
    pixel_accuracy: float | None
    error: str | None = None


def run_ablation(cfg: RunConfig,
                 train_pairs: list[tuple[FeatureMap, LabelMap]],
                 eval_pairs: list[tuple[FeatureMap, LabelMap]]) -> list[AblationCell]:
    cells = []
    for aux in (True, False):
        for scheme in ABLATION_SCHEMES:
            run = replace(cfg, module=scheme, aux_weight=cfg.aux_weight if aux else 0.0)
            try:
                model, _ = train_model(run, train_pairs)
                result = evaluate_model(model, eval_pairs)
                cells.append(AblationCell(scheme, aux, result.mean_iou,
                                          result.pixel_accuracy))
            except OcrsegError as exc:  # a diverged da run fails in its relations
                cells.append(AblationCell(scheme, aux, None, None, str(exc)))
    return cells


def ablation_csv(cells: list[AblationCell]) -> str:
    by_key = {(c.scheme, c.aux_supervision): c for c in cells}
    lines = ["supervision," + ",".join(ABLATION_SCHEMES)]
    for aux, name in ((True, "with"), (False, "without")):
        row = [name]
        for scheme in ABLATION_SCHEMES:
            cell = by_key.get((scheme, aux))
            if cell is None or cell.mean_iou is None:
                row.append("")
            else:
                row.append(f"{cell.mean_iou:.4f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkpoints: tiny self-describing binary, byte-stable across runs

_CKPT_MAGIC = b"OCRSEG1\n"
_CKPT_DTYPES = tuple(np.dtype(d).name for d in PRECISIONS.values())
_CKPT_FIELDS = ("name", "shape", "dtype", "offset", "nbytes")


def save_checkpoint(path: str, model: SegmentationModel) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, param in model.named_parameters():
        raw = np.ascontiguousarray(param.data).tobytes()
        entries.append({"name": name, "shape": list(param.data.shape),
                        "dtype": str(param.data.dtype),
                        "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"format": 1, "entries": entries},
                        sort_keys=True).encode("ascii")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        f.write(b"".join(blobs))


def _entry_problem(entry) -> str | None:
    """Why a checkpoint header entry is malformed, or None when it is not."""
    if not isinstance(entry, dict) or any(f not in entry for f in _CKPT_FIELDS):
        return f"an entry lacks one of the fields {_CKPT_FIELDS}"
    name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
    counts = [entry["offset"], entry["nbytes"]] + (
        shape if isinstance(shape, list) else [None])
    if not isinstance(name, str) or not all(type(v) is int and v >= 0 for v in counts):
        return (f"entry {name!r} needs a string name and non-negative integer "
                f"shape, offset and nbytes")
    if dtype not in _CKPT_DTYPES:
        return f"entry {name!r} has dtype {dtype!r}, not one of {_CKPT_DTYPES}"
    if entry["nbytes"] != math.prod(shape) * np.dtype(dtype).itemsize:
        return f"entry {name!r} has nbytes that do not match its shape and dtype"
    return None


def load_checkpoint(path: str, model: SegmentationModel) -> None:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_CKPT_MAGIC):
        raise DataError(f"not a checkpoint file: {path}")
    start = len(_CKPT_MAGIC) + 8
    header_len = int.from_bytes(blob[len(_CKPT_MAGIC):start], "little")
    if len(blob) < start or header_len > len(blob) - start:
        raise DataError(f"checkpoint header runs past the end of the file: {path}")
    try:
        header = json.loads(blob[start:start + header_len].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"malformed checkpoint header in {path}: {exc}") from None
    entries = header.get("entries") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise DataError(f"malformed checkpoint header in {path}: no entry list")
    body = blob[start + header_len:]
    state = {}
    spans = []
    for entry in entries:
        problem = _entry_problem(entry)
        if problem is None and entry["name"] in state:
            problem = f"entry {entry['name']!r} repeats"
        if problem is not None:
            raise DataError(f"malformed checkpoint header in {path}: {problem}")
        offset, nbytes = entry["offset"], entry["nbytes"]
        if offset + nbytes > len(body):
            raise DataError(f"truncated checkpoint: {path}")
        if nbytes:
            spans.append((offset, offset + nbytes, entry["name"]))
        flat = np.frombuffer(body[offset:offset + nbytes],
                             dtype=np.dtype(entry["dtype"]))
        if not np.isfinite(flat).all():
            raise DataError(f"checkpoint entry {entry['name']!r} holds a "
                            f"non-finite value: {path}")
        state[entry["name"]] = flat.reshape(entry["shape"]).copy()
    spans.sort()  # by offset: an overlap shows between neighbours
    for (_, end, first), (begin, _, second) in zip(spans, spans[1:]):
        if begin < end:
            raise DataError(f"malformed checkpoint header in {path}: entries "
                            f"{first!r} and {second!r} overlap")
    model.load_state(state)
