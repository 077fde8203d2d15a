"""Synthetic segmentation scenes and their on-disk form.

Scenes are flat-colored shapes (rectangles and discs) on a background, with
per-scene color jitter and per-pixel noise, quantized to 8 bits at generation
time so the raw image bytes round-trip exactly through the portable pixmap
files. Features are a fixed seeded linear lift of the colors plus coordinate
channels; models never see raw RGB directly.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .context import FeatureMap
from .errors import DataError, OcrsegError
from .supervision import IGNORE_INDEX, LabelMap

# Base colors per class (background first). Classes 2 and 3 are deliberately
# close to each other (and only to each other) so per-pixel evidence leaves
# residual confusion that region-level context can resolve.
PALETTE = np.array([
    (120, 120, 120),
    (204, 72, 64),
    (70, 158, 92),
    (100, 184, 66),
    (64, 96, 180),
    (190, 170, 60),
    (150, 70, 160),
    (230, 220, 210),
], dtype=np.float64)

COORD_CHANNELS = 2

# Scene-shape limits: one palette color per class, and shapes need room.
MIN_CLASSES, MAX_CLASSES = 2, PALETTE.shape[0]
MIN_GRID = 8


def scene_shape_problem(grid: int, num_classes: int) -> str | None:
    """Why scenes of this grid side and class count cannot be generated, or
    None when they can."""
    if not MIN_CLASSES <= num_classes <= MAX_CLASSES:
        return (f"num_classes must be in [{MIN_CLASSES}, {MAX_CLASSES}], "
                f"got {num_classes}")
    if grid < MIN_GRID:
        return f"grid must be >= {MIN_GRID}, got {grid}"
    return None


@dataclass
class SyntheticScene:
    """One scene: 8-bit RGB image (H, W, 3) and integer labels (H, W)."""

    image: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.image.ndim != 3 or self.image.shape[2] != 3:
            raise DataError(f"image must be (H, W, 3), got {self.image.shape}")
        if self.image.dtype != np.uint8 or self.labels.dtype != np.uint8:
            raise DataError("image and labels must be uint8")
        if self.labels.shape != self.image.shape[:2]:
            raise DataError(
                f"labels {self.labels.shape} do not match image {self.image.shape}")

    @property
    def height(self) -> int:
        return self.image.shape[0]

    @property
    def width(self) -> int:
        return self.image.shape[1]


def generate_scene(rng: np.random.Generator, grid: int, num_classes: int,
                   noise: float, jitter: float, shapes_min: int, shapes_max: int,
                   ignore_fraction: float) -> SyntheticScene:
    """Place shapes_min..shapes_max random shapes; overlaps belong to the
    later shape. ``noise`` and ``jitter`` are 8-bit color units."""
    problem = scene_shape_problem(grid, num_classes)
    if problem is not None:
        raise DataError(problem)
    labels = np.zeros((grid, grid), dtype=np.uint8)
    scene_colors = PALETTE[:num_classes] + rng.normal(0.0, jitter, (num_classes, 3))
    count = int(rng.integers(shapes_min, shapes_max + 1))
    yy, xx = np.mgrid[0:grid, 0:grid]
    for _ in range(count):
        cls = int(rng.integers(1, num_classes))
        kind = int(rng.integers(0, 2))
        size = int(rng.integers(max(4, grid // 5), max(6, grid // 2)))
        cy = int(rng.integers(0, grid))
        cx = int(rng.integers(0, grid))
        if kind == 0:  # rectangle
            mask = (np.abs(yy - cy) <= size // 2) & (np.abs(xx - cx) <= size // 2)
        else:  # disc
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (size // 2) ** 2
        labels[mask] = cls
    image = scene_colors[labels] + rng.normal(0.0, noise, (grid, grid, 3))
    image = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    labels = labels.astype(np.uint8)
    if ignore_fraction > 0.0:
        drop = rng.random((grid, grid)) < ignore_fraction
        labels[drop] = IGNORE_INDEX
    return SyntheticScene(image, labels)


def generate_scenes(seed: int, count: int, grid: int, num_classes: int,
                    noise: float, jitter: float, shapes_min: int, shapes_max: int,
                    ignore_fraction: float, stream: int) -> list[SyntheticScene]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
    return [generate_scene(rng, grid, num_classes, noise, jitter,
                           shapes_min, shapes_max, ignore_fraction)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# portable pixmap / graymap I/O


# The binary variants read and written, maxval 255, and each one's trailing
# array axes: RGB for the P6 images, none for the P5 labels (255: ignored).
_PNM_AXES = {b"P6": (3,), b"P5": ()}


def write_pnm(path: str, magic: bytes, pixels: np.ndarray) -> None:
    """Write (H, W, *axes) uint8 ``pixels`` as the binary variant ``magic``."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def read_pnm(path: str, magic: bytes) -> np.ndarray:
    """The (H, W, *axes) uint8 array of the binary ``magic`` file at ``path``."""
    with open(path, "rb") as f:
        found = f.read(2)
        if found != magic:
            raise DataError(f"{path}: magic {found!r}, expected {magic!r}")
        fields = []
        while len(fields) < 3:
            line = f.readline()
            if not line:
                raise DataError(f"{path}: truncated pixmap header")
            fields.extend(line.split(b"#", 1)[0].split())
        if not all(v.isdigit() for v in fields[:3]):
            raise DataError(f"{path}: pixmap header fields {fields[:3]!r} are not "
                            f"all non-negative integers")
        w, h, maxval = (int(v) for v in fields[:3])
        if maxval != 255:
            raise DataError(f"{path}: unsupported maxval {maxval}; expected 255")
        if w < 1 or h < 1:
            raise DataError(f"{path}: empty pixmap: {w}x{h}; width and height "
                            f"must be at least 1")
        shape = (h, w, *_PNM_AXES[magic])
        # the header's claim is checked against the bytes the file has left
        # before anything is read
        count = math.prod(shape)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if count > left:
            raise DataError(f"{path}: expected {count} pixel bytes, got {max(left, 0)}")
        raw = f.read(count)
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape).copy()


MANIFEST_NAME = "manifest.txt"


def write_dataset(out_dir: str, train: list[SyntheticScene],
                  eval_scenes: list[SyntheticScene]) -> str:
    """Write scenes as image/label pairs plus a manifest; returns its path.
    Manifest lines: ``<split> <image path> <label path>`` relative to out_dir."""
    lines = []
    for split, scenes in (("train", train), ("eval", eval_scenes)):
        split_dir = os.path.join(out_dir, split)
        os.makedirs(split_dir, exist_ok=True)
        for i, scene in enumerate(scenes):
            img_rel = f"{split}/scene_{i:04d}.ppm"
            lab_rel = f"{split}/scene_{i:04d}.pgm"
            write_pnm(os.path.join(out_dir, img_rel), b"P6", scene.image)
            write_pnm(os.path.join(out_dir, lab_rel), b"P5", scene.labels)
            lines.append(f"{split} {img_rel} {lab_rel}")
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return manifest


def read_text_lines(path: str, error: type[OcrsegError]) -> list[str]:
    """The lines of the UTF-8 text file at ``path``; bytes that do not
    decode raise ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte "
                    f"{exc.start}") from None


def load_dataset(data_dir: str) -> dict[str, list[SyntheticScene]]:
    manifest = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise DataError(f"no manifest at {manifest}")
    root = os.path.realpath(data_dir)
    out: dict[str, list[SyntheticScene]] = {"train": [], "eval": []}
    for lineno, line in enumerate(read_text_lines(manifest, DataError), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{manifest}:{lineno}: expected 3 fields, "
                            f"got {len(parts)}")
        split, img_rel, lab_rel = parts
        if split not in out:
            raise DataError(f"{manifest}:{lineno}: unknown split {split!r}")
        paths = [os.path.realpath(os.path.join(root, p)) for p in (img_rel, lab_rel)]
        if any(os.path.commonpath([root, path]) != root for path in paths):
            raise DataError(f"{manifest}:{lineno}: a scene path leaves {data_dir}")
        out[split].append(SyntheticScene(read_pnm(paths[0], b"P6"),
                                         read_pnm(paths[1], b"P5")))
    if not out["train"] and not out["eval"]:
        raise DataError(f"{manifest} lists no scenes")
    return out


# ---------------------------------------------------------------------------
# feature lift


def lift_weights(seed: int, feat_channels: int) -> np.ndarray:
    """The fixed random color lift (feat_channels x 3), derived from the run
    seed so training and evaluation agree without persisting it."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x11F7)))
    return rng.uniform(-1.0, 1.0, size=(feat_channels, 3))


def scene_features(scene: SyntheticScene, lift: np.ndarray,
                   dtype=np.float64) -> FeatureMap:
    """Lifted colors plus two coordinate channels in [0, 1], formed in
    float64 and held in ``dtype``."""
    h, w = scene.height, scene.width
    colors = scene.image.reshape(-1, 3).T.astype(np.float64) / 255.0 - 0.5
    lifted = lift @ colors  # (C_feat, N)
    ys = np.repeat(np.linspace(0.0, 1.0, h), w)[None, :]
    xs = np.tile(np.linspace(0.0, 1.0, w), h)[None, :]
    feats = np.concatenate([lifted, ys, xs], axis=0)
    c = feats.shape[0]
    return FeatureMap(T.Tensor(feats.reshape(c, h, w), dtype=dtype))


def scene_label_map(scene: SyntheticScene, num_classes: int) -> LabelMap:
    return LabelMap(scene.labels.astype(np.int64), num_classes)
