"""Synthetic scene generation, pixmap round-trips, dataset manifests, and the
seeded feature lift."""
import numpy as np
import pytest

from ocrseg.config import RunConfig
from ocrseg.data import (COORD_CHANNELS, PALETTE, SyntheticScene,
                         generate_scene, generate_scenes, lift_weights,
                         load_dataset, read_pnm, scene_features,
                         scene_label_map, write_dataset, write_pnm)
from ocrseg.errors import DataError
from ocrseg.supervision import IGNORE_INDEX

_RUN = RunConfig()
# the scene settings of a default run, which the generator no longer restates
RUN_SCENE = {key: getattr(_RUN, key) for key in
             ("noise", "jitter", "shapes_min", "shapes_max", "ignore_fraction")}


def scene_of(rng, grid, num_classes, **settings):
    """``generate_scene`` at a default run's settings, but for ``settings``."""
    return generate_scene(rng, grid, num_classes, **{**RUN_SCENE, **settings})


def scenes_of(seed, count, grid, num_classes, stream=0):
    """``generate_scenes`` at a default run's settings."""
    return generate_scenes(seed, count, grid, num_classes, **RUN_SCENE, stream=stream)


def replay_scene(seed, grid, num_classes, noise, jitter, smin, smax):
    """Re-run the generator's draw sequence and rasterize with scalar loops:
    shapes drawn in order, each pixel taking the latest covering shape."""
    rng = np.random.default_rng(seed)
    colors = PALETTE[:num_classes] + rng.normal(0.0, jitter, (num_classes, 3))
    count = int(rng.integers(smin, smax + 1))
    shapes = []
    for _ in range(count):
        cls = int(rng.integers(1, num_classes))
        kind = int(rng.integers(0, 2))
        size = int(rng.integers(max(4, grid // 5), max(6, grid // 2)))
        cy = int(rng.integers(0, grid))
        cx = int(rng.integers(0, grid))
        shapes.append((cls, kind, size, cy, cx))
    labels = np.zeros((grid, grid), dtype=np.uint8)
    for y in range(grid):
        for x in range(grid):
            for cls, kind, size, cy, cx in shapes:
                half = size // 2
                if kind == 0:
                    hit = abs(y - cy) <= half and abs(x - cx) <= half
                else:
                    hit = (y - cy) ** 2 + (x - cx) ** 2 <= half * half
                if hit:
                    labels[y, x] = cls
    pixel_noise = rng.normal(0.0, noise, (grid, grid, 3))
    image = np.clip(np.rint(colors[labels] + pixel_noise), 0, 255).astype(np.uint8)
    return image, labels


class TestGenerateScene:
    def test_matches_rasterization_replay(self):
        for seed in (11, 12, 13):
            scene = scene_of(np.random.default_rng(seed), 16, 4,
                             noise=20.0, jitter=5.0, shapes_min=2, shapes_max=4)
            image, labels = replay_scene(seed, 16, 4, 20.0, 5.0, 2, 4)
            assert np.array_equal(scene.labels, labels)
            assert np.array_equal(scene.image, image)

    def test_two_classes_two_label_values(self, rng):
        scene = scene_of(rng, 16, 2)
        values = set(np.unique(scene.labels))
        assert values <= {0, 1}

    def test_background_is_class_zero(self, rng):
        # a scene can be fully covered, so look across several draws
        saw_background = False
        for _ in range(10):
            scene = scene_of(rng, 16, 4)
            if (scene.labels == 0).any():
                saw_background = True
        assert saw_background

    def test_labels_stay_in_range(self, rng):
        for _ in range(10):
            scene = scene_of(rng, 12, 5)
            assert scene.labels.max() < 5

    def test_ignore_fraction_marks_pixels(self, rng):
        scene = scene_of(rng, 16, 3, ignore_fraction=0.4)
        ignored = int((scene.labels == 255).sum())
        assert 0 < ignored < 16 * 16
        clean = scene_of(rng, 16, 3, ignore_fraction=0.0)
        assert not (clean.labels == 255).any()

    def test_validation(self, rng):
        with pytest.raises(DataError):
            scene_of(rng, 16, 1)
        with pytest.raises(DataError):
            scene_of(rng, 16, 9)
        with pytest.raises(DataError):
            scene_of(rng, 7, 3)

    def test_batch_determinism(self):
        a = scenes_of(5, 4, 12, 3)
        b = scenes_of(5, 4, 12, 3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.labels, sb.labels)
        other = scenes_of(5, 4, 12, 3, stream=1)
        assert any(not np.array_equal(sa.labels, so.labels)
                   for sa, so in zip(a, other))


class TestSyntheticScene:
    def test_shape_and_dtype_checks(self):
        good_img = np.zeros((4, 4, 3), dtype=np.uint8)
        good_lab = np.zeros((4, 4), dtype=np.uint8)
        SyntheticScene(good_img, good_lab)
        with pytest.raises(DataError):
            SyntheticScene(np.zeros((4, 4), dtype=np.uint8), good_lab)
        with pytest.raises(DataError):
            SyntheticScene(good_img.astype(np.float64), good_lab)
        with pytest.raises(DataError):
            SyntheticScene(good_img, np.zeros((5, 4), dtype=np.uint8))


class TestPixmapIO:
    def test_ppm_round_trip_exact(self, rng, tmp_path):
        image = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
        path = str(tmp_path / "scene.ppm")
        write_pnm(path, b"P6", image)
        assert np.array_equal(read_pnm(path, b"P6"), image)

    def test_pgm_round_trip_exact(self, rng, tmp_path):
        labels = rng.integers(0, 256, (6, 4)).astype(np.uint8)
        path = str(tmp_path / "scene.pgm")
        write_pnm(path, b"P5", labels)
        assert np.array_equal(read_pnm(path, b"P5"), labels)

    def test_header_comments_are_skipped(self, tmp_path):
        path = str(tmp_path / "annotated.pgm")
        body = bytes(range(6))
        with open(path, "wb") as f:
            f.write(b"P5\n# made by hand\n3 2\n# and one more\n255\n" + body)
        data = read_pnm(path, b"P5")
        assert data.shape == (2, 3)
        assert data.tobytes() == body

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as f:
            f.write(b"P2\n3 2\n255\n")
        with pytest.raises(DataError):
            read_pnm(path, b"P5")

    def test_wrong_variant(self, tmp_path):
        path = str(tmp_path / "gray.pgm")
        write_pnm(path, b"P5", np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(DataError, match="magic b'P5', expected b'P6'"):
            read_pnm(path, b"P6")

    def test_truncated_pixels(self, tmp_path):
        path = str(tmp_path / "short.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataError):
            read_pnm(path, b"P5")

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "stub.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n4")
        with pytest.raises(DataError):
            read_pnm(path, b"P5")

    @pytest.mark.parametrize("header", [b"P5\nfour 4\n255\n", b"P5\n4 4 0x10\n",
                                        b"P6\n-2 2\n255\n", b"P5\n4 4\n25.5\n"])
    def test_non_numeric_header_fields(self, tmp_path, header):
        path = str(tmp_path / "words.pgm")
        with open(path, "wb") as f:
            f.write(header + bytes(16 * 3))
        with pytest.raises(DataError):
            read_pnm(path, header[:2])

    @pytest.mark.parametrize("header", [b"P5", b"P5\n", b"P5 4 4", b"P5\n4 # 4 255\n"])
    def test_short_header(self, tmp_path, header):
        path = str(tmp_path / "short.pgm")
        with open(path, "wb") as f:
            f.write(header)
        with pytest.raises(DataError):
            read_pnm(path, b"P5")

    def test_header_size_bounded_by_file(self, tmp_path):
        # a claimed 10^6 x 10^6 image in a file of a few bytes is rejected
        # before the read, which would otherwise ask for 3 TB at once
        path = str(tmp_path / "huge.ppm")
        with open(path, "wb") as f:
            f.write(b"P6\n1000000 1000000\n255\n" + bytes(12))
        with pytest.raises(DataError, match="expected 3000000000000 pixel bytes, got 12"):
            read_pnm(path, b"P6")

    def test_unsupported_maxval(self, tmp_path):
        path = str(tmp_path / "deep.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n1 1\n65535\n\0\0")
        with pytest.raises(DataError):
            read_pnm(path, b"P5")

    @pytest.mark.parametrize("header", [b"P5\n0 2\n255\n", b"P5\n2 0\n255\n",
                                        b"P6\n0 0\n255\n"])
    def test_empty_pixmap(self, tmp_path, header):
        path = str(tmp_path / "empty.pnm")
        with open(path, "wb") as f:
            f.write(header + bytes(6))
        with pytest.raises(DataError, match="empty pixmap") as err:
            read_pnm(path, header[:2])
        assert str(err.value).startswith(f"{path}: ")


class TestDatasetRoundTrip:
    def test_write_then_load(self, tmp_path):
        train = scenes_of(2, 3, 12, 3)
        eval_scenes = scenes_of(2, 2, 12, 3, stream=1)
        write_dataset(str(tmp_path), train, eval_scenes)
        loaded = load_dataset(str(tmp_path))
        assert len(loaded["train"]) == 3
        assert len(loaded["eval"]) == 2
        for orig, back in zip(train + eval_scenes,
                              loaded["train"] + loaded["eval"]):
            assert np.array_equal(orig.image, back.image)
            assert np.array_equal(orig.labels, back.labels)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(str(tmp_path))

    def test_malformed_manifest_line(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("train only_two_fields\n")
        with pytest.raises(DataError):
            load_dataset(str(tmp_path))

    def test_unknown_split(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("test a.ppm b.pgm\n")
        with pytest.raises(DataError):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("absolute", [False, True])
    def test_scene_paths_stay_inside_the_data_dir(self, tmp_path, absolute):
        # readable scene files one level up: only the manifest entry is wrong
        data = tmp_path / "data"
        write_dataset(str(data), scenes_of(2, 1, 12, 3), [])
        for name in ("outside.ppm", "outside.pgm"):
            (tmp_path / name).write_bytes(
                (data / "train" / ("scene_0000" + name[-4:])).read_bytes())
        ref = str(tmp_path) + "/outside" if absolute else "../outside"
        (data / "manifest.txt").write_text(f"train {ref}.ppm {ref}.pgm\n")
        with pytest.raises(DataError, match="leaves"):
            load_dataset(str(data))

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("\n")
        with pytest.raises(DataError):
            load_dataset(str(tmp_path))


class TestFeatureLift:
    def test_lift_weights_deterministic_and_bounded(self):
        a = lift_weights(3, 14)
        b = lift_weights(3, 14)
        assert np.array_equal(a, b)
        assert a.shape == (14, 3)
        assert np.all(np.abs(a) <= 1.0)
        assert not np.array_equal(a, lift_weights(4, 14))

    def test_scene_features_layout(self, rng):
        scene = scene_of(rng, 8, 3)
        lift = lift_weights(0, 5)
        fm = scene_features(scene, lift)
        assert fm.tensor.data.shape == (5 + COORD_CHANNELS, 8, 8)
        px = fm.pixels().data
        colors = scene.image.reshape(-1, 3).T / 255.0 - 0.5
        assert np.max(np.abs(px[:5] - lift @ colors)) < 1e-12
        ys = np.repeat(np.linspace(0.0, 1.0, 8), 8)
        xs = np.tile(np.linspace(0.0, 1.0, 8), 8)
        assert np.array_equal(px[5], ys)
        assert np.array_equal(px[6], xs)

    def test_scene_label_map(self, rng):
        scene = scene_of(rng, 8, 3, ignore_fraction=0.3)
        lm = scene_label_map(scene, 3)
        assert lm.num_classes == 3
        assert np.any(lm.labels == IGNORE_INDEX)
        assert np.array_equal(lm.labels, scene.labels.astype(np.int64))
