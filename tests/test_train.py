"""Training loop determinism, evaluation metrics against a hand confusion
oracle, the ablation grid, and checkpoint round-trips."""
import json
from dataclasses import replace

import numpy as np
import pytest

import ocrseg.tensor as T
import ocrseg.train as TR
from ocrseg.config import RunConfig
from ocrseg.data import generate_scenes
from ocrseg.errors import ConfigError, DataError, TrainingDiverged
from ocrseg.models import build_model
from ocrseg.supervision import LabelMap, combined_loss
from ocrseg.train import (ABLATION_SCHEMES, AblationCell, EvalResult,
                          TrainRow, ablation_csv, evaluate_model,
                          load_checkpoint, prepare_features, run_ablation,
                          save_checkpoint, train_log_csv, train_model)

import oracles


def tiny_config(**overrides):
    base = dict(seed=4, grid=12, classes=3, train_scenes=6, eval_scenes=4,
                noise=25.0, iterations=10, base_lr=0.5, feat_channels=6,
                key_channels=4, mid_channels=8)
    base.update(overrides)
    return RunConfig(**base)


def tiny_pairs(cfg, count, stream):
    scenes = generate_scenes(cfg.seed, count, cfg.grid, cfg.classes,
                             cfg.noise, cfg.jitter, cfg.shapes_min,
                             cfg.shapes_max, cfg.ignore_fraction, stream=stream)
    return prepare_features(scenes, cfg)


class TestPrepareFeatures:
    def test_shapes_and_count(self):
        cfg = tiny_config()
        pairs = tiny_pairs(cfg, 3, 0)
        assert len(pairs) == 3
        feats, labels = pairs[0]
        assert feats.tensor.data.shape == (cfg.in_channels, 12, 12)
        assert labels.num_classes == 3


    def test_features_take_the_run_precision(self):
        for precision, dtype in (("double", np.float64), ("single", np.float32)):
            feats, _ = tiny_pairs(tiny_config(precision=precision), 1, 0)[0]
            assert feats.tensor.dtype == dtype


class TestSinglePrecision:
    @pytest.mark.parametrize("module", ["ocr", "self_attn", "aspp_lite"])
    def test_training_step_stays_float32(self, module):
        # float64 features would promote every activation, the logits, the
        # loss and the gradients to float64 under float32 parameters
        cfg = tiny_config(precision="single", module=module)
        feats, labels = tiny_pairs(cfg, 1, 0)[0]
        model = build_model(cfg.model_config(), image_size=cfg.grid)
        out = model.forward(feats, labels)
        loss = combined_loss(out.final_logits, out.aux_logits, labels, cfg.loss)
        T.backward(loss)
        assert out.final_logits.dtype == np.float32
        assert out.aux_logits is None or out.aux_logits.dtype == np.float32
        assert loss.dtype == np.float32
        for name, param in model.named_parameters():
            assert param.grad is not None and param.grad.dtype == np.float32, name


class TestTrainModel:
    def test_zero_iterations_keeps_initialization(self):
        cfg = tiny_config(iterations=0)
        model, rows = train_model(cfg, tiny_pairs(cfg, 4, 0))
        assert rows == []
        reference = build_model(cfg.model_config(), image_size=cfg.grid)
        for (name, got), (ref_name, want) in zip(model.named_parameters(),
                                                 reference.named_parameters()):
            assert name == ref_name
            assert np.array_equal(got.data, want.data)

    def test_loss_decreases(self):
        cfg = tiny_config(iterations=80)
        _, rows = train_model(cfg, tiny_pairs(cfg, 6, 0))
        assert len(rows) == 80
        early = np.mean([r.loss for r in rows[:8]])
        late = np.mean([r.loss for r in rows[-8:]])
        assert late < early

    def test_deterministic_given_config(self):
        cfg = tiny_config(iterations=15)
        pairs = tiny_pairs(cfg, 4, 0)
        model_a, rows_a = train_model(cfg, pairs)
        model_b, rows_b = train_model(cfg, pairs)
        assert rows_a == rows_b
        for (_, ta), (_, tb) in zip(model_a.named_parameters(),
                                    model_b.named_parameters()):
            assert np.array_equal(ta.data, tb.data)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_runaway_rate_diverges(self):
        cfg = tiny_config(iterations=30, base_lr=1e10)
        with pytest.raises(TrainingDiverged):
            train_model(cfg, tiny_pairs(cfg, 4, 0))

    def test_no_scenes(self):
        with pytest.raises(DataError):
            train_model(tiny_config(), [])

    def test_peak_does_not_grow_with_iterations(self):
        # backward frees each graph it replays, so the next iteration's
        # forward never runs while the previous graph is still held
        def peak(iterations):
            cfg = RunConfig(grid=32, train_scenes=2, iterations=iterations)
            pairs = tiny_pairs(cfg, 2, 0)
            with T.AllocationTracker() as tracker:
                train_model(cfg, pairs)
            return tracker.peak_bytes

        assert peak(3) == peak(1) > 0

    def test_log_csv_format(self):
        text = train_log_csv([TrainRow(0, 0.5, 1.25), TrainRow(1, 0.25, 0.75)])
        assert text == "iteration,lr,loss\n0,0.5,1.25\n1,0.25,0.75\n"


class TestEvaluateModel:
    def test_matches_hand_confusion(self, rng):
        cfg = tiny_config(grid=8, ignore_fraction=0.2, iterations=0)
        pairs = tiny_pairs(cfg, 3, 1)
        model, _ = train_model(cfg, pairs)
        result = evaluate_model(model, pairs)

        conf = np.zeros((3, 3), dtype=np.int64)
        with T.no_grad():
            for feats, labels in pairs:
                out = model.forward(feats, labels)
                pred = np.argmax(out.final_logits.data, axis=0)
                conf += oracles.confusion_loops(pred, labels.flat, 3)
        acc, miou, ious = oracles.metrics_from_confusion(conf)
        assert np.array_equal(result.confusion, conf)
        assert abs(result.pixel_accuracy - acc) < 1e-12
        assert abs(result.mean_iou - miou) < 1e-12
        for got, want in zip(result.per_class_iou, ious):
            if want is None:
                assert got is None
            else:
                assert abs(got - want) < 1e-12

    def test_zeroed_head_predicts_class_zero(self):
        cfg = tiny_config(iterations=0)
        pairs = tiny_pairs(cfg, 2, 1)
        model, _ = train_model(cfg, pairs)
        model.final_head.weight.data[...] = 0.0
        model.final_head.bias.data[...] = 0.0
        result = evaluate_model(model, pairs)
        zeros = sum(int((labels.flat == 0).sum()) for _, labels in pairs)
        total = sum(labels.flat.size for _, labels in pairs)
        assert abs(result.pixel_accuracy - zeros / total) < 1e-12
        assert np.array_equal(result.confusion[:, 1:], np.zeros((3, 2)))

    def test_all_ignored_rejected(self):
        cfg = tiny_config(iterations=0)
        pairs = tiny_pairs(cfg, 2, 1)
        model, _ = train_model(cfg, pairs)
        blank = [(feats, LabelMap(np.full((12, 12), 255, dtype=np.int64), 3))
                 for feats, _ in pairs]
        with pytest.raises(DataError) as err:
            evaluate_model(model, blank)
        assert "ignored" in str(err.value)

    def test_csv_blanks_absent_classes(self):
        result = EvalResult(0.75, 0.5, (0.5, None), np.eye(2, dtype=np.int64))
        text = result.csv()
        lines = text.splitlines()
        assert lines[0] == "pixel_accuracy,mean_iou,iou_0,iou_1"
        assert lines[1] == "0.750000,0.500000,0.500000,"


class TestCheckpoint:
    def test_round_trip_restores_forward(self, tmp_path):
        cfg = tiny_config(iterations=8)
        pairs = tiny_pairs(cfg, 4, 0)
        model, _ = train_model(cfg, pairs)
        want = model.forward(*pairs[0]).final_logits.data.copy()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)

        fresh = build_model(replace(cfg, seed=9).model_config(),
                            image_size=cfg.grid)
        load_checkpoint(path, fresh)
        assert np.array_equal(fresh.forward(*pairs[0]).final_logits.data, want)

    def test_save_is_byte_stable(self, tmp_path):
        cfg = tiny_config(iterations=3)
        model, _ = train_model(cfg, tiny_pairs(cfg, 3, 0))
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(str(a), model)
        save_checkpoint(str(b), model)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKJUNK" + bytes(32))
        cfg = tiny_config()
        model = build_model(cfg.model_config(), image_size=cfg.grid)
        with pytest.raises(DataError) as err:
            load_checkpoint(str(path), model)
        assert "not a checkpoint file" in str(err.value)

    def test_rejects_truncated_body(self, tmp_path):
        cfg = tiny_config(iterations=0)
        model, _ = train_model(cfg, tiny_pairs(cfg, 2, 0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(DataError) as err:
            load_checkpoint(str(path), model)
        assert "truncated" in str(err.value)

    def test_rejects_precision_mismatch(self, tmp_path):
        cfg = tiny_config(iterations=0)
        model, _ = train_model(cfg, tiny_pairs(cfg, 2, 0))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        single = build_model(replace(cfg, precision="single").model_config(),
                             image_size=cfg.grid)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path, single)
        assert "dtype float64" in str(err.value)

    def _with_header(self, tmp_path, header: bytes, length: int | None = None):
        path = tmp_path / "forged.ckpt"
        size = len(header) if length is None else length
        path.write_bytes(b"OCRSEG1\n" + size.to_bytes(8, "little") + header)
        return str(path)

    def test_rejects_header_length_beyond_file(self, tmp_path):
        cfg = tiny_config()
        model = build_model(cfg.model_config(), image_size=cfg.grid)
        path = self._with_header(tmp_path, b'{"entries": []}', length=10 ** 12)
        with pytest.raises(DataError) as err:
            load_checkpoint(path, model)
        assert "past the end" in str(err.value)

    def test_rejects_header_that_is_not_json(self, tmp_path):
        cfg = tiny_config()
        model = build_model(cfg.model_config(), image_size=cfg.grid)
        for header in (b"{not json", b"\xff\xfe", b"[1, 2]", b'{"entries": 3}',
                       b"[" * 100_000):
            with pytest.raises(DataError) as err:
                load_checkpoint(self._with_header(tmp_path, header), model)
            assert "malformed checkpoint header" in str(err.value)

    def test_rejects_missing_or_negative_entry_fields(self, tmp_path):
        cfg = tiny_config()
        model = build_model(cfg.model_config(), image_size=cfg.grid)
        good = {"name": "final_head.bias", "shape": [2], "dtype": "float64",
                "offset": 0, "nbytes": 16}
        forged = [{k: v for k, v in good.items() if k != "offset"},
                  dict(good, offset=-8), dict(good, shape=[-2]),
                  dict(good, nbytes=8), dict(good, dtype="object"),
                  dict(good, name=7)]
        for entry in forged:
            header = json.dumps({"format": 1, "entries": [entry]}).encode()
            with pytest.raises(DataError) as err:
                load_checkpoint(self._with_header(tmp_path, header), model)
            assert "malformed checkpoint header" in str(err.value)

    def test_rejects_mismatched_model(self, tmp_path):
        cfg = tiny_config(iterations=0)
        model, _ = train_model(cfg, tiny_pairs(cfg, 2, 0))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model)
        other = build_model(cfg.model_config("ppm_lite"), image_size=cfg.grid)
        with pytest.raises(ConfigError):
            load_checkpoint(path, other)


class TestAblation:
    def test_grid_covers_schemes_and_supervision(self):
        cfg = tiny_config(iterations=5)
        train_pairs = tiny_pairs(cfg, 4, 0)
        eval_pairs = tiny_pairs(cfg, 3, 1)
        # ocr and acf fail on a non-finite loss, da already in its relations
        cells = run_ablation(cfg, train_pairs, eval_pairs)
        assert len(cells) == 6
        keys = {(c.scheme, c.aux_supervision) for c in cells}
        assert keys == {(s, a) for s in ABLATION_SCHEMES for a in (True, False)}
        for cell in cells:
            assert cell.error is None
            assert 0.0 <= cell.mean_iou <= 1.0
            assert 0.0 <= cell.pixel_accuracy <= 1.0

    def test_without_cell_is_a_train_at_zero_aux_weight(self, monkeypatch):
        cfg = tiny_config(iterations=5)
        train_pairs = tiny_pairs(cfg, 4, 0)
        eval_pairs = tiny_pairs(cfg, 3, 1)
        logs = {}

        def logged(run, pairs):
            model, rows = train_model(run, pairs)
            logs[run.module, run.loss.aux_weight] = rows
            return model, rows

        monkeypatch.setattr(TR, "train_model", logged)
        cells = {(c.scheme, c.aux_supervision): c
                 for c in run_ablation(cfg, train_pairs, eval_pairs)}
        for scheme in ABLATION_SCHEMES:
            model, rows = train_model(replace(cfg, module=scheme, aux_weight=0.0),
                                      train_pairs)
            result = evaluate_model(model, eval_pairs)
            cell = cells[(scheme, False)]
            assert cell.mean_iou == result.mean_iou
            assert cell.pixel_accuracy == result.pixel_accuracy
            # the same losses, which the auxiliary term would change
            assert logs[scheme, 0.0] == rows
            assert logs[scheme, cfg.aux_weight] != rows

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_failure_isolates_to_cell(self):
        cfg = tiny_config(iterations=30, base_lr=1e10)
        train_pairs = tiny_pairs(cfg, 4, 0)
        eval_pairs = tiny_pairs(cfg, 3, 1)
        # ocr and acf fail on a non-finite loss, da already in its relations
        cells = run_ablation(cfg, train_pairs, eval_pairs)
        assert len(cells) == 6
        for cell in cells:
            assert cell.error is not None
            assert cell.mean_iou is None

    def test_csv_layout(self):
        cells = [AblationCell("ocr", True, 0.5, 0.9),
                 AblationCell("da", True, 0.25, 0.8),
                 AblationCell("acf", True, None, None, "diverged"),
                 AblationCell("ocr", False, 0.125, 0.7),
                 AblationCell("da", False, 0.0625, 0.6),
                 AblationCell("acf", False, 0.03125, 0.5)]
        text = ablation_csv(cells)
        lines = text.splitlines()
        assert lines[0] == "supervision,ocr,da,acf"
        assert lines[1] == "with,0.5000,0.2500,"
        assert lines[2] == "without,0.1250,0.0625,0.0312"
