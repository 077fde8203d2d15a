"""Command-line surface: exit codes, emitted files, configuration parsing,
and cross-run reproducibility of the on-disk outputs."""
import json
import os

import numpy as np
import pytest

from ocrseg.cli import cli_main
from ocrseg.config import RunConfig, load_config, parse_assignments
from ocrseg.data import MAX_CLASSES, MIN_CLASSES, MIN_GRID
from ocrseg.errors import ConfigError
from ocrseg.models import build_model
from ocrseg.train import save_checkpoint


def tiny_overrides(tmp_path, **extra):
    values = dict(grid=12, classes=3, train_scenes=4, eval_scenes=3,
                  iterations=6, feat_channels=6, key_channels=4,
                  mid_channels=8, data_dir=str(tmp_path / "data"),
                  out_dir=str(tmp_path / "out"))
    values.update(extra)
    return [f"--set={k}={v}" for k, v in values.items()]


def run_cli(command, tmp_path, **extra):
    return cli_main([command] + tiny_overrides(tmp_path, **extra))


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["warp"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli_main(["train", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        code = cli_main(["gen-data", "--set", "warp=1"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_config_value(self, capsys):
        assert cli_main(["gen-data", "--set", "iterations=soon"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_scheme_setting_checked_for_baselines(self, tmp_path, capsys):
        for bad in ("attention_scale=bogus", "da_regions=-3"):
            for cmd in ("train", "bench"):
                code = cli_main([cmd, "--set", "module=self_attn", "--set", bad,
                                 "--set", f"out_dir={tmp_path / 'out'}"])
                assert code == 2
                assert "configuration error" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["classes=20", "classes=1", "grid=2"])
    def test_data_shape_limits_are_config_errors(self, tmp_path, capsys, bad):
        for cmd in ("gen-data", "train"):
            code = cli_main([cmd, "--set", bad, "--set", f"data_dir={tmp_path / 'data'}",
                             "--set", f"out_dir={tmp_path / 'out'}"])
            assert code == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd, bad", [
        ("train", "seed=-1"), ("gen-data", "seed=-1"), ("train", "feat_channels=-5"),
        ("train", "poly_power=inf"), ("train", "base_lr=nan"),
        ("grad-check", "grad_instances=0"), ("equiv-check", "equiv_instances=0"),
        ("train", "ppm_bins="), ("train", "aspp_rates=-5"), ("train", "aspp_rates=0"),
        ("gen-data", "ppm_bins=0,2"), ("equiv-check", "equiv_tolerance=-1"),
        ("grad-check", "grad_tolerance=-1")])
    def test_bad_values_exit_two_without_traceback(self, tmp_path, capsys, cmd, bad):
        code = cli_main([cmd, "--set", "iterations=1", "--set", bad,
                         "--set", f"data_dir={tmp_path / 'data'}",
                         "--set", f"out_dir={tmp_path / 'out'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert bad.split("=")[0] in err
        assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys):
        assert cli_main(["gen-data", "--config", "/no/such/file.cfg"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfeiterations = 1\n")
        code = cli_main(["train", "--config", str(path),
                         "--set", f"out_dir={tmp_path / 'out'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "UTF-8" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_non_utf8_manifest(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.txt").write_bytes(b"train scene\xff.ppm scene\xfe.pgm\n")
        code = cli_main(["train", "--set", f"data_dir={data}",
                         "--set", f"out_dir={tmp_path / 'out'}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


class TestGenData:
    def test_writes_dataset_and_reruns_identically(self, tmp_path, capsys):
        assert run_cli("gen-data", tmp_path) == 0
        first = tree_bytes(tmp_path / "data")
        assert "manifest.txt" in first
        assert sum(1 for n in first if n.endswith(".ppm")) == 7
        assert sum(1 for n in first if n.endswith(".pgm")) == 7
        out = capsys.readouterr().out
        assert "4 train" in out and "3 eval" in out

        other = tmp_path / "second"
        assert cli_main(["gen-data"] + tiny_overrides(
            tmp_path, data_dir=str(other))) == 0
        assert tree_bytes(other) == first


class TestHostileData:
    @pytest.mark.parametrize("header", [b"P6\nwide 12\n255\n", b"P6\n12"])
    def test_bad_pixmap_header_exits_one(self, tmp_path, capsys, header):
        assert run_cli("gen-data", tmp_path) == 0
        image = sorted(p for p in tree_bytes(tmp_path / "data") if p.endswith(".ppm"))[0]
        (tmp_path / "data" / image).write_bytes(header)
        capsys.readouterr()
        assert run_cli("train", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def edit_checkpoint(path, edit):
    """Rewrite a checkpoint file after ``edit(entries, body)`` returns the
    new body; the header is re-encoded to match."""
    blob = path.read_bytes()
    start = len(b"OCRSEG1\n") + 8
    size = int.from_bytes(blob[start - 8:start], "little")
    header = json.loads(blob[start:start + size])
    body = edit(header["entries"], blob[start + size:])
    new = json.dumps(header).encode("ascii")
    path.write_bytes(blob[:start - 8] + len(new).to_bytes(8, "little") + new + body)


def repeat_first(entries, body):
    # a second copy of the first name at a fresh range, which would win
    entries.append(dict(entries[0], offset=len(body)))
    return body + bytes(entries[0]["nbytes"])


def overlap_first_two(entries, body):
    entries[1]["offset"] = entries[0]["offset"] + 8
    return body


class TestHostileCheckpoint:
    @pytest.mark.parametrize("edit, problem", [(repeat_first, "repeats"),
                                               (overlap_first_two, "overlap")])
    def test_eval_rejects_entries(self, tmp_path, capsys, edit, problem):
        assert run_cli("train", tmp_path, iterations=0) == 0
        edit_checkpoint(tmp_path / "out" / "checkpoint.ckpt", edit)
        capsys.readouterr()
        assert run_cli("eval", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and problem in err
        assert "Traceback" not in err


class TestTrainEval:
    def test_train_emits_log_checkpoint_metrics(self, tmp_path, capsys):
        assert run_cli("train", tmp_path) == 0
        out_dir = tmp_path / "out"
        log = (out_dir / "train_log.csv").read_text().splitlines()
        assert log[0] == "iteration,lr,loss"
        assert len(log) == 7
        assert (out_dir / "checkpoint.ckpt").exists()
        assert (out_dir / "eval.csv").exists()
        printed = capsys.readouterr().out
        assert "pixel_accuracy=" in printed and "mean_iou=" in printed

    def test_zero_iterations_checkpoints_initialization(self, tmp_path, capsys):
        assert run_cli("train", tmp_path, iterations=0) == 0
        capsys.readouterr()
        cfg = RunConfig(grid=12, classes=3, train_scenes=4, eval_scenes=3,
                        iterations=0, feat_channels=6, key_channels=4,
                        mid_channels=8)
        reference = build_model(cfg.model_config(), image_size=cfg.grid)
        ref_path = str(tmp_path / "reference.ckpt")
        save_checkpoint(ref_path, reference)
        with open(ref_path, "rb") as f:
            want = f.read()
        with open(tmp_path / "out" / "checkpoint.ckpt", "rb") as f:
            got = f.read()
        assert got == want

    def test_eval_reuses_checkpoint(self, tmp_path, capsys):
        assert run_cli("train", tmp_path) == 0
        train_metrics = capsys.readouterr().out.splitlines()[1]
        assert run_cli("eval", tmp_path) == 0
        eval_metrics = capsys.readouterr().out.splitlines()[0]
        assert eval_metrics == train_metrics

    def test_eval_without_checkpoint(self, tmp_path, capsys):
        assert run_cli("eval", tmp_path) == 1
        assert "error:" in capsys.readouterr().err


class TestAblate:
    def test_grid_csv(self, tmp_path, capsys):
        assert run_cli("ablate", tmp_path, iterations=4) == 0
        table = (tmp_path / "out" / "ablation.csv").read_text()
        lines = table.splitlines()
        assert lines[0] == "supervision,ocr,da,acf"
        assert lines[1].startswith("with,") and lines[2].startswith("without,")
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        # 6 populated data cells
        cells = lines[1].split(",")[1:] + lines[2].split(",")[1:]
        assert len(cells) == 6 and all(cells)
        assert capsys.readouterr().out.startswith("supervision,ocr,da,acf")


class TestBench:
    def test_reports_and_verdicts(self, tmp_path, capsys):
        code = cli_main(["bench"] + tiny_overrides(
            tmp_path, bench_channels=8, bench_size=8, bench_classes=3,
            bench_key_channels=4, bench_mid_channels=8))
        assert code == 0
        csv_lines = (tmp_path / "out" / "bench.csv").read_text().splitlines()
        assert csv_lines[0] == "module,params,flops,peak_bytes,wall_ms,input_shape"
        assert len(csv_lines) == 7  # six measured modules
        payload = json.loads((tmp_path / "out" / "bench.json").read_text())
        assert payload["errors"] == {}
        assert payload["verdicts"]["full_scale_flops_rank_matches_expected"]
        printed = capsys.readouterr().out
        assert "verdict ocr_peak_below_self_attention:" in printed

    def test_bench_builds_heads_with_the_run_scheme_settings(self, tmp_path, capsys,
                                                             monkeypatch):
        import ocrseg.profiler as P
        built = []
        real = P.build_model

        def spy(cfg, *args, **kwargs):
            model = real(cfg, *args, **kwargs)
            built.append(model)
            return model

        monkeypatch.setattr(P, "build_model", spy)
        code = cli_main(["bench"] + tiny_overrides(
            tmp_path, bench_channels=8, bench_size=8, bench_classes=3,
            bench_key_channels=4, bench_mid_channels=8,
            attention_scale="rsqrt_key", da_regions=5))
        assert code == 0
        # the measured heads, not the full-scale table's analytic ones
        region = [m for m in built if m.cfg.module in ("ocr", "da")
                  and m.cfg.in_channels == 8]
        assert {m.cfg.module for m in region} == {"ocr", "da"}
        for model in region:
            assert model.params.config.relation_scale == 1.0 / np.sqrt(4)
            if model.cfg.module == "da":
                assert model.params.da_maps.out_channels == 5
        payload = json.loads((tmp_path / "out" / "bench.json").read_text())
        assert payload["bench_config"]["attention_scale"] == "rsqrt_key"
        assert payload["bench_config"]["da_regions"] == 5
        capsys.readouterr()


class TestChecks:
    def test_equiv_check_passes_and_prints_discrepancy(self, tmp_path, capsys):
        assert run_cli("equiv-check", tmp_path, equiv_instances=5) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("[PASS] equivalence check")
        assert "max discrepancy" in printed
        report = json.loads((tmp_path / "out" / "equiv_report.json").read_text())
        assert report["passed"] is True

    def test_grad_check_exit_tracks_tolerance(self, tmp_path, capsys):
        assert run_cli("grad-check", tmp_path, grad_instances=3) == 0
        assert capsys.readouterr().out.startswith("[PASS] gradient check")
        assert run_cli("grad-check", tmp_path, grad_instances=3,
                       grad_tolerance=1e-18) == 1
        assert capsys.readouterr().out.startswith("[FAIL] gradient check")


class TestConfigParsing:
    def test_file_plus_overrides_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nclasses = 4\ngrid = 16\n\n"
                        "noise = 12.5  # trailing comment\n")
        cfg = load_config(str(path), ["classes=5"])
        assert cfg.classes == 5
        assert cfg.grid == 16
        assert cfg.noise == 12.5

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("classes\n")
        with pytest.raises(ConfigError):
            load_config(str(path), [])

    def test_assignment_coercion(self):
        values = parse_assignments(["use_stem=off", "aspp_rates=1,2,3",
                                    "ppm_bins=4", "noise=0.5", "module=da"])
        assert values["use_stem"] is False
        assert values["aspp_rates"] == (1, 2, 3)
        assert values["ppm_bins"] == (4,)
        assert values["noise"] == 0.5
        assert values["module"] == "da"
        assert parse_assignments(["use_stem=YES"])["use_stem"] is True

    def test_assignment_errors(self):
        with pytest.raises(ConfigError):
            parse_assignments(["gridsize=2"])
        with pytest.raises(ConfigError):
            parse_assignments(["use_stem=maybe"])
        with pytest.raises(ConfigError):
            parse_assignments(["no_equals_sign"])
        for bad in ("noise=nan", "base_lr=inf", "poly_power=-inf"):
            with pytest.raises(ConfigError):
                parse_assignments([bad])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(module="fft")
        with pytest.raises(ConfigError):
            RunConfig(iterations=-1)
        with pytest.raises(ConfigError):
            RunConfig(ignore_fraction=1.0)
        with pytest.raises(ConfigError):
            RunConfig(shapes_min=3, shapes_max=2)
        for bad in (dict(seed=-1), dict(feat_channels=-1), dict(equiv_instances=0),
                    dict(grad_instances=0)):
            with pytest.raises(ConfigError):
                RunConfig(**bad)
        assert RunConfig(iterations=0).iterations == 0
        assert RunConfig(feat_channels=0).in_channels == 2

    def test_data_shape_limits_come_from_the_data_module(self):
        for classes in (MIN_CLASSES, MAX_CLASSES):
            assert RunConfig(classes=classes, grid=MIN_GRID).classes == classes
        for bad in (dict(classes=MIN_CLASSES - 1), dict(classes=MAX_CLASSES + 1),
                    dict(grid=MIN_GRID - 1)):
            with pytest.raises(ConfigError):
                RunConfig(**bad)

    def test_in_channels_adds_coordinates(self):
        assert RunConfig(feat_channels=14).in_channels == 16
