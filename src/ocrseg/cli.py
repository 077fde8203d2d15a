"""Command line interface.

Thread-count environment variables are pinned before anything numerical is
imported so measured timings and byte-for-byte reproducibility do not depend
on the host's BLAS configuration.
"""
from __future__ import annotations

import argparse
import os
import sys


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, "1")


_pin_threads()

from . import data as D                                     # noqa: E402
from . import profiler as P                                 # noqa: E402
from . import train as TR                                   # noqa: E402
from .checks import run_equivalence_suite, run_gradient_suite  # noqa: E402
from .config import RunConfig, load_config                  # noqa: E402
from .errors import ConfigError, OcrsegError                # noqa: E402
from .models import build_model                             # noqa: E402


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _scenes(cfg: RunConfig) -> dict[str, list[D.SyntheticScene]]:
    """On-disk dataset when one exists, its scenes checked against ``grid``,
    otherwise the same scenes that gen-data would write, regenerated in memory."""
    manifest = os.path.join(cfg.data_dir, D.MANIFEST_NAME)
    if os.path.exists(manifest):
        scenes = D.load_dataset(cfg.data_dir)
        for scene in scenes["train"] + scenes["eval"]:
            if (scene.height, scene.width) != (cfg.grid, cfg.grid):
                raise ConfigError(f"grid is {cfg.grid} but {cfg.data_dir} holds a "
                                  f"{scene.height}x{scene.width} scene")
        return scenes
    return {"train": _generate_split(cfg, cfg.train_scenes, stream=0),
            "eval": _generate_split(cfg, cfg.eval_scenes, stream=1)}


def _generate_split(cfg: RunConfig, count: int, stream: int):
    return D.generate_scenes(
        cfg.seed, count, cfg.grid, cfg.classes, cfg.noise, cfg.jitter,
        cfg.shapes_min, cfg.shapes_max, cfg.ignore_fraction, stream=stream)


def _cmd_gen_data(cfg: RunConfig) -> int:
    train = _generate_split(cfg, cfg.train_scenes, stream=0)
    eval_scenes = _generate_split(cfg, cfg.eval_scenes, stream=1)
    manifest = D.write_dataset(cfg.data_dir, train, eval_scenes)
    print(f"wrote {len(train)} train and {len(eval_scenes)} eval scenes "
          f"({cfg.grid}x{cfg.grid}, {cfg.classes} classes) to {manifest}")
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    scenes = _scenes(cfg)
    train_pairs = TR.prepare_features(scenes["train"], cfg)
    eval_pairs = TR.prepare_features(scenes["eval"], cfg)
    model, rows = TR.train_model(cfg, train_pairs)
    _write(os.path.join(cfg.out_dir, "train_log.csv"), TR.train_log_csv(rows))
    TR.save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.ckpt"), model)
    result = TR.evaluate_model(model, eval_pairs)
    _write(os.path.join(cfg.out_dir, "eval.csv"), result.csv())
    final_loss = "n/a" if not rows else f"{rows[-1].loss:.6f}"
    print(f"module={cfg.module} iterations={cfg.iterations} "
          f"final_loss={final_loss}")
    print(f"pixel_accuracy={result.pixel_accuracy:.6f} "
          f"mean_iou={result.mean_iou:.6f}")
    print(f"outputs in {cfg.out_dir}")
    return 0


def _cmd_eval(cfg: RunConfig, checkpoint: str | None) -> int:
    scenes = _scenes(cfg)
    eval_pairs = TR.prepare_features(scenes["eval"], cfg)
    model = build_model(cfg.model_config(), image_size=cfg.grid)
    path = checkpoint or os.path.join(cfg.out_dir, "checkpoint.ckpt")
    TR.load_checkpoint(path, model)
    result = TR.evaluate_model(model, eval_pairs)
    _write(os.path.join(cfg.out_dir, "eval.csv"), result.csv())
    print(f"pixel_accuracy={result.pixel_accuracy:.6f} "
          f"mean_iou={result.mean_iou:.6f}")
    return 0


def _cmd_ablate(cfg: RunConfig) -> int:
    scenes = _scenes(cfg)
    train_pairs = TR.prepare_features(scenes["train"], cfg)
    eval_pairs = TR.prepare_features(scenes["eval"], cfg)
    cells = TR.run_ablation(cfg, train_pairs, eval_pairs)
    table = TR.ablation_csv(cells)
    _write(os.path.join(cfg.out_dir, "ablation.csv"), table)
    print(table, end="")
    failures = [c for c in cells if c.error]
    for cell in failures:
        print(f"cell ({cell.scheme}, aux={cell.aux_supervision}) failed: "
              f"{cell.error}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_bench(cfg: RunConfig) -> int:
    bench = P.BenchConfig(
        height=cfg.bench_size, width=cfg.bench_size, attention_scale=cfg.attention_scale,
        da_regions=cfg.da_regions or P.BenchConfig.da_regions,
        precision=cfg.precision, seed=cfg.seed)
    reports, extras, errors = P.bench_report(bench)
    _write(os.path.join(cfg.out_dir, "bench.json"),
           P.bench_to_json(bench, reports, extras, errors))
    for report in reports:
        print(f"{report.module}: params={report.params} flops={report.flops} "
              f"peak_bytes={report.peak_bytes}")
    for name, verdict in sorted(extras["verdicts"].items()):
        print(f"verdict {name}: {'n/a' if verdict is None else 'yes' if verdict else 'no'}")
    for module, message in sorted(errors.items()):
        print(f"bench error for {module}: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_equiv_check(cfg: RunConfig) -> int:
    suite = run_equivalence_suite(cfg.equiv_instances, cfg.seed)
    _write(os.path.join(cfg.out_dir, "equiv_report.json"), suite.to_json())
    print(suite.summary())
    return 0 if suite.passed else 1


def _cmd_grad_check(cfg: RunConfig) -> int:
    suite = run_gradient_suite(cfg.grad_instances, cfg.seed)
    _write(os.path.join(cfg.out_dir, "grad_report.json"), suite.to_json())
    print(suite.summary())
    return 0 if suite.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocrseg",
        description="Region-context segmentation harness: data generation, "
                    "training, ablation, profiling, and numerical checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one config key")

    common(sub.add_parser("gen-data", help="write a synthetic dataset"))
    common(sub.add_parser("train", help="train one model and evaluate it"))
    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", default=None, metavar="FILE")
    common(sub.add_parser("ablate",
                          help="context scheme x auxiliary supervision grid"))
    common(sub.add_parser("bench",
                          help="analytic and measured cost comparison"))
    common(sub.add_parser("equiv-check",
                          help="attention-form equivalence suite"))
    common(sub.add_parser("grad-check",
                          help="finite-difference gradient suite"))
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, args.overrides)
        commands = {
            "gen-data": _cmd_gen_data, "train": _cmd_train,
            "eval": lambda cfg: _cmd_eval(cfg, args.checkpoint),
            "ablate": _cmd_ablate, "bench": _cmd_bench,
            "equiv-check": _cmd_equiv_check, "grad-check": _cmd_grad_check}
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OcrsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
