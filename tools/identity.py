"""Print a sha256 for every deterministic output of the package, one
``<output> <sha256>`` line each, so two checkouts can be compared by diffing
what this prints in each:

    python tools/identity.py > a.txt    # in one checkout
    python tools/identity.py > b.txt    # in the other
    diff a.txt b.txt

It hashes every head's no-grad final and auxiliary logits (all modules, at the
bench widths, at 64x64 and 128x128, in double and single precision); each
module's 30-iteration ``ocrseg train`` checkpoint, log and eval, da's with
its own region maps (``da_regions=8``), ocr's in single precision and ocr's
with its relation scaled by 1/sqrt(key channels) (``attention_scale=rsqrt_key``); the
default train's; a ``gen-data`` dataset (its manifest and each split's scene
files), a 30-iteration train on it, an ``eval --checkpoint`` of that checkpoint and a
30-iteration ``ablate``'s ``ablation.csv`` on it; the ``grad-check`` and
``equiv-check`` reports; and ``bench.json`` without its wall-clock fields.
The package is imported from the ``src`` directory next to this script. It
takes about a minute on one core.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from ocrseg.cli import cli_main  # noqa: E402  (pins BLAS threads before numpy loads)
from ocrseg import tensor as T  # noqa: E402
from ocrseg.models import MODULE_CHOICES, build_model  # noqa: E402
from ocrseg.profiler import BenchConfig, bench_input  # noqa: E402
from ocrseg.supervision import LabelMap  # noqa: E402

import numpy as np  # noqa: E402

RUN_FILES = ("checkpoint.ckpt", "train_log.csv", "eval.csv")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_sha(a: np.ndarray) -> str:
    """Hash of an array's dtype, shape and bytes."""
    head = f"{a.dtype.str}{a.shape}".encode()
    return sha(head + np.ascontiguousarray(a).tobytes())


def file_sha(path: str) -> str:
    with open(path, "rb") as f:
        return sha(f.read())


def logits() -> None:
    for precision in ("double", "single"):
        for side in (64, 128):
            cfg = BenchConfig(height=side, width=side, precision=precision)
            x = bench_input(cfg)
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, side)))
            labels = LabelMap(rng.integers(0, cfg.num_classes, (side, side)), cfg.num_classes)
            for module in MODULE_CHOICES:
                model = build_model(cfg.model_config(module), image_size=side)
                with T.no_grad():
                    out = model.forward(x, labels if module == "gt_ocr" else None)
                name = f"logits/{precision}/{side}/{module}"
                print(f"{name}/final {array_sha(out.final_logits.data)}", flush=True)
                aux = out.aux_logits
                print(f"{name}/aux {'none' if aux is None else array_sha(aux.data)}",
                      flush=True)


def run(tmp: str, name: str, *argv: str, data_dir: str | None = None) -> str:
    """Runs one CLI command into its own output directory, which it returns;
    the scenes are read from ``data_dir``, or generated in memory."""
    out = os.path.join(tmp, name.replace("/", "_"))
    data_dir = data_dir or os.path.join(tmp, "no-data")
    args = [*argv, "--set", f"out_dir={out}", "--set", f"data_dir={data_dir}"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    print(f"{name}/exit {code}", flush=True)
    return out


def runs(tmp: str) -> None:
    trains = [(module, ("--set", f"module={module}")) for module in MODULE_CHOICES]
    trains.append(("da_maps", ("--set", "module=da", "--set", "da_regions=8")))
    trains.append(("single", ("--set", "precision=single")))
    trains.append(("ocr_rsqrt_key", ("--set", "module=ocr",
                                     "--set", "attention_scale=rsqrt_key")))
    for name, settings in trains:
        out = run(tmp, f"train30/{name}", "train", *settings, "--set", "iterations=30")
        for f in RUN_FILES:
            print(f"train30/{name}/{f} {file_sha(os.path.join(out, f))}", flush=True)
    out = run(tmp, "train", "train")
    for f in RUN_FILES:
        print(f"train/{f} {file_sha(os.path.join(out, f))}", flush=True)
    dataset(tmp)
    for command, report in (("grad-check", "grad_report.json"),
                            ("equiv-check", "equiv_report.json")):
        out = run(tmp, command, command)
        print(f"{command}/{report} {file_sha(os.path.join(out, report))}", flush=True)
    out = run(tmp, "bench", "bench")
    with open(os.path.join(out, "bench.json")) as f:
        bench = json.load(f)
    bench.pop("timing_verdicts")
    for row in bench["measured"]:
        del row["wall_ms"], row["wall_ms_spread"]
    text = json.dumps(bench, sort_keys=True, indent=2)
    print(f"bench/bench.json-without-wall-clock {sha(text.encode())}", flush=True)


def dataset(tmp: str) -> None:
    """gen-data, then train, eval --checkpoint and ablate on its files."""
    data = os.path.join(tmp, "dataset")
    run(tmp, "gen-data", "gen-data", data_dir=data)
    print(f"gen-data/manifest.txt {file_sha(os.path.join(data, 'manifest.txt'))}",
          flush=True)
    for split in ("train", "eval"):
        names = sorted(os.listdir(os.path.join(data, split)))
        digest = sha("".join(f"{n} {file_sha(os.path.join(data, split, n))}\n"
                             for n in names).encode())
        print(f"gen-data/{split}/{len(names)}-files {digest}", flush=True)
    short = ("--set", "iterations=30")
    out = run(tmp, "data/train", "train", *short, data_dir=data)
    for f in RUN_FILES:
        print(f"data/train/{f} {file_sha(os.path.join(out, f))}", flush=True)
    out = run(tmp, "data/eval", "eval", "--checkpoint",
              os.path.join(out, "checkpoint.ckpt"), data_dir=data)
    print(f"data/eval/eval.csv {file_sha(os.path.join(out, 'eval.csv'))}", flush=True)
    out = run(tmp, "data/ablate", "ablate", *short, data_dir=data)
    print(f"data/ablate/ablation.csv {file_sha(os.path.join(out, 'ablation.csv'))}",
          flush=True)


def main() -> None:
    logits()
    with tempfile.TemporaryDirectory() as tmp:
        runs(tmp)


if __name__ == "__main__":
    main()
