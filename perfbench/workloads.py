"""The three benchmark workloads.

Each workload splits into the program's own set-up calls (timed as
``setup``), one operation (timed), an output check (run after each operation,
outside its timed interval), and an untimed memory pass. The workload seed
seeds the input features, the model init and the scenes; the program only
receives the generated inputs.
"""
from __future__ import annotations

import math
import os
import time
import tracemalloc

import numpy as np

from refheads import max_rel_error, reference_logits

# Logits may differ from the plain-NumPy reference only by rounding.
REFERENCE_TOL = 1e-9
EQUIVALENCE_TOL = 1e-10
# A run that learns: over seeds 0-11 the mean loss of the last ten steps is at
# most 0.37 of the first ten, and pixel accuracy is at least 0.89.
LEARNED_LOSS_RATIO = 0.6
LEARNED_PIXEL_ACCURACY = 0.8
ZOO_SCHEMES = ("ocr", "da", "acf", "self_attn", "global", "aspp_lite", "ppm_lite")
INPUT_STREAM = 0xBE


def input_features(seed: int, channels: int, side: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, INPUT_STREAM)))
    return rng.standard_normal((channels, side, side))


def traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees while ``fn`` runs, from a fresh start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Workload:
    """Interface of one workload; ``ocrseg`` is the imported package."""

    name = ""
    setup_repeats = 5
    op_metric = ("op_ms", 1e3, "ms")   # printed name, scale from seconds, unit

    def __init__(self, ocrseg, seed: int, out_dir: str) -> None:
        self.o = ocrseg
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """The program's own set-up calls: inputs into the program, model
        build, warm-up."""
        raise NotImplementedError

    def prepare_checks(self) -> list[str]:
        """Untimed once-per-run references and checks; returns failures."""
        return []

    def op(self, tracer=None):
        raise NotImplementedError

    def check(self, out) -> str | None:
        raise NotImplementedError

    def memory(self) -> dict[str, int]:
        """Untimed tracemalloc peaks: ``peak_mem_bytes`` plus one
        ``models.<scheme>.peak_bytes`` per head."""
        raise NotImplementedError

    def tracked_peak(self) -> int:
        """AllocationTracker peak over the same scope as ``peak_mem_bytes``."""
        raise NotImplementedError

    def same_output(self, a, b) -> bool:
        raise NotImplementedError

    def forwards(self) -> dict[str, tuple[object, int, int]]:
        """Scheme -> (model, height, width) of the heads one operation runs."""
        raise NotImplementedError

    def extra_metrics(self, samples: list[float]) -> list[tuple[str, float, str, int]]:
        """Workload-specific end-to-end metrics: (name, value, unit, samples)."""
        return []


class _Heads(Workload):
    """No-grad forwards of bench-width heads on one seeded random map."""

    side = 0
    schemes: tuple[str, ...] = ()

    def __init__(self, ocrseg, seed, out_dir) -> None:
        super().__init__(ocrseg, seed, out_dir)
        bench = ocrseg.profiler.BenchConfig(height=self.side, width=self.side, seed=seed)
        self.channels = bench.channels
        self.model_configs = {s: bench.model_config(s) for s in self.schemes}
        self.x = input_features(seed, self.channels, self.side)

    def setup(self) -> None:
        o = self.o
        self.fm = o.context.FeatureMap(o.tensor.Tensor(self.x))
        self.models = {s: o.models.build_model(cfg, image_size=self.side)
                       for s, cfg in self.model_configs.items()}
        self.op()

    def prepare_checks(self) -> list[str]:
        self.refs = {s: reference_logits(s, m, self.x) for s, m in self.models.items()}
        return []

    def op(self, tracer=None):
        out = {}
        with self.o.tensor.no_grad():
            for s, model in self.models.items():
                if tracer is None:
                    out[s] = model.forward(self.fm).final_logits.data
                else:
                    with tracer.span(f"head:{s}"):
                        out[s] = model.forward(self.fm).final_logits.data
        return out

    def check(self, out) -> str | None:
        for s, logits in out.items():
            err = max_rel_error(logits, self.refs[s])
            if not err <= REFERENCE_TOL:
                return f"{s} logits differ from the reference by {err:.3e}"
        return None

    def memory(self) -> dict[str, int]:
        peaks = {}
        with self.o.tensor.no_grad():
            for s, model in self.models.items():
                peaks[f"models.{s}.peak_bytes"] = traced_peak(
                    lambda: model.forward(self.fm))
        peaks["peak_mem_bytes"] = max(peaks.values())
        return peaks

    def tracked_peak(self) -> int:
        return max(self.o.profiler.measure_peak_memory(m, self.fm)
                   for m in self.models.values())

    def same_output(self, a, b) -> bool:
        return a.keys() == b.keys() and all(np.array_equal(a[s], b[s]) for s in a)

    def forwards(self):
        return {s: (m, self.side, self.side) for s, m in self.models.items()}


class InferOcr128(_Heads):
    name = "infer_ocr_128"
    op_metric = ("forward_ms", 1e3, "ms")
    side = 128
    schemes = ("ocr",)

    def extra_metrics(self, samples):
        return [("images_per_s", len(samples) / sum(samples), "1/s", len(samples))]

    def prepare_checks(self) -> list[str]:
        failures = super().prepare_checks()
        A = self.o.attention
        params = self.models["ocr"].params
        with self.o.tensor.no_grad():
            report = A.transformer_equivalence_check(
                self.fm, A.EquivalenceMapping.from_params(params),
                tolerance=EQUIVALENCE_TOL, region_scale=1.0,
                relation_scale=params.config.relation_scale)
        print(f"attention.transformer_equivalence_check {report}")
        if not report.passed:
            failures.append(f"attention equivalence: {report}")
        return failures


class ContextZoo64(_Heads):
    name = "context_zoo_64"
    op_metric = ("sweep_ms", 1e3, "ms")
    side = 64
    schemes = ZOO_SCHEMES


class TrainDesk32(Workload):
    """One default ``ocrseg train`` through the public calls the CLI's train
    command makes, plus a checkpoint save/load round trip."""

    name = "train_desk_32"
    op_metric = ("train_s", 1.0, "s")
    setup_repeats = 10

    def __init__(self, ocrseg, seed, out_dir) -> None:
        super().__init__(ocrseg, seed, out_dir)
        self.cfg = ocrseg.config.RunConfig(seed=seed, out_dir=out_dir)
        self.ckpt = os.path.join(out_dir, f"{self.name}-seed{seed}.ckpt")
        self.first = None
        self.passed = []   # phase times and mIoU of operations that passed

    def _split(self, count: int, stream: int):
        c = self.cfg
        return self.o.data.generate_scenes(
            c.seed, count, c.grid, c.classes, c.noise, c.jitter, c.shapes_min,
            c.shapes_max, c.ignore_fraction, stream=stream)

    def setup(self) -> None:
        o, c = self.o, self.cfg
        self.train_pairs = o.train.prepare_features(self._split(c.train_scenes, 0), c)
        self.eval_pairs = o.train.prepare_features(self._split(c.eval_scenes, 1), c)
        # warm-up: one forward and backward of a freshly built head
        model = o.models.build_model(c.model_config(), image_size=c.grid)
        feats, labels = self.train_pairs[0]
        out = model.forward(feats, labels)
        loss = o.supervision.combined_loss(
            out.final_logits, out.aux_logits, labels, o.supervision.LossConfig())
        o.tensor.backward(loss)
        self.model = model

    def op(self, tracer=None):
        o, c = self.o, self.cfg
        t0 = time.perf_counter()
        model, rows = o.train.train_model(c, self.train_pairs)
        log_csv = o.train.train_log_csv(rows)
        t1 = time.perf_counter()
        result = o.train.evaluate_model(model, self.eval_pairs)
        eval_csv = result.csv()
        t2 = time.perf_counter()
        o.train.save_checkpoint(self.ckpt, model)
        reloaded = o.models.build_model(c.model_config(), image_size=c.grid)
        o.train.load_checkpoint(self.ckpt, reloaded)
        t3 = time.perf_counter()
        return {"losses": [r.loss for r in rows], "result": result,
                "reloaded": reloaded, "csv": (log_csv, eval_csv),
                "train_s": t1 - t0, "eval_s": t2 - t1, "ckpt_s": t3 - t2}

    def check(self, out) -> str | None:
        losses = out["losses"]
        if len(losses) != self.cfg.iterations or not all(map(math.isfinite, losses)):
            return "loss trajectory is short or not finite"
        if sum(losses[-10:]) > LEARNED_LOSS_RATIO * sum(losses[:10]):
            return "training did not reduce the loss"
        result = out["result"]
        if not result.pixel_accuracy >= LEARNED_PIXEL_ACCURACY:
            return f"evaluation pixel accuracy {result.pixel_accuracy:.3f} is too low"
        again = self.o.train.evaluate_model(out["reloaded"], self.eval_pairs)
        if not np.array_equal(again.confusion, result.confusion):
            return "reloaded checkpoint changes the evaluation confusion matrix"
        if self.first is None:
            self.first = out
        elif not self.same_output(out, self.first):
            return "loss trajectory or confusion matrix differs between operations"
        self.passed.append((out["train_s"], out["eval_s"], out["ckpt_s"], result.mean_iou))
        return None

    def memory(self) -> dict[str, int]:
        peaks = {"peak_mem_bytes": traced_peak(self.op)}
        feats, labels = self.eval_pairs[0]
        with self.o.tensor.no_grad():
            peaks["models.ocr.peak_bytes"] = traced_peak(
                lambda: self.model.forward(feats, labels))
        return peaks

    def tracked_peak(self) -> int:
        with self.o.tensor.AllocationTracker() as tracker:
            self.op()
        return tracker.peak_bytes

    def same_output(self, a, b) -> bool:
        return (a["losses"] == b["losses"] and a["csv"] == b["csv"]
                and np.array_equal(a["result"].confusion, b["result"].confusion))

    def forwards(self):
        return {"ocr": (self.model, self.cfg.grid, self.cfg.grid)}

    def extra_metrics(self, samples):
        if not self.passed:
            return []
        train_s, eval_s, ckpt_s, miou = (list(c) for c in zip(*self.passed))
        n = len(self.passed)
        return [("eval_ms_per_image", np.median(eval_s) * 1e3 / len(self.eval_pairs), "ms", n),
                ("eval_miou", miou[-1], "ratio", n),
                ("train_model_s_p50", float(np.median(train_s)), "s", n),
                ("checkpoint_ms_p50", float(np.median(ckpt_s)) * 1e3, "ms", n)]


WORKLOADS = {w.name: w for w in (InferOcr128, ContextZoo64, TrainDesk32)}
