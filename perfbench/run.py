"""ocrseg benchmark: one closed-loop caller per workload, BLAS pinned to one
thread, every timed output checked.

    python3 perfbench/run.py --workload infer_ocr_128 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones. Their times are host-normalised: each timed interval is
divided by a fixed calibration probe timed right before it (``HostProbe``,
which calls no ocrseg code), so that the shared host's speed, which drifts by
tens of percent over minutes, cancels out; raw wall times are printed too.
With ``--trace 1`` untraced and traced operations alternate, and the metrics
are the per-layer ones from the traced operations. Other lines print every
metric by name and unit, the environment record and the exact counts. Details
and spans go to ``.perfbench_out/`` in the repository root. Run from a
checkout that has ``src/ocrseg``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

IMPORT_REPEATS = 9
MIN_OPS = 3
# every ocrseg module a workload touches; importing them counts as set-up. The
# CLI module comes first: importing it pins the BLAS/OpenMP pools to one thread
# before numpy loads, as ``ocrseg`` runs do.
PROGRAM_MODULES = ("cli", "tensor", "blocks", "context", "attention", "supervision",
                   "models", "profiler", "data", "config", "train")

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC) as f:
        return json.load(f)


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(error)
                print(f"FAILED op {self.attempted}: {error}", file=sys.stderr)


def import_program():
    """Import ocrseg from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "ocrseg", "__init__.py")):
        raise SystemExit(f"perfbench: no ocrseg sources under {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("ocrseg")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"ocrseg.{name}")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported ocrseg from {pkg.__file__}, not {SRC}")
    return pkg


def import_seconds(probe) -> list[tuple[float, float]]:
    """(seconds, probe seconds) of each import of the program in a fresh
    interpreter, the host probe timed right before it."""
    code = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); "
            "[importlib.import_module(m) for m in sys.argv[2:]]; "
            "print(time.perf_counter() - t0)")
    modules = ["ocrseg"] + [f"ocrseg.{m}" for m in PROGRAM_MODULES]
    times = []
    for _ in range(IMPORT_REPEATS):
        probe_s = probe.seconds()
        child = subprocess.run([sys.executable, "-c", code, SRC, *modules],
                               capture_output=True, text=True, timeout=120, check=True)
        times.append((float(child.stdout.split()[-1]), probe_s))
    return times


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it; None below 20 samples, where that is not above the median."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _last_line() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_op(w, tracer=None):
    """One operation: (seconds, output, error or None). With a tracer the
    layers are patched around the timed interval and the operation is the
    root span. The output check runs afterwards, untimed and untraced."""
    if tracer is not None:
        tracer.install()
    out, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = w.op()
        else:
            with tracer.span("op"):
                out = w.op(tracer)
    except Exception:  # a failed operation is counted, and the loop goes on
        error = _last_line()
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
    if error is None:
        try:
            error = w.check(out)
        except Exception:
            error = _last_line()
    return elapsed, out, error


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value:.6g} {unit}{note}")


def timed_setup(w, probe) -> list[tuple[float, float]]:
    times = []
    for _ in range(w.setup_repeats):
        probe_s = probe.seconds()
        t0 = time.perf_counter()
        w.setup()
        times.append((time.perf_counter() - t0, probe_s))
    return times


def measure(w, seconds: float, fails: Failures) -> dict:
    """End-to-end metrics, tracing off. Every timed interval is paired with
    the host probe timed right before it; the JSON metrics are the medians of
    the host-normalised times, and the raw wall times are printed beside them."""
    from envinfo import HostProbe

    probe = HostProbe()
    imports = import_seconds(probe)
    setups = timed_setup(w, probe)
    for failure in w.prepare_checks():
        fails.record(failure)
    mem = w.memory()
    timed = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < MIN_OPS:
        probe_s = probe.seconds()
        elapsed, _, error = run_op(w)
        fails.record(error)
        timed.append((elapsed, probe_s))

    def raw(pairs):
        return [t for t, _ in pairs]

    def norm(pairs):
        return [probe.normalise(t, p) for t, p in pairs]

    samples = raw(timed)
    setup_s = statistics.median(norm(imports)) + statistics.median(norm(setups))
    raw_setup_s = statistics.median(raw(imports)) + statistics.median(raw(setups))
    op_ms = statistics.median(norm(timed)) * 1e3
    n = len(samples)
    print(f"host probe: median {statistics.median(p for _, p in timed) * 1e3:.2f} ms "
          f"over the operations; times below marked 'host-normalised' are "
          f"rescaled to a {HostProbe.REFERENCE_S * 1e3:g} ms probe")
    print(f"setup: median of {IMPORT_REPEATS} fresh-interpreter imports + median "
          f"of {w.setup_repeats} set-ups")
    show("setup_s", setup_s, "s", " (host-normalised)")
    show("setup_wall_s", raw_setup_s, "s")
    show("op_hostnorm_ms_p50", op_ms, "ms", f" (host-normalised, n={n})")
    op_name, scale, unit = w.op_metric
    show(f"{op_name}_p50", statistics.median(samples) * scale, unit, f" (n={n})")
    tl = tail(samples)
    if tl is None:
        print(f"metric {op_name}_tail = n/a (n={n}: needs at least 20 samples)")
    else:
        show(f"{op_name}_tail", tl[1] * scale, unit, f" (p{tl[0]:.0f}, n={n})")
    for name, value, u, count in w.extra_metrics(samples):
        show(name, value, u, f" (n={count})")
    show("peak_mem_bytes", mem["peak_mem_bytes"], "B", " (tracemalloc, untimed pass)")
    return {"setup_s": setup_s, "op_hostnorm_ms_p50": op_ms,
            "peak_mem_bytes": mem["peak_mem_bytes"],
            "samples_s": samples, "probe_s": [p for _, p in timed],
            "imports_s": imports, "setup_runs_s": setups}


def measure_traced(w, seconds: float, roofline: float, fails: Failures,
                   tag: str) -> dict:
    import layers
    from tracer import SpanTable, Tracer

    w.setup()
    for failure in w.prepare_checks():
        fails.record(failure)
    mem = w.memory()
    tracked = w.tracked_peak()
    forwards = w.forwards()
    flops_by_stage = layers.stage_flops(forwards)
    model_flops = {s: m.analytic_flops(h, wd) for s, (m, h, wd) in forwards.items()}

    tracer = Tracer()
    setup_op = -1
    tracer.op_id = setup_op
    with tracer:
        w.setup()
    plain, traced, per_op = [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or len(traced) < MIN_OPS:
        elapsed, out, error = run_op(w)
        fails.record(error)
        plain.append(elapsed)
        if reference is None and error is None:
            reference = out
        tracer.op_id = k
        elapsed, out, error = run_op(w, tracer)
        if error is None and reference is not None and not w.same_output(out, reference):
            error = "traced output differs bitwise from the untraced output"
        fails.record(error)
        traced.append(elapsed)
        k += 1
    table = SpanTable(tracer)
    for op_id in range(k):
        per_op.append(layers.op_metrics(table, op_id, forwards, flops_by_stage,
                                        model_flops, roofline))
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics.update(layers.setup_metrics(table, setup_op))
    metrics["tensor.tracked_peak_bytes"] = tracked
    metrics["env.gemm_roofline_gflops"] = roofline
    for name, value in mem.items():
        if name.startswith("models."):
            metrics[name] = value
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_ratio"] = overhead
    for name in sorted(metrics):
        print(f"layer {name} = {metrics[name]:.6g}")
    share = metrics["trace.layer_self_share"]
    print(f"trace: {len(traced)} traced and {len(plain)} untraced operations; "
          f"layer self times cover {share:.1%} of the traced operation "
          f"({'within' if share >= 0.9 else 'NOT within'} a tenth); tracing "
          f"overhead {overhead:+.1%} (median traced / untraced operation time)")

    counts = {"analytic_flops": model_flops,
              "full_scale_gflops": {r.module: r.flops / 1e9
                                    for r in w.o.profiler.full_scale_table()},
              "tensor_ops_per_op": per_op[0]["tensor.ops_per_op"],
              "blocks_transform_ops_per_call": per_op[0]["blocks.transform.ops_per_call"]}
    counts.update({name: v for name, v in per_op[0].items()
                   if name.endswith(".ops_per_forward")})
    print("counts " + json.dumps(counts, sort_keys=True))
    with open(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"), "w") as f:
        for rec in table.records():
            if rec["op"] in (setup_op, 0):   # set-up and first operation only
                f.write(json.dumps(rec) + "\n")
    return {"per_layer": metrics, "counts": counts, "per_op": per_op}


def run_workload(name: str, seed: int, seconds: float, trace: bool, ocrseg) -> dict:
    import envinfo
    from workloads import WORKLOADS

    roofline = envinfo.gemm_roofline_gflops()
    env = envinfo.record(seed, name, roofline)
    print("env " + json.dumps(env, sort_keys=True))
    w = WORKLOADS[name](ocrseg, seed, OUT_DIR)
    fails = Failures()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    spec = load_spec()
    if trace:
        detail = measure_traced(w, seconds, roofline, fails, tag)
        values, declared = detail["per_layer"], spec["per_layer"]
    else:
        detail = measure(w, seconds, fails)
        values, declared = detail, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    ratio = fails.failed / fails.attempted
    print(f"metric failed_ops_ratio = {ratio:.6g} ratio "
          f"(failed={fails.failed}, attempted={fails.attempted})")
    values_ok = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": fails.failed == 0 and values_ok,
              "attempted": fails.attempted, "failed": fails.failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump({"env": env, "result": result, "detail": detail,
                   "failures": fails.messages}, f, sort_keys=True, indent=1,
                  default=float)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="infer_ocr_128, context_zoo_64, train_desk_32 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    ocrseg = import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    for name in names:
        print(f"== workload {name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     ocrseg)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
