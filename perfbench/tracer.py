"""Outside tracer: wraps the public functions and methods of the ocrseg layer
modules from the benchmark's own code, records one span per call, and restores
every patch on exit.

A function imported by name into another module (``from .context import
ocr_forward`` in ``models``) is patched in every module that binds it, so each
caller finds the wrapper where it looks the name up. Methods are patched on the
class that defines them, which covers every caller and subclass.

Spans live in flat lists until the run ends: qualified-name id, parent span,
operation id, start and end in ns, output bytes (tensor layer) and FLOPs
(GEMM ops, 2*m*k*n from the operand shapes).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Timed layers, in dependency order. ``attention`` and ``profiler`` are only
# checked for correctness; ``cli``, ``config``, ``errors``, ``flopcount`` and
# ``checks`` are not measured.
LAYERS = ("tensor", "blocks", "context", "models", "supervision", "data", "train")

BENCH = "bench"


def _gemm_flops(name, args):
    a, b = args[0].data, args[1].data
    if name == "matmul":
        return 2 * a.shape[0] * a.shape[1] * b.shape[1]
    # conv1x1(x, weight): weight is (C_out, C_in), x is (C_in, ...)
    return 2 * b.shape[0] * b.shape[1] * (a.size // a.shape[0])


class Tracer:
    """Span recorder. ``install`` patches the layers; ``close`` restores them."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []   # id -> (layer, qualname)
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.nbytes: list[int] = []
        self.flops: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, layer: str, qualname: str) -> int:
        key = (layer, qualname)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nbytes.append(0)
        self.flops.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, label: str):
        """Context manager for a span owned by the benchmark itself."""
        return _BenchSpan(self, self.intern(BENCH, label))

    def wrap(self, layer: str, qualname: str, fn):
        nid = self.intern(layer, qualname)
        short = qualname.rsplit(".", 1)[-1]
        is_gemm = layer == "tensor" and short in ("matmul", "conv1x1")
        is_tensor_op = layer == "tensor"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_tensor_op:
                data = getattr(out, "data", None)
                tracer.nbytes[idx] = getattr(data, "nbytes", 0)
                if is_gemm:
                    tracer.flops[idx] = _gemm_flops(short, args)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("ocrseg")
        modules = [importlib.import_module(f"ocrseg.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        try:
            for layer in LAYERS:
                mod = importlib.import_module(f"ocrseg.{layer}")
                for name, obj in list(vars(mod).items()):
                    if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrapped = self.wrap(layer, name, obj)
                        for target in modules:
                            for attr, val in list(vars(target).items()):
                                if val is obj:
                                    self._patch(target, attr, wrapped)
                    elif inspect.isclass(obj):
                        for attr, val in list(vars(obj).items()):
                            if inspect.isfunction(val) and (
                                    attr == "__call__" or not attr.startswith("_")):
                                self._patch(obj, attr,
                                            self.wrap(layer, f"{name}.{attr}", val))
        except BaseException:
            self.close()
            raise

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def close(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class _BenchSpan:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self.idx)
        return False


class SpanTable:
    """Derived per-span values: duration, self time, layer, and for a set of
    qualified names whether an ancestor already belongs to the set."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        n = len(tracer.name_id)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [self.dur[i] - child[i] for i in range(n)]
        self.layer = [tracer.names[tracer.name_id[i]][0] for i in range(n)]
        self.qual = [tracer.names[tracer.name_id[i]][1] for i in range(n)]

    def spans_of_op(self, op_id: int) -> list[int]:
        return [i for i, o in enumerate(self.t.op) if o == op_id]

    def outermost(self, idxs: list[int], names: set[str]) -> list[int]:
        """Spans in ``idxs`` named in ``names`` that have no ancestor so named."""
        inside: dict[int, bool] = {}
        out = []
        for i in idxs:  # spans are in start order, so parents come first
            p = self.t.parent[i]
            covered = p >= 0 and (inside.get(p, False) or self.qual[p] in names)
            inside[i] = covered
            if self.qual[i] in names and not covered:
                out.append(i)
        return out

    def children(self, idxs: list[int]) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i in idxs:
            kids.setdefault(self.t.parent[i], []).append(i)
        return kids

    def records(self):
        """Every span as a JSON-ready dict, for writing out at the end."""
        t = self.t
        for i in range(len(t.name_id)):
            yield {"id": i, "layer": self.layer[i], "name": self.qual[i],
                   "parent": t.parent[i], "op": t.op[i], "start_ns": t.start[i],
                   "end_ns": t.end[i], "self_ns": self.self_ns[i],
                   "bytes_out": t.nbytes[i], "flops": t.flops[i]}
