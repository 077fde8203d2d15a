"""Dense tensor engine: reverse-mode autodiff over numpy buffers, plus
allocation accounting for the memory profiler.

Layout ops (``reshape``, ``transpose``) return views of their input's buffer
and allocate nothing; every other op writes into a fresh buffer it allocates
itself. No op writes into a buffer it did not allocate, so a view stays valid
for as long as it lives. Each op result carries a backward closure and a
creation index; ``backward`` replays the subgraph reachable from a scalar
loss once, in reverse creation order (a valid topological order), and
consumes it as it goes: each op result drops its closure and parents, so
the graph's buffers are freed during the replay and a second backward
through it raises ``StateError``. Only leaves (parameters, inputs) keep a
gradient; an op result's is dropped once its backward has run.

A backward computes nothing for an input that does not require grad and
returns ``None`` in its slot; it reads ``requires_grad`` when it runs, as
the replay does, so a forward pays nothing for the rule. A convolution's
weight, bias and batchnorm slots are always formed.
"""
from __future__ import annotations

import itertools
import math
import warnings
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DimensionError, ParameterError, StateError

DEFAULT_DTYPE = np.float64
BN_EPS = 1e-5
IGNORE_INDEX = 255  # the label of pixels that no loss, metric or region counts
# the frozen batchnorm's normaliser 1 / sqrt(1 + BN_EPS), in each dtype
_INV_STD = {np.dtype(t): 1.0 / np.sqrt(np.ones((), t) + BN_EPS) for t in (np.float32, np.float64)}

_node_ids = itertools.count()
_grad_enabled = True


class no_grad:
    """Context manager: ops inside do not record backward closures."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> bool:
        global _grad_enabled
        _grad_enabled = self._saved
        return False


# ---------------------------------------------------------------------------
# allocation accounting


_TRACKER: AllocationTracker | None = None

# While a list is installed here, every ``conv_bn_relu`` appends the smallest
# absolute pre-activation it saw. The gradient checker uses this to reject
# instances whose finite differences would straddle a ReLU kink.
_PREACT_TRACE: list | None = None


def _charge(buf: np.ndarray) -> None:
    """Charge ``buf``'s bytes to the open tracker until it is freed."""
    _TRACKER._alloc(buf.nbytes)
    weakref.finalize(buf, _TRACKER._free, buf.nbytes)


class AllocationTracker:
    """Tracks bytes held by Tensor data buffers, by ``attend``'s relation
    buffer, by a kxk conv's flat padded input (``_TapGrid``) and by the
    gradients a backward creates inside its scope.

    Only a tensor that owns its buffer (``data.base is None``) is charged; a
    view of another buffer adds nothing. A gradient charges the buffer it
    owns or views, once however many gradients share it. The charge is
    released when the buffer itself is freed, which a view can postpone past
    its owner tensor.
    Peak is monotone nondecreasing within the scope, and runs that would run
    at once are charged as one (``concurrent``); a new scope starts from
    zero. Buffers allocated before the scope opened are never charged, so a
    measurement excludes its inputs by construction. One scope is open at a
    time: opening a tracker inside another is a ``StateError``.
    """

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self._opened = False

    def __enter__(self) -> "AllocationTracker":
        global _TRACKER
        if self._opened:
            raise StateError("AllocationTracker scopes are single-use; create a new one")
        if _TRACKER is not None:
            raise StateError("an AllocationTracker is already open; one scope at a time")
        self._opened = True
        _TRACKER = self
        return self

    def __exit__(self, *exc) -> bool:
        global _TRACKER
        _TRACKER = None
        return False

    def _alloc(self, nbytes: int) -> None:
        self.current_bytes += nbytes
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def _free(self, nbytes: int) -> None:
        if _TRACKER is self:
            self.current_bytes -= nbytes

    def concurrent(self, runs) -> None:
        """Call each of ``runs`` in turn, charging the peak they would reach
        together if they ran at once: the bytes held when the first starts
        plus the sum of each one's own rise above what was held when it
        started. That is the most the runs can hold at once, whatever their
        threads' timing, and it does not vary from run to run."""
        peak, held, rises = self.peak_bytes, self.current_bytes, 0
        try:
            for run in runs:
                self.peak_bytes = start = self.current_bytes
                run()
                rises += self.peak_bytes - start
        finally:
            self.peak_bytes = max(peak, held + rises, self.peak_bytes)


# ---------------------------------------------------------------------------
# tensor and graph


class Tensor:
    """Dense real-valued array that is recorded in the autodiff graph when
    ``requires_grad`` is set. Only a leaf (a tensor no recorded op produced,
    such as a parameter) keeps a ``grad``, of ``data``'s shape, after
    backward; an op result's gradient lives only while ``backward`` replays
    it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_index", "_opname")

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and data.dtype in (
                np.float32, np.float64) else DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple["Tensor", ...] = ()
        self._backward_fn: Callable[[np.ndarray], tuple] | None = None
        self._index = next(_node_ids)
        self._opname = "leaf"
        if _TRACKER is not None and self.data.base is None:
            _charge(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self._opname}{flag})"


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], tuple], opname: str) -> Tensor:
    out = Tensor(data, dtype=data.dtype)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._backward_fn, out._opname = (
            True, tuple(parents), backward_fn, opname)
    return out


# a replayed result's closure: with None it would pass for a leaf, and a later
# backward through it would silently give it a gradient; ``backward`` calls it
# when its walk reaches one, before the replay changes any gradient
def _replayed(g):
    raise StateError("graph already replayed; backward consumes the graph it "
                     "replays, so build a new loss")


def backward(loss: Tensor) -> list[Tensor]:
    """Add d(loss)/d(leaf) to ``grad`` of every requires_grad leaf reachable
    from ``loss``, consuming the graph as it replays it; op results keep no
    gradient, and each one's is held only until its own backward has run.

    ``loss`` must be scalar. Returns the replayed op results in creation
    order.
    """
    if loss.data.shape != ():
        raise ParameterError(
            f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ParameterError("loss does not require grad; nothing to differentiate")
    # tensors hash by identity, so they key the walk and the gradients
    seen: set[Tensor] = set()
    nodes: list[Tensor] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._backward_fn is not None and t not in seen:
            seen.add(t)
            nodes.append(t)
            stack.extend(t._parents)
    if any(t._backward_fn is _replayed for t in nodes):
        _replayed(None)  # refuse before any leaf is given a gradient
    nodes.sort(key=lambda t: t._index)
    # owner buffers of the gradients charged so far, by id; the weak
    # reference tells a live owner from a freed one whose id was reused
    charged: dict[int, weakref.ref] | None = {} if _TRACKER is not None else None
    pending: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=loss.dtype)}
    for t in reversed(nodes):
        parents, backward_fn = t._parents, t._backward_fn
        t._parents, t._backward_fn = (), _replayed
        out_grad = pending.pop(t, None)
        if out_grad is None:
            continue  # recorded but not on a path to the loss
        for parent, g in zip(parents, backward_fn(out_grad)):
            if g is None or not parent.requires_grad:
                continue
            # the sum of two 0-d arrays is a numpy scalar, not a buffer
            if parent._backward_fn is None:
                parent.grad = kept = (g if parent.grad is None
                                      else np.asarray(parent.grad + g))
            else:
                kept = pending.get(parent)
                pending[parent] = kept = g if kept is None else np.asarray(kept + g)
            if charged is not None:
                while isinstance(kept.base, np.ndarray):
                    kept = kept.base
                ref = charged.get(id(kept))
                if ref is None or ref() is not kept:
                    charged[id(kept)] = weakref.ref(kept)
                    _charge(kept)
    return nodes


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# primitive ops


def _require_2d(t: Tensor, name: str) -> None:
    if t.data.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {t.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, "matmul lhs")
    _require_2d(b, "matmul rhs")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def back(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _result(out, (a, b), back, "matmul")


def transpose(t: Tensor) -> Tensor:
    """Transposed view of a 2-D tensor; no data moves. ``matmul`` hands the
    strided view to BLAS, which reads it through its transpose flag."""
    _require_2d(t, "transpose input")

    def back(g):
        return (g.T,)

    return _result(t.data.T, (t,), back, "transpose")


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View of ``t`` with a new shape; numpy copies only when the input's
    strides cannot express it (e.g. flattening a transposed view)."""
    if math.prod(shape) != t.data.size:
        raise DimensionError(f"cannot reshape {t.data.shape} to {shape}")
    out = t.data.reshape(shape)

    def back(g):
        return (g.reshape(t.data.shape),)

    return _result(out, (t,), back, "reshape")


# numpy reduces many short rows slowly (a (1024, 6) row max: 67 us, by columns
# 4 us, on a 2-vCPU VM), so rows of fewer than 8 entries are reduced a column
# at a time; numpy sums such a row in order from +0, as this does
def _reduce_rows(ufunc: np.ufunc, s: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(s, axis=1, keepdims=True)``, ``ufunc`` ``np.add`` or
    ``np.maximum``, of a 2-D ``s``; a zero maximum may differ in sign only."""
    if not 0 < s.shape[1] < 8:
        return ufunc.reduce(s, axis=1, keepdims=True)
    out = s[:, :1] + 0.0
    for j in range(1, s.shape[1]):
        ufunc(out, s[:, j:j + 1], out=out)
    return out


def _normalize_rows(s: np.ndarray, temperature: float = 1.0) -> None:
    """Row-wise softmax of the logits ``s`` divided by ``temperature``, in
    place, with max subtraction."""
    if temperature != 1.0:  # x / 1.0 is x
        s /= temperature
    s -= _reduce_rows(np.maximum, s)
    np.exp(s, out=s)
    s /= _reduce_rows(np.add, s)


def _softmax_grad(s: np.ndarray, g: np.ndarray, temperature: float,
                  fresh: bool = False) -> np.ndarray:
    """Gradient of the logits of row softmax ``s`` at ``temperature``, given
    the gradient ``g`` of ``s``. A ``fresh`` g, one the caller allocated and
    nothing else reads, is overwritten with it, in the same arithmetic."""
    ds = np.subtract(g, _reduce_rows(np.add, g * s), out=g if fresh else None)
    ds *= s
    if temperature != 1.0:  # x / 1.0 is x
        ds /= temperature
    return ds


def _temperature(scale: float) -> float:
    """The temperature 1/``scale`` of a relation's softmax."""
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise ParameterError(f"relation scale must be finite and > 0, got {scale}")
    return 1.0 / scale


def softmax_rows(x: Tensor, scale: float = 1.0) -> Tensor:
    """Row-wise softmax of ``scale * x`` with max subtraction, in a copy of
    the logits laid out as they are. Rows of the result lie on the
    probability simplex."""
    _require_2d(x, "softmax_rows input")
    temperature = _temperature(scale)
    s = x.data.copy(order="K")
    _normalize_rows(s, temperature)

    def back(g):
        return (_softmax_grad(s, g, temperature),)

    return _result(s, (x,), back, "softmax_rows")


def attend(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """Attention context softmax(scale * q^T k) v^T for (d, N) queries ``q``,
    (d, M) keys ``k`` and (C_v, M) values ``v``: the (N, C_v) array that
    ``matmul(softmax_rows(matmul(transpose(q), k), scale), transpose(v))``
    returns, bitwise when each block's products exceed 10^6 multiply-adds
    (below that, OpenBLAS's small-matrix kernel sums in another order).

    The relation is formed a block of rows at a time, as many as fill
    ``_ACCUMULATE_BYTES``: each block's product is normalised as
    ``softmax_rows`` normalises while it is in cache and multiplied by the
    values at once, so a band of the queries whose borders are not block
    borders of the whole image's relation may round its rows apart from the
    whole's. When the op records a backward, the blocks are rows of one
    (N, M) buffer that the backward keeps; otherwise they reuse one
    block-sized buffer, so nothing N x M is allocated. The backward runs in
    the same row blocks: per block, the weights' gradient g v, the logits'
    gradient ds, dq = (ds k^T)^T and dk = q ds, each block's ds freed before
    the next is formed; and dv = (s^T g)^T, so no (N, M) gradient exists.
    """
    _require_2d(q, "attend queries")
    _require_2d(k, "attend keys")
    if q.data.shape[0] != k.data.shape[0]:
        raise DimensionError(
            f"attend key widths differ: {q.data.shape} vs {k.data.shape}")
    temperature = _temperature(scale)
    _require_2d(v, "attend values")
    n, m = q.data.shape[1], k.data.shape[1]
    if v.data.shape[1] != m:
        raise DimensionError(f"attend values {v.data.shape} do not match keys {k.data.shape}")
    dtype = np.result_type(q.data, k.data)
    step = max(1, _ACCUMULATE_BYTES // (dtype.itemsize * max(m, 1)))
    blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    records = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    s = np.empty((blocks[0].stop if blocks and not records else n, m), dtype=dtype)
    if _TRACKER is not None:
        _charge(s)  # no tensor owns it
    ctx = np.empty((n, v.data.shape[0]), dtype=np.result_type(s, v.data))
    for rows in blocks:
        block = s[rows] if records else s[:rows.stop - rows.start]
        np.matmul(q.data[:, rows].T, k.data, out=block)
        _normalize_rows(block, temperature)
        np.matmul(block, v.data.T, out=ctx[rows])

    def back(g):
        dq_t = np.empty((n, q.data.shape[0]), dtype=s.dtype) if q.requires_grad else None
        dk = None
        for rows in blocks if q.requires_grad or k.requires_grad else ():
            ds = _softmax_grad(s[rows], g[rows] @ v.data, temperature, fresh=True)
            if dq_t is not None:
                np.matmul(ds, k.data.T, out=dq_t[rows])
            if k.requires_grad:
                if dk is None:
                    dk = q.data[:, rows] @ ds
                else:
                    dk += q.data[:, rows] @ ds
            del ds
        dv = (s.T @ g).T if v.requires_grad else None
        return None if dq_t is None else dq_t.T, dk, dv

    return _result(ctx, (q, k, v), back, "attend")


# Bytes of one block of a blocked product: the temporary through which a
# product is added into an output that already holds another one (a block of
# columns), and the rows of ``attend``'s relation, normalised while they are
# in cache. It is a budget per band worker (``models._BAND_WORKERS``, two), so
# two bands in flight hold what one 4 MiB block held. Narrower blocks cost
# BLAS speed: with single-threaded OpenBLAS on a 2-vCPU VM, 1 MiB blocks made
# a 128-row product over 16384 columns about 10% slower than whole.
_ACCUMULATE_BYTES = 1 << 21


def _gemm_accumulate(out2: np.ndarray, terms) -> None:
    """Write the sum of ``w @ x`` over ``terms`` (pairs of (M, K_t) and (K_t, N)
    matrices) into ``out2`` (M, N). The first product goes straight into
    ``out2``; each later one is added a block of columns at a time, formed in
    one scratch block that they share, and a later (K_t, 1) ``x`` adds its one
    column of products to every column."""
    m, n = out2.shape
    cols = max(1, min(n, _ACCUMULATE_BYTES // (out2.itemsize * max(m, 1))))
    scratch = None
    for i, (w, x) in enumerate(terms):
        if i == 0:
            np.matmul(w, x, out=out2)
        elif x.shape[1] == 1:
            out2 += w @ x
        else:
            if scratch is None or scratch.dtype != np.result_type(w, x):
                scratch = np.empty((m, cols), dtype=np.result_type(w, x))
            for j in range(0, n, cols):
                block = out2[:, j:j + cols]  # ``out2[...] += `` would copy it back
                block += np.matmul(w, x[:, j:j + cols], out=scratch[:, :block.shape[1]])


# The two input layouts of a convolution. Each holds ``terms``, pairs of a
# weight index and the input matrix that meets those weights; ``conv`` sums
# the terms' products into a fresh output, ``widen`` lays an output gradient
# out like the products, and ``backward`` returns the input gradients (``None``
# for an input that does not require grad) and the weight-shaped sum of g x^T
# over the terms.


class _Parts:
    """Pointwise input as column parts: (C_i, ...) tensors whose channels add
    up to the weight's C_in. Each part meets its own weight columns, so the
    parts are never concatenated. A later part has the first's trailing dims
    or is one column, (C_i, 1) or (C_i, 1, 1): its product is added to every
    output column, and its backward sums the gradient over the columns once."""

    def __init__(self, op: str, parts: Sequence[Tensor], weight: np.ndarray) -> None:
        shapes = [p.data.shape for p in parts]
        if not shapes:
            raise DimensionError(f"{op} needs at least one input part")
        dims = shapes[0][1:]
        if len(shapes[0]) not in (2, 3) or any(
                s[1:] not in (dims, (1,) * len(dims)) for s in shapes):
            raise DimensionError(f"{op} input must be 2-D or 3-D, each later part with "
                                 f"the first's trailing dims or one column, got {shapes}")
        bounds = list(itertools.accumulate((s[0] for s in shapes), initial=0))
        if bounds[-1] != weight.shape[1]:
            raise DimensionError(f"{op} weight {weight.shape} does not match input "
                                 f"channels {[s[0] for s in shapes]}")
        self.parts = parts
        self.terms = [((slice(None), slice(c0, c1)), p.data.reshape(c1 - c0, -1))
                      for p, c0, c1 in zip(parts, bounds, bounds[1:])]

    def conv(self, weight: np.ndarray, dtype) -> np.ndarray:
        out = np.empty((weight.shape[0],) + self.parts[0].data.shape[1:], dtype=dtype)
        _gemm_accumulate(out.reshape(weight.shape[0], -1),
                         ((weight[idx], xm) for idx, xm in self.terms))
        return out

    def widen(self, g: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """``g`` as (C_out, N), times ``mask`` if given."""
        g = g.reshape(g.shape[0], -1)
        return g if mask is None else g * mask.reshape(g.shape)

    def backward(self, g: np.ndarray, weight: np.ndarray):
        m = np.empty(weight.shape, dtype=weight.dtype)
        grads = []
        for (idx, xm), part in zip(self.terms, self.parts):
            gp = g if xm.shape[1] == g.shape[1] else g.sum(axis=1, keepdims=True)
            np.matmul(gp, xm.T, out=m[idx])
            grads.append((weight[idx].T @ gp).reshape(part.data.shape)
                         if part.requires_grad else None)
        return grads, m


class _Nearest:
    """Nearest-neighbour map of an h x w grid onto out_h x out_w, no smaller:
    output row y reads source row y*h // out_h, so each source row covers
    one run of output rows, in order, and likewise each column."""

    def __init__(self, h: int, w: int, out_h: int, out_w: int) -> None:
        self.cols = np.arange(out_w) * w // out_w
        rows = np.arange(out_h) * h // out_h
        self.row_starts = np.searchsorted(rows, np.arange(h))
        self.col_starts = np.searchsorted(self.cols, np.arange(w))
        self.row_runs = np.append(self.row_starts, out_h)

    def fill(self, dst: np.ndarray, src: np.ndarray, y0: int, y1: int) -> None:
        """Write output rows y0:y1 of the upsampled (C, h, w) ``src`` into
        (C, y1 - y0, out_w) ``dst``, one source row's run at a time."""
        for r, (a, b) in enumerate(zip(self.row_runs, self.row_runs[1:])):
            a, b = max(a, y0), min(b, y1)
            if a < b:
                dst[:, a - y0:b - y0] = src[:, r:r + 1, self.cols]

    def grad(self, g: np.ndarray) -> np.ndarray:
        """Sum of the (C, out_h, out_w) gradient ``g`` over each source
        cell's block: the (C, h, w) gradient of the source."""
        rows = np.add.reduceat(g, self.row_starts, axis=1)
        return np.add.reduceat(rows, self.col_starts, axis=2)


class _TapGrid:
    """(C_i, H, W) column parts, zero-padded once for a dilated k x k kernel
    that writes output rows r0:r1 (all H by default), into one flat
    (C, (h + (k-1)*g)*Wp + 2*pad) buffer, C the sum of the C_i, h = r1 - r0,
    Wp = W + 2*pad: the k groups of h rows that tap rows ky read, the image's
    rows from r0 + (ky - k//2)*d on (zero outside it), g = min(h, d) rows
    apart. With g = d they overlap into the band and its pad rows; a band
    thinner than d holds no row between them. Each part fills its own channel
    slice, so the buffer is the padded concatenation, never built unpadded.
    The first part sets H x W; a smaller part is nearest-upsampled to it as it
    is padded (``_Nearest``), and its gradient is summed back to its own size.

    Tap (ky, kx) reads the strided (C, h*Wp) window ``flat[:, o:o + h*Wp]``,
    o = ky*g*Wp + kx*d: column y*Wp + x of it is the image pixel
    (r0 + y + (ky - k//2)*d, x + (kx - k//2)*d), or zero padding, so the
    first W columns of each Wp-wide row are the tap's h x W patch and the
    last 2*pad are spill. BLAS reads the window as it is, so no tap is
    copied; the product over the padded width is handed out as its h x W
    crop (``conv``), and gradients enter with zero spill columns (``widen``).
    When a part requires grad, the taps' input products are summed into a
    flat buffer laid out like the input's, and each such part gets its
    channel slice of it, cropped to H x W (``backward``); an op that records a
    backward takes all H rows, and any other range is a ``ParameterError``.
    From a dilation of max(H, W) on, every off-centre tap reads only padding,
    so a larger one is clamped to it.
    """

    def __init__(self, op: str, parts: Sequence[Tensor], weight: np.ndarray,
                 dilation: int, rows: tuple[int, int] | None, records: bool) -> None:
        shapes = [p.data.shape for p in parts]
        if not shapes or any(len(s) != 3 for s in shapes):
            raise DimensionError(f"{op} takes (C_i, H, W) parts, got {shapes}")
        _, h, w = shapes[0]
        if any(s[1:] != (h, w) and not (0 < s[1] <= h and 0 < s[2] <= w) for s in shapes):
            raise DimensionError(f"{op} parts may be smaller than the first, not larger "
                                 f"or empty, got {shapes}")
        if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
            raise DimensionError(f"{op} weight must be (C_out, C_in, k, k), got {weight.shape}")
        k = weight.shape[2]
        if k % 2 == 0:
            raise ParameterError(f"{op} kernel size must be odd, got {k}")
        if int(dilation) < 1:
            raise ParameterError(f"{op} dilation must be >= 1, got {dilation}")
        self.bounds = list(itertools.accumulate((s[0] for s in shapes), initial=0))
        if weight.shape[1] != self.bounds[-1]:
            raise DimensionError(f"{op} weight {weight.shape} does not match input "
                                 f"channels {[s[0] for s in shapes]}")
        r0, r1 = (0, h) if rows is None else rows
        if not 0 <= r0 <= r1 <= h:
            raise ParameterError(f"{op} rows {r0}:{r1} are not rows of a {h}-row input")
        if records and (r0, r1) != (0, h):
            raise ParameterError(f"{op} records a backward, which takes all {h} "
                                 f"rows, not rows {r0}:{r1}")
        self.parts = parts
        self.h, self.w = r1 - r0, w
        d = min(int(dilation), max(h, w, 1))
        self.pad = pad = (k // 2) * d
        self.wp = wp = self.w + 2 * pad
        self.cols = self.h * wp
        self.g = g = min(self.h, d)
        self.flat = np.zeros((weight.shape[1], (self.h + (k - 1) * g) * wp + 2 * pad),
                             dtype=np.result_type(*(p.data for p in parts)))
        if _TRACKER is not None:
            _charge(self.flat)  # no tensor owns it
        self.maps = [None if s[1:] == (h, w) else _Nearest(*s[1:], h, w) for s in shapes]
        # (first grid row, first image row, rows) of each run the taps read
        runs = [(ky * g, r0 + (ky - k // 2) * d, g if ky < k - 1 else self.h)
                for ky in range(k)]
        for j, a, n in runs:
            y0, y1 = (min(max(y, 0), h) for y in (a, a + n))  # empty: all padding
            image = self._image(self.flat)[:, j + y0 - a:j + y1 - a, pad:pad + w]
            for part, near, c0, c1 in zip(parts, self.maps, self.bounds, self.bounds[1:]):
                if near is None:
                    image[c0:c1] = part.data[:, y0:y1]
                else:
                    near.fill(image[c0:c1], part.data, y0, y1)
        self.windows, self.terms = [], []
        for ky in range(k):
            for kx in range(k):
                o = ky * g * wp + kx * d
                self.windows.append(slice(o, o + self.cols))
                self.terms.append(((slice(None), slice(None), ky, kx),
                                   self.flat[:, self.windows[-1]]))

    def _image(self, flat: np.ndarray) -> np.ndarray:
        return flat[:, :flat.shape[1] - 2 * self.pad].reshape(
            flat.shape[0], -1, self.wp)

    def conv(self, weight: np.ndarray, dtype) -> np.ndarray:
        """Sum of the taps' products: one fresh (C_out, H, Wp) product over
        the padded width, returned as its (C_out, H, W) crop, a view unless
        there is no padding."""
        wide = np.empty((weight.shape[0], self.h, self.wp), dtype=dtype)
        _gemm_accumulate(wide.reshape(weight.shape[0], self.cols),
                         ((weight[idx], xm) for idx, xm in self.terms))
        return wide[:, :, :self.w] if self.pad else wide

    def widen(self, g: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """(C_out, H*Wp) copy of ``g`` (C_out, H, W), times ``mask`` if given,
        with zero spill columns."""
        wide = np.zeros((g.shape[0], self.h, self.wp), dtype=g.dtype)
        if mask is None:
            wide[:, :, :self.w] = g
        else:
            np.multiply(g, mask, out=wide[:, :, :self.w])
        return wide.reshape(g.shape[0], self.cols)

    def backward(self, g: np.ndarray, weight: np.ndarray):
        # m is a (C_out, C_in, k, k) view of the taps' (C_out, C_in) products
        k = weight.shape[2]
        taps = np.empty((k, k) + weight.shape[:2], dtype=weight.dtype)
        for (_, _, ky, kx), xm in self.terms:
            np.matmul(g, xm.T, out=taps[ky, kx])
        m = taps.transpose(2, 3, 0, 1)
        if not any(p.requires_grad for p in self.parts):
            return [None] * len(self.parts), m
        gflat = np.zeros_like(self.flat)
        for (idx, _), win in zip(self.terms, self.windows):
            gflat[:, win] += weight[idx].T @ g
        top = weight.shape[2] // 2 * self.g  # the band's grid rows
        crop = self._image(gflat)[:, top:top + self.h, self.pad:self.pad + self.w]
        return [None if not p.requires_grad else
                crop[c0:c1] if near is None else near.grad(crop[c0:c1])
                for p, near, c0, c1 in zip(self.parts, self.maps, self.bounds,
                                           self.bounds[1:])], m


def conv1x1(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Pointwise convolution. ``x`` is (C_in, N) or (C_in, H, W); ``weight`` is
    (C_out, C_in); optional ``bias`` is (C_out,). Output rank matches input."""
    _require_2d(weight, "conv1x1 weight")
    layout = _Parts("conv1x1", (x,), weight.data)
    if bias is not None and bias.data.shape != (weight.data.shape[0],):
        raise DimensionError(
            f"conv1x1 bias shape {bias.data.shape} does not match out channels "
            f"{weight.data.shape[0]}")
    out = layout.conv(weight.data, np.result_type(weight.data, x.data))
    if bias is not None:
        out += bias.data.reshape((-1,) + (1,) * (out.ndim - 1))

    def back(g):
        g = layout.widen(g)
        (gx,), gw = layout.backward(g, weight.data)
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=1))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, back, "conv1x1")


def conv_spatial(x: Tensor, branches: Sequence[tuple[int, Tensor]],
                 rows: tuple[int, int] | None = None) -> Tensor:
    """Bias-free dilated 2-D convolutions of one (C_in, H, W) input, zero-padded
    to keep H x W: one per (dilation, (C_i, C_in, k, k) weight) branch with
    odd k, each written into its channel slice of the output, in branch order.
    ``rows`` = (r0, r1) computes only those output rows, a (C, r1 - r0, W)
    output bitwise equal to that slice of the whole one, from the input rows
    the band's taps read (``_TapGrid``); an op that records a backward takes
    the whole image, the default.

    The widest dilation runs first. Unless the op records a backward, each
    branch's padded input is freed before the output is allocated or the next
    branch is built, so the output never coexists with the widest padded
    input. The backward sums the branches' input gradients.
    """
    if not branches:
        raise DimensionError("conv_spatial needs at least one (dilation, weight) branch")
    weights = [w for _, w in branches]
    bounds = np.cumsum([0] + [w.data.shape[0] for w in weights])
    records = _grad_enabled and any(t.requires_grad for t in (x, *weights))
    grids, out = {}, None
    for i in sorted(range(len(branches)), key=lambda i: -branches[i][0]):
        grids[i] = _TapGrid("conv_spatial", (x,), weights[i].data, branches[i][0],
                            rows, records)
        crop = grids[i].conv(weights[i].data, x.dtype)
        if not records:
            del grids[i]
        if out is None:
            out = np.empty((bounds[-1],) + crop.shape[1:], dtype=x.dtype)
            if _TRACKER is not None:
                _charge(out)  # the op result is a view of it, charged here once
        out[bounds[i]:bounds[i + 1]] = crop
        del crop

    def back(g):
        gx, gws = None, [None] * len(weights)
        for i, grid in grids.items():  # gx is None for all or for none
            (gi,), gws[i] = grid.backward(grid.widen(g[bounds[i]:bounds[i + 1]]),
                                          weights[i].data)
            gx = gi if gx is None else gx + gi
        return (gx, *gws)

    return _result(out[...], (x, *weights), back, "conv_spatial")


def conv_bn_relu(x: Tensor | Sequence[Tensor], weight: Tensor, gain: Tensor,
                 shift: Tensor, rows: tuple[int, int] | None = None) -> Tensor:
    """One transform block, ``relu(s * (W x) + shift)`` per output channel, in
    the one buffer the op allocates; a batchnorm frozen at mean 0 and variance
    1 folds into ``s = gain * inv_std``, with ``inv_std = 1 / sqrt(1 + BN_EPS)``
    in the gain's dtype.

    A (C_out, C_in) ``weight`` is pointwise, and ``x`` is one (C_in, ...)
    tensor or a sequence of column parts whose channels add up to C_in, of
    which all but the first may be one column, standing for that column at
    every position (``_Parts``). A (C_out, C_in, k, k) ``weight`` convolves a
    zero-padded (C_in, H, W) input, given whole or as (C_i, H, W) column
    parts, of which all but the first may be smaller and are
    nearest-upsampled to H x W, its taps reading windows of one flat padded
    buffer (``_TapGrid``); ``rows`` = (r0, r1) gives only those output rows,
    as ``conv_spatial`` does. Each part's or tap's product accumulates into the
    output, which then takes the batchnorm and the ReLU in place. While
    ``_PREACT_TRACE`` is a list, the smallest absolute pre-activation is
    appended to it. The backward reads the ReLU mask off the output: with g'
    the masked gradient and M = g' x^T per part or tap, the weight gets s * M,
    the gain (sum of W * M) * inv_std, and the input (s * W)^T g', whose
    scaled weight is formed only when some input part requires grad.
    """
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    if weight.data.ndim == 2:
        if rows is not None:
            raise ParameterError("conv_bn_relu rows apply to a k x k weight")
        layout = _Parts("conv_bn_relu", parts, weight.data)
    else:
        records = _grad_enabled and any(
            t.requires_grad for t in (*parts, weight, gain, shift))
        layout = _TapGrid("conv_bn_relu", parts, weight.data, 1, rows, records)
    c_out = weight.data.shape[0]
    for name, arr in (("gain", gain.data), ("shift", shift.data)):
        if arr.shape != (c_out,):
            raise DimensionError(
                f"conv_bn_relu {name} shape {arr.shape} does not match {c_out} channels")

    out = np.ascontiguousarray(
        layout.conv(weight.data, np.result_type(weight.data, *(p.data for p in parts))))
    out2 = out.reshape(c_out, -1)
    inv_std = _INV_STD[gain.dtype]
    s = gain.data * inv_std
    out2 *= s[:, None]
    out2 += shift.data[:, None]
    if _PREACT_TRACE is not None and out.size:
        _PREACT_TRACE.append(float(np.abs(out2).min()))
    np.maximum(out2, 0.0, out=out2)

    def back(g):
        g = layout.widen(g, out > 0.0)
        g_shift = np.add.reduce(g, axis=1)
        s_w = s.reshape((c_out,) + (1,) * (weight.data.ndim - 1))
        # without an input gradient the weight gives only the shape of m
        scaled = any(p.requires_grad for p in parts)
        gparts, m = layout.backward(g, weight.data * s_w if scaled else weight.data)
        # per term, in term order: one sum over the whole weight rounds differently
        g_wm = np.zeros(c_out, dtype=g_shift.dtype)
        for idx, _ in layout.terms:
            g_wm += np.add.reduce(weight.data[idx] * m[idx], axis=1)
        m *= s_w
        return (*gparts, m, g_wm * inv_std, g_shift)

    return _result(out, (*parts, weight, gain, shift), back, "conv_bn_relu")


def _pool_bounds(size: int, bins: int) -> list[tuple[int, int]]:
    return [(i * size // bins, (i + 1) * size // bins) for i in range(bins)]


def avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive average pooling of (C, H, W) onto a disjoint out_h x out_w grid."""
    if x.data.ndim != 3:
        raise DimensionError(f"avg_pool2d input must be (C, H, W), got {x.data.shape}")
    c, h, w = x.data.shape
    if out_h < 1 or out_w < 1 or out_h > h or out_w > w:
        raise ParameterError(
            f"pool grid {out_h}x{out_w} invalid for input {h}x{w}")
    rows = _pool_bounds(h, out_h)
    cols = _pool_bounds(w, out_w)
    out = np.zeros((c, out_h, out_w), dtype=x.dtype)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            out[:, i, j] = x.data[:, r0:r1, c0:c1].mean(axis=(1, 2))

    def back(g):
        gx = np.zeros_like(x.data)
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                area = (r1 - r0) * (c1 - c0)
                gx[:, r0:r1, c0:c1] += g[:, i, j][:, None, None] / area
        return (gx,)

    return _result(out, (x,), back, "avg_pool2d")


def cross_entropy_logits(terms: Sequence[tuple[Tensor, float]], labels: np.ndarray) -> Tensor:
    """Weighted sum of mean pixel-wise cross entropies: one term per (logits,
    weight) pair, each (K_i, N) logits against the same N integer labels.

    Pixels labeled ``IGNORE_INDEX`` contribute nothing. If every pixel is
    ignored each term is defined as 0 and a warning is emitted.
    """
    terms = [(logits, float(weight)) for logits, weight in terms]
    if not terms:
        raise ParameterError("cross_entropy needs at least one (logits, weight) term")
    labels = np.asarray(labels)
    idx = np.where(labels != IGNORE_INDEX)[0]
    m = max(idx.size, 1)  # no valid pixel: the empty sum over 1 is +0.0
    # with no pixel ignored the kept labels are all of them, in order
    kept = labels if idx.size == labels.size else labels[idx]
    logps, total = [], None
    for logits, weight in terms:
        _require_2d(logits, "cross_entropy logits")
        if labels.ndim != 1 or labels.shape[0] != logits.data.shape[1]:
            raise DimensionError(f"labels shape {labels.shape} does not match "
                                 f"logits {logits.data.shape}")
        k = logits.data.shape[0]
        if idx.size and (kept.min() < 0 or kept.max() >= k):
            raise DataError(
                f"labels must lie in [0, {k}) or equal ignore_index {IGNORE_INDEX}")
        z = logits.data - logits.data.max(axis=0, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))  # (K, N)
        logps.append(logp)
        picked = logp[kept, idx]
        term = np.asarray((0.0 - picked.sum()) / m, dtype=logits.dtype) * weight
        total = term if total is None else total + term
    if not idx.size:
        warnings.warn("cross entropy over fully ignored labels; loss defined as 0",
                      RuntimeWarning, stacklevel=2)

    def back(g):
        grads = []
        for (logits, weight), logp in zip(terms, logps):
            if not logits.requires_grad:
                grads.append(None)
                continue
            gl = np.exp(logp)
            if kept is not labels:  # ignored pixels get no gradient
                gl[:, labels == IGNORE_INDEX] = 0.0
            gl[kept, idx] -= 1.0
            grads.append(gl * (float(g * weight) / m))
        return grads

    return _result(np.asarray(total), [t for t, _ in terms], back, "cross_entropy")
