"""Dense tensor engine: reverse-mode autodiff over numpy buffers, plus
allocation accounting for the memory profiler.

Layout ops (``reshape``, ``transpose``) return views of their input's buffer
and allocate nothing; every other op writes into a fresh buffer it allocates
itself. No op writes into a buffer it did not allocate, so a view stays valid
for as long as it lives. Each op result carries a backward closure and a
creation index; ``backward`` linearizes the subgraph reachable from a scalar
loss into a :class:`GradTape` (creation order is a valid topological order)
and replays it exactly once in reverse.
"""
from __future__ import annotations

import itertools
import warnings
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DimensionError, ParameterError, StateError

DEFAULT_DTYPE = np.float64

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


_TRACKER_STACK: list["AllocationTracker"] = []


def _release_bytes(trackers: tuple["AllocationTracker", ...], nbytes: int) -> None:
    for tracker in trackers:
        tracker._free(nbytes)


class AllocationTracker:
    """Tracks bytes held by Tensor data buffers created inside its scope.

    Only a tensor that owns its buffer (``data.base is None``) is charged; a
    view of another buffer adds nothing. The charge is released when the
    buffer itself is freed, which a view can postpone past its owner tensor.
    Peak is monotone nondecreasing within the scope; a new scope starts from
    zero. Buffers allocated before the scope opened are never charged, so a
    measurement excludes its inputs by construction.
    """

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self.active = False
        self._opened = False

    def __enter__(self) -> "AllocationTracker":
        if self.active or self._opened:
            raise StateError("AllocationTracker scopes are single-use; create a new one")
        self.active = True
        self._opened = True
        _TRACKER_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.active = False
        _TRACKER_STACK.remove(self)
        return False

    def _alloc(self, nbytes: int) -> None:
        self.current_bytes += nbytes
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def _free(self, nbytes: int) -> None:
        if self.active:
            self.current_bytes -= nbytes

    def stats(self) -> tuple[int, int]:
        return self.current_bytes, self.peak_bytes


def tracked_alloc_stats() -> tuple[int, int]:
    """(current_bytes, peak_bytes) of the innermost open tracking scope."""
    if not _TRACKER_STACK:
        raise StateError("allocation tracking is not enabled; open an AllocationTracker scope")
    return _TRACKER_STACK[-1].stats()


# ---------------------------------------------------------------------------
# tensor and tape


class Tensor:
    """Dense real-valued array that participates in the gradient tape when
    ``requires_grad`` is set. ``grad`` matches ``data``'s shape after backward."""

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
        if _TRACKER_STACK and self.data.base is None:
            trackers = tuple(t for t in _TRACKER_STACK if t.active)
            for tracker in trackers:
                tracker._alloc(self.data.nbytes)
            weakref.finalize(self.data, _release_bytes, trackers, self.data.nbytes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> "GradTape":
        return backward(self)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self._opname}{flag})"


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], tuple], opname: str) -> Tensor:
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs, dtype=data.dtype)
    if needs:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._opname = opname
    return out


class GradTape:
    """Topologically ordered record of the ops reachable from one result.

    ``nodes`` holds op-result tensors in ascending creation index, which is a
    topological order because an op's inputs always predate its output. The
    tape is single-use: replaying it twice would double-accumulate gradients.
    """

    def __init__(self, nodes: list[Tensor]) -> None:
        self.nodes = nodes
        self.consumed = False

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        seen: set[int] = set()
        nodes: list[Tensor] = []
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen or t._backward_fn is None:
                continue
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
        nodes.sort(key=lambda t: t._index)
        return cls(nodes)

    def run(self, root: Tensor) -> None:
        if self.consumed:
            raise StateError("gradient tape already replayed; tapes are single-use")
        self.consumed = True
        pending: dict[int, np.ndarray] = {id(root): np.ones((), dtype=root.dtype)}
        for t in reversed(self.nodes):
            out_grad = pending.pop(id(t), None)
            if out_grad is None:
                continue  # recorded but not on a path to the root
            t.grad = out_grad if t.grad is None else t.grad + out_grad
            grads = t._backward_fn(out_grad)
            for parent, g in zip(t._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent._backward_fn is None:
                    parent.grad = g if parent.grad is None else parent.grad + g
                else:
                    key = id(parent)
                    pending[key] = g if key not in pending else pending[key] + g


def backward(loss: Tensor, tape: GradTape | None = None) -> GradTape:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be scalar. Returns the (now consumed) tape.
    """
    if loss.data.shape != ():
        raise ParameterError(
            f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ParameterError("loss does not require grad; nothing to differentiate")
    if tape is None:
        tape = GradTape.trace(loss)
    tape.run(loss)
    return tape


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
        return g @ b.data.T, a.data.T @ g

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
    if int(np.prod(shape)) != t.data.size:
        raise DimensionError(f"cannot reshape {t.data.shape} to {shape}")
    out = t.data.reshape(shape)

    def back(g):
        return (g.reshape(t.data.shape),)

    return _result(out, (t,), back, "reshape")


def concat0(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along axis 0 (the channel axis for pixel matrices)."""
    if a.data.shape[1:] != b.data.shape[1:]:
        raise DimensionError(
            f"concat0 trailing dims differ: {a.data.shape} vs {b.data.shape}")
    out = np.concatenate([a.data, b.data], axis=0)
    split = a.data.shape[0]

    def back(g):
        return g[:split], g[split:]

    return _result(out, (a, b), back, "concat0")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data

    def back(g):
        return g, g

    return _result(out, (a, b), back, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shapes differ: {a.data.shape} vs {b.data.shape}")
    out = a.data * b.data

    def back(g):
        return g * b.data, g * a.data

    return _result(out, (a, b), back, "mul")


def scale(t: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = t.data * factor

    def back(g):
        return (g * factor,)

    return _result(out, (t,), back, "scale")


def add_col(x: Tensor, v: Tensor) -> Tensor:
    """Add a per-row vector ``v`` (length M) to every column of ``x`` (M x N)."""
    _require_2d(x, "add_col input")
    if v.data.shape != (x.data.shape[0],):
        raise DimensionError(
            f"add_col vector shape {v.data.shape} does not match rows of {x.data.shape}")
    out = x.data + v.data[:, None]

    def back(g):
        return g, g.sum(axis=1)

    return _result(out, (x, v), back, "add_col")


def mul_col(x: Tensor, v: Tensor) -> Tensor:
    """Scale every column of ``x`` (M x N) by the per-row vector ``v``."""
    _require_2d(x, "mul_col input")
    if v.data.shape != (x.data.shape[0],):
        raise DimensionError(
            f"mul_col vector shape {v.data.shape} does not match rows of {x.data.shape}")
    out = x.data * v.data[:, None]

    def back(g):
        return g * v.data[:, None], (g * x.data).sum(axis=1)

    return _result(out, (x, v), back, "mul_col")


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)
    mask = t.data > 0.0

    def back(g):
        return (g * mask,)

    return _result(out, (t,), back, "relu")


def affine_relu(h: Tensor, gain: Tensor, shift: Tensor, inv_std: np.ndarray,
                mean: np.ndarray, trace: list | None = None) -> Tensor:
    """Frozen-stats batchnorm and ReLU in one pass over a fresh buffer.

    Computes ``relu(s * h + b)`` per channel (axis 0 of ``h``), with the
    statistics folded into ``s = gain * inv_std`` and ``b = shift - mean * s``.
    ``gain`` and ``shift`` are learnable (C,) tensors; ``inv_std`` and ``mean``
    are fixed (C,) arrays. When ``trace`` is a list, the smallest absolute
    pre-activation is appended to it. The backward returns grads for ``h``,
    ``gain`` and ``shift`` and reads the ReLU mask off the output.
    """
    if h.data.ndim < 2:
        raise DimensionError(f"affine_relu input must be (C, ...), got {h.data.shape}")
    c = h.data.shape[0]
    for name, arr in (("gain", gain.data), ("shift", shift.data),
                      ("inv_std", inv_std), ("mean", mean)):
        if arr.shape != (c,):
            raise DimensionError(
                f"affine_relu {name} shape {arr.shape} does not match {c} channels")
    per_channel = (c,) + (1,) * (h.data.ndim - 1)
    s = gain.data * inv_std
    b = (shift.data - mean * s).reshape(per_channel)
    s = s.reshape(per_channel)
    out = h.data * s
    out += b
    if trace is not None and out.size:
        trace.append(float(np.abs(out).min()))
    np.maximum(out, 0.0, out=out)
    other_axes = tuple(range(1, h.data.ndim))

    def back(g):
        g = g * (out > 0.0)
        g_shift = g.sum(axis=other_axes)
        g_gain = ((g * h.data).sum(axis=other_axes) - mean * g_shift) * inv_std
        return g * s, g_gain, g_shift

    return _result(out, (h, gain, shift), back, "affine_relu")


def softmax_rows(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax with max subtraction; logits are divided by
    ``temperature`` first. Rows of the result lie on the probability simplex."""
    _require_2d(x, "softmax_rows input")
    temperature = float(temperature)
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise ParameterError(f"softmax temperature must be finite and > 0, got {temperature}")
    s = x.data / temperature
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)

    def back(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner) / temperature,)

    return _result(s, (x,), back, "softmax_rows")


def sum_all(t: Tensor) -> Tensor:
    out = np.asarray(t.data.sum())

    def back(g):
        return (np.full(t.data.shape, g, dtype=t.dtype),)

    return _result(out, (t,), back, "sum_all")


def mean_cols(x: Tensor) -> Tensor:
    """Column mean of an M x N matrix, returned as M x 1."""
    _require_2d(x, "mean_cols input")
    n = x.data.shape[1]
    out = x.data.mean(axis=1, keepdims=True)

    def back(g):
        return (np.repeat(g, n, axis=1) / n,)

    return _result(out, (x,), back, "mean_cols")


def tile_cols(x: Tensor, n: int) -> Tensor:
    """Broadcast an M x 1 column to M x n."""
    _require_2d(x, "tile_cols input")
    if x.data.shape[1] != 1:
        raise DimensionError(f"tile_cols expects one column, got {x.data.shape}")
    out = np.repeat(x.data, n, axis=1)

    def back(g):
        return (g.sum(axis=1, keepdims=True),)

    return _result(out, (x,), back, "tile_cols")


def conv1x1(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Pointwise convolution. ``x`` is (C_in, N) or (C_in, H, W); ``weight`` is
    (C_out, C_in); optional ``bias`` is (C_out,). Output rank matches input."""
    _require_2d(weight, "conv1x1 weight")
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"conv1x1 input must be 2-D or 3-D, got {x.data.shape}")
    c_in = x.data.shape[0]
    if weight.data.shape[1] != c_in:
        raise DimensionError(
            f"conv1x1 weight {weight.data.shape} does not match input channels {x.data.shape}")
    if bias is not None and bias.data.shape != (weight.data.shape[0],):
        raise DimensionError(
            f"conv1x1 bias shape {bias.data.shape} does not match out channels "
            f"{weight.data.shape[0]}")
    c_out = weight.data.shape[0]
    flat = x.data.reshape(c_in, -1)
    # the result owns its buffer: the GEMM writes into a 2-D view of it
    out = np.empty((c_out,) + x.data.shape[1:], dtype=np.result_type(weight.data, flat))
    out2 = out.reshape(c_out, -1)
    np.matmul(weight.data, flat, out=out2)
    if bias is not None:
        out2 += bias.data[:, None]

    def back(g):
        g2 = g.reshape(c_out, -1)
        gx = (weight.data.T @ g2).reshape(x.data.shape)
        gw = g2 @ flat.T
        gb = g2.sum(axis=1) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, back, "conv1x1")


def conv_spatial(x: Tensor, weight: Tensor, dilation: int = 1,
                 bias: Tensor | None = None) -> Tensor:
    """Dilated 2-D convolution with zero padding that preserves H x W.

    ``x`` is (C_in, H, W); ``weight`` is (C_out, C_in, k, k) with odd k.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"conv_spatial input must be (C, H, W), got {x.data.shape}")
    if weight.data.ndim != 4 or weight.data.shape[2] != weight.data.shape[3]:
        raise DimensionError(f"conv_spatial weight must be (C_out, C_in, k, k), "
                             f"got {weight.data.shape}")
    c_out, c_in, k, _ = weight.data.shape
    if k % 2 == 0:
        raise ParameterError(f"conv_spatial kernel size must be odd, got {k}")
    if int(dilation) < 1:
        raise ParameterError(f"conv_spatial dilation must be >= 1, got {dilation}")
    if c_in != x.data.shape[0]:
        raise DimensionError(
            f"conv_spatial weight {weight.data.shape} does not match input {x.data.shape}")
    dilation = int(dilation)
    _, h, w = x.data.shape
    r = k // 2
    ph = pw = r * dilation
    xpad = np.zeros((c_in, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xpad[:, ph:ph + h, pw:pw + w] = x.data
    n = h * w
    out = np.zeros((c_out, h, w), dtype=x.dtype)
    out2 = out.reshape(c_out, n)
    for ky in range(k):
        for kx in range(k):
            dy = (ky - r) * dilation
            dx = (kx - r) * dilation
            patch = xpad[:, ph + dy:ph + dy + h, pw + dx:pw + dx + w].reshape(c_in, n)
            out2 += weight.data[:, :, ky, kx] @ patch
    if bias is not None:
        if bias.data.shape != (c_out,):
            raise DimensionError(f"conv_spatial bias shape {bias.data.shape} "
                                 f"does not match out channels {c_out}")
        out2 += bias.data[:, None]

    def back(g):
        g2 = g.reshape(c_out, n)
        gxpad = np.zeros_like(xpad)
        gw = np.zeros_like(weight.data)
        for ky in range(k):
            for kx in range(k):
                dy = (ky - r) * dilation
                dx = (kx - r) * dilation
                patch = xpad[:, ph + dy:ph + dy + h, pw + dx:pw + dx + w].reshape(c_in, n)
                gw[:, :, ky, kx] = g2 @ patch.T
                gxpad[:, ph + dy:ph + dy + h, pw + dx:pw + dx + w] += (
                    weight.data[:, :, ky, kx].T @ g2).reshape(c_in, h, w)
        gx = gxpad[:, ph:ph + h, pw:pw + w]
        gb = g2.sum(axis=1) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, back, "conv_spatial")


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


def upsample_nearest(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbor upsampling of (C, h, w) to (C, out_h, out_w)."""
    if x.data.ndim != 3:
        raise DimensionError(f"upsample input must be (C, h, w), got {x.data.shape}")
    c, h, w = x.data.shape
    if out_h < h or out_w < w:
        raise ParameterError(f"upsample target {out_h}x{out_w} smaller than input {h}x{w}")
    src_r = np.arange(out_h) * h // out_h
    src_c = np.arange(out_w) * w // out_w
    out = x.data[:, src_r][:, :, src_c]

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), src_r[:, None], src_c[None, :]), g)
        return (gx,)

    return _result(np.ascontiguousarray(out), (x,), back, "upsample_nearest")


def cross_entropy_logits(logits: Tensor, labels: np.ndarray,
                         ignore_index: int = 255) -> Tensor:
    """Mean pixel-wise cross entropy of (K, N) logits against N integer labels.

    Pixels labeled ``ignore_index`` contribute nothing. If every pixel is
    ignored the loss is defined as 0 and a warning is emitted.
    """
    _require_2d(logits, "cross_entropy logits")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.data.shape[1]:
        raise DimensionError(
            f"labels shape {labels.shape} does not match logits {logits.data.shape}")
    k = logits.data.shape[0]
    valid = labels != ignore_index
    if valid.any() and (labels[valid].min() < 0 or labels[valid].max() >= k):
        raise DataError(
            f"labels must lie in [0, {k}) or equal ignore_index {ignore_index}")
    m = int(valid.sum())
    if m == 0:
        warnings.warn("cross entropy over fully ignored labels; loss defined as 0",
                      RuntimeWarning, stacklevel=2)

        def back_zero(g):
            return (np.zeros_like(logits.data),)

        return _result(np.asarray(0.0, dtype=logits.dtype), (logits,), back_zero,
                       "cross_entropy")
    z = logits.data - logits.data.max(axis=0, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=0, keepdims=True))
    logp = z - lse  # (K, N) log probabilities per pixel
    idx = np.where(valid)[0]
    picked = logp[labels[idx], idx]
    loss = -picked.sum() / m

    def back(g):
        p = np.exp(logp)
        gl = np.zeros_like(logits.data)
        gl[:, idx] = p[:, idx]
        gl[labels[idx], idx] -= 1.0
        return (gl * (float(g) / m),)

    return _result(np.asarray(loss, dtype=logits.dtype), (logits,), back,
                   "cross_entropy")
