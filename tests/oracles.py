"""Loop-written reference implementations the test suite compares against.

Everything here is deliberately elementary: explicit Python loops and scalar
math, no vectorized shortcuts borrowed from the library under test. Slow is
fine; these run on instances a few pixels wide. The exceptions are the
bit-equality references (``conv_taps_copy`` and the ``frozen_*`` functions
and ``check_simplex_rows_frozen`` at the end), which keep the engine's former
NumPy arithmetic so that a rewritten op can be held to it bit for bit.
"""
import math

import numpy as np

from ocrseg.context import SIMPLEX_TOL, SIMPLEX_TOL_SINGLE
from ocrseg.errors import ParameterError
from ocrseg.tensor import BN_EPS


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def softmax_vec(row) -> np.ndarray:
    """Scalar-math softmax of one vector with max subtraction."""
    vals = [float(v) for v in row]
    top = max(vals)
    exps = [math.exp(v - top) for v in vals]
    total = sum(exps)
    return np.array([e / total for e in exps])


def softmax_rows_loops(mat: np.ndarray) -> np.ndarray:
    return np.stack([softmax_vec(row) for row in mat])


def conv1x1_loops(x: np.ndarray, weight: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel matrix-vector product; accepts (C, N) or (C, H, W) input."""
    shape = x.shape
    flat = x.reshape(shape[0], -1)
    c_out = weight.shape[0]
    out = np.zeros((c_out, flat.shape[1]))
    for o in range(c_out):
        for p in range(flat.shape[1]):
            acc = 0.0
            for c in range(flat.shape[0]):
                acc += float(weight[o, c]) * float(flat[c, p])
            if bias is not None:
                acc += float(bias[o])
            out[o, p] = acc
    return out.reshape((c_out,) + shape[1:])


def conv_spatial_loops(x: np.ndarray, weight: np.ndarray, dilation: int = 1,
                       bias: np.ndarray | None = None) -> np.ndarray:
    """Direct summation dilated convolution, zero padded, H x W preserved."""
    c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    half = k // 2
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for c in range(c_in):
                    for dy in range(k):
                        for dx in range(k):
                            sy = y + (dy - half) * dilation
                            sx = xx + (dx - half) * dilation
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += float(weight[o, c, dy, dx]) * float(x[c, sy, sx])
                if bias is not None:
                    acc += float(bias[o])
                out[o, y, xx] = acc
    return out


def conv_taps_copy(x: np.ndarray, weight: np.ndarray, dilation: int = 1) -> np.ndarray:
    """The engine's former tap-copy convolution forward, kept as a bit-equality
    reference (vectorized, unlike the loop oracles): zero-pad (C_in, H, W),
    copy each tap's (C_in, H*W) patch, and add the taps' products in tap
    order into a (C_out, H, W) sum. No bias, batchnorm or ReLU."""
    c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    pad = (k // 2) * dilation
    xpad = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xpad[:, pad:pad + h, pad:pad + w] = x
    out = None
    for ky in range(k):
        for kx in range(k):
            patch = xpad[:, ky * dilation:ky * dilation + h,
                         kx * dilation:kx * dilation + w].reshape(c_in, h * w)
            term = weight[:, :, ky, kx] @ patch
            if out is None:
                out = term
            else:
                out += term
    return out.reshape(c_out, h, w)


def avg_pool_loops(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Adaptive average pooling over disjoint floor-arithmetic bins."""
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        r0, r1 = i * h // out_h, (i + 1) * h // out_h
        for j in range(out_w):
            c0, c1 = j * w // out_w, (j + 1) * w // out_w
            for ch in range(c):
                acc = 0.0
                for y in range(r0, r1):
                    for xx in range(c0, c1):
                        acc += float(x[ch, y, xx])
                out[ch, i, j] = acc / ((r1 - r0) * (c1 - c0))
    return out


def upsample_nearest_loops(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Floor-index nearest-neighbor resize."""
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            out[:, i, j] = x[:, i * h // out_h, j * w // out_w]
    return out


def upsample_nearest_adjoint_loops(g: np.ndarray, h: int, w: int) -> np.ndarray:
    """Gradient of ``upsample_nearest_loops``' (C, h, w) input given its
    output's gradient ``g``: each output pixel's entry added to its source."""
    c, out_h, out_w = g.shape
    out = np.zeros((c, h, w), dtype=g.dtype)
    for i in range(out_h):
        for j in range(out_w):
            out[:, i * h // out_h, j * w // out_w] += g[:, i, j]
    return out


def cross_entropy_loops(logits: np.ndarray, labels: np.ndarray,
                        ignore_index: int = 255) -> float:
    """Mean per-pixel negative log-softmax probability of the true class."""
    k, n = logits.shape
    total, counted = 0.0, 0
    for p in range(n):
        lab = int(labels[p])
        if lab == ignore_index:
            continue
        col = [float(logits[c, p]) for c in range(k)]
        top = max(col)
        log_norm = top + math.log(sum(math.exp(v - top) for v in col))
        total += log_norm - col[lab]
        counted += 1
    return total / counted if counted else 0.0


def transform_loops(x: np.ndarray, weight: np.ndarray, bn_scale: np.ndarray,
                    bn_shift: np.ndarray) -> np.ndarray:
    """conv1x1 -> batchnorm frozen at mean 0 and variance 1 -> ReLU, column
    by column."""
    pre = conv1x1_loops(x, weight)
    c_out = pre.shape[0]
    flat = pre.reshape(c_out, -1)
    out = np.zeros_like(flat)
    inv = 1.0 / math.sqrt(1.0 + BN_EPS)
    for c in range(c_out):
        for p in range(flat.shape[1]):
            v = float(flat[c, p]) * inv
            v = v * float(bn_scale[c]) + float(bn_shift[c])
            out[c, p] = v if v > 0.0 else 0.0
    return out.reshape(pre.shape)


def bn_chain(h: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The unfused frozen-BN chain on a (C, M) pre-activation, one NumPy step
    per stage in this order: normalise by the unit variance, scale by gain,
    shift, rectify."""
    normalised = h / np.sqrt(1.0 + BN_EPS)
    scaled = normalised * gain[:, None]
    return np.maximum(scaled + shift[:, None], 0.0)


def apply_block_loops(block, x: np.ndarray) -> np.ndarray:
    """transform_loops driven by a live block's parameter arrays."""
    return transform_loops(x, block.weight.data, block.bn_scale.data,
                           block.bn_shift.data)


def region_reps_loops(m_norm: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """f_k = sum_i m_norm[k, i] * pixels[i]; pixels given as (N, C)."""
    k, n = m_norm.shape
    c = pixels.shape[1]
    out = np.zeros((k, c))
    for r in range(k):
        for i in range(n):
            for ch in range(c):
                out[r, ch] += float(m_norm[r, i]) * float(pixels[i, ch])
    return out


def relations_loops(pixel_keys: np.ndarray, region_keys: np.ndarray,
                    scale: float) -> np.ndarray:
    """w[i, k] = softmax_k(scale * <pixel_keys[:, i], region_keys[:, k]>)."""
    d, n = pixel_keys.shape
    k = region_keys.shape[1]
    logits = np.zeros((n, k))
    for i in range(n):
        for r in range(k):
            acc = 0.0
            for t in range(d):
                acc += float(pixel_keys[t, i]) * float(region_keys[t, r])
            logits[i, r] = acc * scale
    return softmax_rows_loops(logits)


def aggregate_loops(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-pixel convex combination: out[i] = sum_k w[i, k] * values[k]."""
    n, k = weights.shape
    c = values.shape[1]
    out = np.zeros((n, c))
    for i in range(n):
        for r in range(k):
            for ch in range(c):
                out[i, ch] += float(weights[i, r]) * float(values[r, ch])
    return out


def gt_region_rows_loops(flat_labels: np.ndarray, num_regions: int,
                         ignore_index: int = 255) -> np.ndarray:
    """Uniform-over-class-support indicator rows; empty classes stay zero."""
    n = flat_labels.shape[0]
    out = np.zeros((num_regions, n))
    for k in range(num_regions):
        members = [i for i in range(n)
                   if int(flat_labels[i]) == k and int(flat_labels[i]) != ignore_index]
        for i in members:
            out[k, i] = 1.0 / len(members)
    return out


def one_hot_rows_loops(flat_labels: np.ndarray, num_regions: int,
                       ignore_index: int = 255) -> np.ndarray:
    """One-hot relation rows; ignored pixels get an all-zero row."""
    n = flat_labels.shape[0]
    out = np.zeros((n, num_regions))
    for i in range(n):
        lab = int(flat_labels[i])
        if lab != ignore_index:
            out[i, lab] = 1.0
    return out


def confusion_loops(pred: np.ndarray, gt: np.ndarray, num_classes: int,
                    ignore_index: int = 255) -> np.ndarray:
    """Pixel-by-pixel confusion counts, rows ground truth, columns predicted."""
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(pred.ravel(), gt.ravel()):
        if int(g) != ignore_index:
            conf[int(g), int(p)] += 1
    return conf


def metrics_from_confusion(conf: np.ndarray) -> tuple[float, float, list]:
    """(pixel accuracy, mean IoU over non-empty classes, per-class IoU)."""
    total = int(conf.sum())
    correct = sum(int(conf[k, k]) for k in range(conf.shape[0]))
    ious = []
    for k in range(conf.shape[0]):
        inter = int(conf[k, k])
        union = int(conf[k, :].sum()) + int(conf[:, k].sum()) - inter
        ious.append(inter / union if union > 0 else None)
    present = [v for v in ious if v is not None]
    miou = sum(present) / len(present) if present else 0.0
    return correct / total, miou, ious


def central_difference(param_data: np.ndarray, index: tuple, evaluate,
                       h: float = 1e-6) -> float:
    """Two-point central finite difference of a scalar-valued closure."""
    original = float(param_data[index])
    param_data[index] = original + h
    plus = evaluate()
    param_data[index] = original - h
    minus = evaluate()
    param_data[index] = original
    return (plus - minus) / (2.0 * h)


def simplex_rows_error(mat: np.ndarray, exempt, what: str) -> str | None:
    """The message the row-by-row simplex check raises, or None if ``mat``
    passes: rows sum to 1 within 1e-9 and exempt rows are all zero."""
    if mat.size == 0:
        return None
    if mat.min() < -1e-9:
        return f"{what} contains negative weights"
    sums = mat.sum(axis=1)
    exempt_set = set(int(i) for i in exempt)
    for i, s in enumerate(sums):
        if i in exempt_set:
            if np.any(mat[i] != 0.0):
                return f"{what} row {i} is flagged empty but not zero"
        elif not abs(s - 1.0) <= 1e-9:
            return f"{what} row {i} sums to {s!r}, expected 1"
    return None


def check_simplex_rows_frozen(mat: np.ndarray, exempt, what: str, first: int = 0) -> None:
    """``context._check_simplex_rows`` as it stood before its fast path for
    rows none of which is exempt, kept verbatim: the rewritten check must
    reject the same matrices with the same message."""
    if mat.size == 0:
        return
    tol = SIMPLEX_TOL_SINGLE if mat.dtype == np.float32 else SIMPLEX_TOL
    if mat.min() < -tol:
        raise ParameterError(f"{what} contains negative weights")
    sums = mat.sum(axis=1)
    off = ~(np.abs(sums - 1.0) <= tol)
    flagged = np.unique(np.array([int(i) for i in exempt], dtype=np.int64))
    flagged = flagged[(flagged >= 0) & (flagged < mat.shape[0])]
    off[flagged] = False
    not_zero = flagged[np.any(mat[flagged] != 0.0, axis=1)]
    bad_sum = np.flatnonzero(off)
    if not_zero.size and (not bad_sum.size or not_zero[0] < bad_sum[0]):
        raise ParameterError(
            f"{what} row {first + not_zero[0]} is flagged empty but not zero")
    if bad_sum.size:
        i = bad_sum[0]
        raise ParameterError(f"{what} row {first + i} sums to {sums[i]!r}, expected 1")


# The engine's per-op arithmetic before its call overhead was cut, written
# out as it ran: the references the rewritten ops must match bit for bit.


def frozen_inv_std(dtype) -> np.floating:
    return 1.0 / np.sqrt(np.ones((), dtype) + BN_EPS)


def frozen_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax of unscaled logits; a scaled caller divides them first."""
    s = x.copy()
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def frozen_softmax_grad(s: np.ndarray, g: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    ds = g - (g * s).sum(axis=1, keepdims=True)
    ds *= s
    ds /= temperature
    return ds


def _pointwise_terms(parts):
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])
    return [((slice(None), slice(bounds[i], bounds[i + 1])), p.reshape(p.shape[0], -1))
            for i, p in enumerate(parts)]


def _tap_terms(x: np.ndarray, k: int, d: int):
    """(terms, flat, wp): the windows of one zero-padded (C, H, W) input for
    a k x k kernel at dilation d <= H, as the flat padded buffer lays them."""
    c, h, w = x.shape
    pad = (k // 2) * d
    wp = w + 2 * pad
    flat = np.zeros((c, (h + 2 * pad) * wp + 2 * pad), dtype=x.dtype)
    flat[:, :(h + 2 * pad) * wp].reshape(c, -1, wp)[:, pad:pad + h, pad:pad + w] = x
    terms = []
    for ky in range(k):
        for kx in range(k):
            o = ky * d * wp + kx * d
            terms.append(((slice(None), slice(None), ky, kx), slice(o, o + h * wp)))
    return terms, flat, wp


def _tap_backward(x, weight, d, gm, m):
    """Fill ``m`` with the taps' products of the widened output gradient
    ``gm`` (C_out, H*Wp) and the windows; return the input's gradient."""
    c, h, w = x.shape
    terms, flat, wp = _tap_terms(x, weight.shape[2], d)
    gflat = np.zeros_like(flat)
    for idx, win in terms:
        m[idx] = gm @ flat[:, win].T
        gflat[:, win] += weight[idx].T @ gm
    pad = (weight.shape[2] // 2) * d
    return gflat[:, :-2 * pad].reshape(c, -1, wp)[:, pad:pad + h, pad:pad + w]


def frozen_conv_spatial(x, weight, d, g):
    """(output, input gradient, weight gradient) of one dilated k x k
    branch for the output gradient ``g``."""
    c_out = weight.shape[0]
    h, w = x.shape[1:]
    terms, flat, wp = _tap_terms(x, weight.shape[2], d)
    wide = np.empty((c_out, h, wp), dtype=x.dtype)
    _products(weight, terms, [flat[:, win] for _, win in terms], wide.reshape(c_out, -1))
    gw = np.zeros((c_out, h, wp), dtype=g.dtype)
    gw[:, :, :w] = g
    m = np.empty_like(weight)
    gx = _tap_backward(x, weight, d, gw.reshape(c_out, -1), m)
    return wide[:, :, :w], gx, m


def _products(weight, terms, windows, out2):
    for i, ((idx, _), xm) in enumerate(zip(terms, windows)):
        if i == 0:
            np.matmul(weight[idx], xm, out=out2)
        else:
            out2 += weight[idx] @ xm


def frozen_conv_bn_relu(parts, weight, gain, shift, g, dilation=1):
    """(output, gradients) of a frozen-BN block: pointwise on column parts
    (each later part the first's trailing dims or one column), or a k x k
    weight on one (C_in, H, W) input, whose gradient is formed too. The
    gradients are those of the parts, weight, gain and shift for the output
    gradient ``g``."""
    c_out = weight.shape[0]
    dtype = np.result_type(weight, *parts)
    if weight.ndim == 2:
        terms = _pointwise_terms(parts)
        windows = [xm for _, xm in terms]
        out = np.empty((c_out,) + parts[0].shape[1:], dtype=dtype)
        _products(weight, terms, windows, out.reshape(c_out, -1))
    else:
        (x,) = parts
        h, w = x.shape[1:]
        terms, flat, wp = _tap_terms(x, weight.shape[2], dilation)
        windows = [flat[:, win] for _, win in terms]
        wide = np.empty((c_out, h, wp), dtype=dtype)
        _products(weight, terms, windows, wide.reshape(c_out, -1))
        out = np.ascontiguousarray(wide[:, :, :w])
    out2 = out.reshape(c_out, -1)
    inv_std = frozen_inv_std(gain.dtype)
    s = gain * inv_std
    out2 *= s[:, None]
    out2 += shift[:, None]
    np.maximum(out2, 0.0, out=out2)

    mask = out > 0.0
    s_w = s.reshape((c_out,) + (1,) * (weight.ndim - 1))
    scaled = weight * s_w
    m = np.empty_like(weight)
    if weight.ndim == 2:
        gm = g.reshape(c_out, -1) * mask.reshape(c_out, -1)
        grads = []
        for (idx, xm), part in zip(terms, parts):
            gp = gm if xm.shape[1] == gm.shape[1] else gm.sum(axis=1, keepdims=True)
            m[idx] = gp @ xm.T
            grads.append((scaled[idx].T @ gp).reshape(part.shape))
    else:
        gw = np.zeros((c_out, h, wp), dtype=g.dtype)
        np.multiply(g, mask, out=gw[:, :, :w])
        gm = gw.reshape(c_out, -1)
        grads = [_tap_backward(x, scaled, dilation, gm, m)]
    g_shift = gm.sum(axis=1)
    g_wm = np.zeros_like(g_shift)
    for idx, _ in terms:
        g_wm += (weight[idx] * m[idx]).sum(axis=1)
    m *= s_w
    return out, (*grads, m, g_wm * inv_std, g_shift)


def frozen_cross_entropy(terms, labels: np.ndarray, ignore_index: int, g: float = 1.0):
    """(loss, logit gradients) of the weighted sum of mean cross entropies
    over the (logits, weight) ``terms``, for the loss gradient ``g``."""
    idx = np.where(labels != ignore_index)[0]
    m = max(idx.size, 1)
    total, grads = None, []
    for logits, weight in terms:
        z = logits - logits.max(axis=0, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
        term = np.asarray((0.0 - logp[labels[idx], idx].sum()) / m, dtype=logits.dtype) * weight
        total = term if total is None else total + term
        gl = np.zeros_like(logits)
        gl[:, idx] = np.exp(logp)[:, idx]
        gl[labels[idx], idx] -= 1.0
        grads.append(gl * (float(np.asarray(g, dtype=logits.dtype) * weight) / m))
    return np.asarray(total), grads
