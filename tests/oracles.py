"""Loop-written reference implementations the test suite compares against.

Everything here is deliberately elementary: explicit Python loops and scalar
math, no vectorized shortcuts borrowed from the library under test. Slow is
fine; these run on instances a few pixels wide.
"""
import math

import numpy as np

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
