"""Plain-NumPy reference forwards of the seven benchmarked heads.

Each reference reads only a head's ``named_parameters()`` (the checkpoint
names) plus the scheme's published constants: frozen batchnorm statistics of
mean 0 and variance 1 with eps 1e-5, unit relation scale, dilation rates
(1, 6, 12) at a 64-pixel reference side, and pooling bins (1, 2, 3, 6). It
shares no code with the tensor engine, so it catches a fast path that changes
what a head computes.
"""
from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
ASPP_RATES = (1, 6, 12)
ASPP_REFERENCE_SIDE = 64
PPM_BINS = (1, 2, 3, 6)
SCHEMES = ("ocr", "da", "acf", "self_attn", "global", "aspp_lite", "ppm_lite")


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _conv(x: np.ndarray, w: np.ndarray, dilation: int = 1) -> np.ndarray:
    """Zero-padded same-size 2-D convolution of (C, H, W) by (O, C, k, k)."""
    _, h, wd = x.shape
    k = w.shape[2]
    pad = (k // 2) * dilation
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((w.shape[0], h, wd))
    for ky in range(k):
        for kx in range(k):
            window = xp[:, ky * dilation:ky * dilation + h, kx * dilation:kx * dilation + wd]
            out += np.tensordot(w[:, :, ky, kx], window, axes=1)
    return out


class _Params:
    def __init__(self, model) -> None:
        self.p = {name: np.array(t.data, dtype=np.float64)
                  for name, t in model.named_parameters()}

    def has(self, prefix: str) -> bool:
        return f"{prefix}.weight" in self.p

    def block(self, prefix: str, x: np.ndarray) -> np.ndarray:
        """conv -> frozen BN -> ReLU; 1x1 on (C, M), 3x3 on (C, H, W)."""
        w = self.p[f"{prefix}.weight"]
        h = _conv(x, w) if w.ndim == 4 else w @ x
        gain = self.p[f"{prefix}.bn_scale"] / np.sqrt(1.0 + BN_EPS)
        shift = self.p[f"{prefix}.bn_shift"]
        if h.ndim == 3:
            gain, shift = gain[:, None, None], shift[:, None, None]
        else:
            gain, shift = gain[:, None], shift[:, None]
        return np.maximum(h * gain + shift, 0.0)

    def linear(self, prefix: str, x: np.ndarray) -> np.ndarray:
        out = self.p[f"{prefix}.weight"] @ x
        bias = self.p.get(f"{prefix}.bias")
        return out if bias is None else out + bias[:, None]


def _aggregate_and_classify(p: _Params, pix: np.ndarray, relations: np.ndarray,
                            reps: np.ndarray) -> np.ndarray:
    """relations (N, K), reps (K, C): value, aggregate, output, fuse, classify."""
    vals = p.block("value_transform", reps.T)            # (C_v, K)
    y = p.block("output_transform", (relations @ vals.T).T)
    z = p.block("fuse_transform", np.concatenate([pix, y], axis=0))
    return p.linear("final_head", z)


def reference_logits(scheme: str, model, features: np.ndarray) -> np.ndarray:
    """(num_classes, H*W) logits of ``model`` (a ``scheme`` head) on a
    (C, H, W) feature map."""
    p = _Params(model)
    x = np.asarray(features, dtype=np.float64)
    c, h, w = x.shape
    if scheme in ("aspp_lite", "ppm_lite"):
        return _pyramid(scheme, p, x)
    feats = p.block("stem", x) if p.has("stem") else x
    pix = feats.reshape(feats.shape[0], h * w)
    if scheme in ("ocr", "da", "acf"):
        coarse = p.p["region_head.weight"] @ x.reshape(c, h * w)   # (K, N)
        maps = p.p["da_maps.weight"] @ pix if p.has("da_maps") else coarse
        reps = _softmax(maps, axis=1) @ pix.T                       # (K, C)
        if scheme == "ocr":
            q = p.block("pixel_transform", pix)
            k = p.block("region_transform", reps.T)
            relations = _softmax(q.T @ k, axis=1)
        elif scheme == "da":
            relations = _softmax(p.linear("da_predictor", pix).T, axis=1)
        else:
            relations = _softmax(coarse.T, axis=1)
        return _aggregate_and_classify(p, pix, relations, reps)
    if scheme == "self_attn":
        q = p.block("pixel_transform", pix)
        k = p.block("context_transform", pix)
        attn = _softmax(q.T @ k, axis=1)                            # (N, N)
        vals = p.block("value_transform", pix)
        y = p.block("output_transform", (attn @ vals.T).T)
    elif scheme == "global":
        vals = p.block("value_transform", pix)
        pooled = p.block("output_transform", vals.mean(axis=1, keepdims=True))
        y = np.repeat(pooled, h * w, axis=1)
    else:
        raise ValueError(f"no reference for scheme {scheme!r}")
    z = p.block("fuse_transform", np.concatenate([pix, y], axis=0))
    return p.linear("final_head", z)


def _pyramid(scheme: str, p: _Params, x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    if scheme == "aspp_lite":
        factor = min(h, w) / float(ASPP_REFERENCE_SIDE)
        rates = [max(1, int(round(r * factor))) for r in ASPP_RATES]
        cat = np.concatenate([_conv(x, p.p[f"branch_{i}.weight"], rate)
                              for i, rate in enumerate(rates)], axis=0)
        return p.linear("final_head", cat.reshape(cat.shape[0], h * w))
    parts = [x]
    for i, b in enumerate(PPM_BINS):
        rows = [(j * h // b, (j + 1) * h // b) for j in range(b)]
        cols = [(j * w // b, (j + 1) * w // b) for j in range(b)]
        pooled = np.array([[x[:, r0:r1, c0:c1].mean(axis=(1, 2)) for c0, c1 in cols]
                           for r0, r1 in rows]).transpose(2, 0, 1)   # (C, b, b)
        proj = np.tensordot(p.p[f"branch_{i}.weight"], pooled, axes=1)
        src_r = np.arange(h) * b // h
        src_c = np.arange(w) * b // w
        parts.append(proj[:, src_r][:, :, src_c])
    z = p.block("fuse", np.concatenate(parts, axis=0))
    return p.linear("final_head", z.reshape(z.shape[0], h * w))


def max_rel_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """max |actual - reference| over max(1, max |reference|), in float64;
    infinite when shapes differ or ``actual`` is not finite."""
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != reference.shape or not np.all(np.isfinite(actual)):
        return float("inf")
    scale = max(1.0, float(np.abs(reference).max()))
    return float(np.abs(actual - reference).max()) / scale
