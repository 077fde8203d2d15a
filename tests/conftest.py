"""Shared fixtures and small builders for the test suite."""
import ocrseg.cli  # noqa: F401  (pins BLAS to one thread, as a CLI run does, before numpy loads)

import numpy as np
import pytest

import ocrseg.tensor as T
from ocrseg.blocks import TransformBlock
from ocrseg.context import FeatureMap
from ocrseg.models import ModelConfig, build_model
from ocrseg.profiler import BenchConfig

import oracles


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tensor(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def rel_err(a: float, b: float, floor: float = 1e-3) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def max_grad_fd_error(params, forward, h=1e-6):
    """Worst relative disagreement between backward's gradients and central
    differences, swept over every entry of every parameter."""
    loss = forward()
    T.backward(loss)
    grads = [np.array(p.grad, copy=True) for p in params]
    T.zero_grads(params)
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in np.ndindex(p.data.shape):
            def evaluate():
                with T.no_grad():
                    return float(forward().data)
            fd = oracles.central_difference(p.data, idx, evaluate, h)
            worst = max(worst, rel_err(float(g[idx]), fd))
    return worst


def dot_all(a, b):
    """Scalar loss sum(a * b) of two same-shape tensors, as public ops: the
    (1, n) @ (n, 1) product of their flattenings."""
    n = a.data.size
    return T.reshape(T.matmul(T.reshape(a, (1, n)), T.reshape(b, (n, 1))), ())


def sum_all(t):
    """Scalar loss: the sum of every entry of ``t``."""
    return dot_all(t, T.Tensor(np.ones(t.shape, dtype=t.dtype)))


def projected(out, rng):
    """Scalarize an op output with a fixed random projection."""
    return dot_all(out, T.Tensor(rng.normal(0.0, 1.0, out.data.shape)))


def run_stage(stage, x, labels=None):
    """A context stage on the whole image as one band: (features, aux logits)."""
    fuse, aux = stage.prepare(x, labels)
    return fuse(0, x.height), aux


def identity_block(channels, dtype=np.float64):
    """Pass-through transform block (on nonnegative inputs): identity weight,
    and a BN scale of sqrt(1 + eps) that cancels the unit frozen variance."""
    w = T.Tensor(np.eye(channels, dtype=dtype))
    scale = T.Tensor(np.full(channels, np.sqrt(1.0 + T.BN_EPS), dtype=dtype))
    shift = T.Tensor(np.zeros(channels, dtype=dtype))
    return TransformBlock(w, scale, shift)


def quadratic_share(module, sides=(64, 128, 256), bench=None):
    """Fit flops(N) to a degree-2 polynomial over N = side^2 and return
    (quadratic term's share of the fitted total at the largest N, max relative
    fit residual)."""
    cfg = bench or BenchConfig()
    model = build_model(cfg.model_config(module), image_size=max(sides))
    ns = np.array([s * s for s in sides], dtype=np.float64)
    flops = np.array([model.analytic_flops(s, s) for s in sides], dtype=np.float64)
    coeffs = np.polyfit(ns, flops, 2)  # a, b, c
    fitted = np.polyval(coeffs, ns)
    residual = float(np.abs((fitted - flops) / flops).max())
    n_max = ns.max()
    total = float(np.polyval(coeffs, n_max))
    share = float(coeffs[0] * n_max * n_max / total)
    return share, residual


def feature_map(rng, channels, height, width, requires_grad=False, loc=0.0):
    data = rng.normal(loc, 1.0, (channels, height, width))
    return FeatureMap(T.Tensor(data, requires_grad=requires_grad))


def region_stage(module="ocr", **settings):
    """The context stage of a small region-scheme model (stem off unless
    ``use_stem=True``): the blocks and settings the program itself builds."""
    settings = {"key_channels": 4, "mid_channels": 5, "use_stem": False, **settings}
    return build_model(ModelConfig(module=module, **settings)).stage
