"""Parameterized building blocks: transform blocks (1x1 or 3x3 conv ->
frozen-stats batchnorm -> ReLU), linear heads, the one conv weight draw they
share, and SGD."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from . import tensor as T


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int, dtype=np.float64) -> np.ndarray:
    """Weights drawn uniformly from [-sqrt(1/fan_in), +sqrt(1/fan_in)], for
    a ``fan_in`` of at least 1."""
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)


def conv_weight(rng: np.random.Generator, in_channels: int, out_channels: int,
                kernel: int = 1, dtype=np.float64) -> T.Tensor:
    """A trainable (C_out, C_in) weight, or (C_out, C_in, k, k) for kernel
    k > 1, drawn by ``uniform_init`` at fan-in C_in * k^2."""
    shape = (out_channels, in_channels) + ((kernel, kernel) if kernel > 1 else ())
    return T.Tensor(uniform_init(rng, shape, in_channels * kernel * kernel, dtype),
                    requires_grad=True)


class ShapeOnlyRng:
    """Stands in for a ``np.random.Generator`` when only parameter shapes are
    wanted: every draw is a read-only zero-stride view of one zero, so a
    model built through it allocates no weight buffer. Such a model can be
    counted (parameters, analytic FLOPs) but not run or trained."""

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.broadcast_to(np.float64(0.0), () if size is None else size)


class Conv1x1Head:
    """Linear pointwise head: (C_out, C_in) weight, optional bias."""

    def __init__(self, weight: T.Tensor, bias: T.Tensor | None = None) -> None:
        self.weight = weight
        self.bias = bias

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int,
               bias: bool = True, dtype=np.float64) -> "Conv1x1Head":
        w = conv_weight(rng, in_channels, out_channels, dtype=dtype)
        b = None
        if bias:
            b = T.Tensor(uniform_init(rng, (out_channels,), in_channels, dtype),
                         requires_grad=True)
        return cls(w, b)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.conv1x1(x, self.weight, self.bias)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, T.Tensor]]:
        out = [(prefix + "weight", self.weight)]
        if self.bias is not None:
            out.append((prefix + "bias", self.bias))
        return out


class TransformBlock:
    """1x1 or 3x3 conv -> batchnorm with frozen stats -> ReLU.

    The statistics are fixed at mean 0 and variance 1 (never updated, never
    trained); ``bn_scale`` and ``bn_shift`` are learnable. A 1x1 block
    operates on any (C_in, M) matrix: pixels, regions, or attention outputs
    as columns. A 3x3 block (dilation 1, zero padding) operates on (C_in, H,
    W) and accumulates the nine taps before the BN and ReLU. The whole block
    is one ``conv_bn_relu`` op.
    """

    def __init__(self, weight: T.Tensor, bn_scale: T.Tensor, bn_shift: T.Tensor) -> None:
        self.weight = weight
        self.bn_scale = bn_scale
        self.bn_shift = bn_shift

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int,
               kernel: int = 1, dtype=np.float64) -> "TransformBlock":
        w = conv_weight(rng, in_channels, out_channels, kernel, dtype)
        scale = T.Tensor(np.ones(out_channels, dtype=dtype), requires_grad=True)
        # nonzero shift keeps structurally zero input columns (empty regions,
        # ignored pixels) off the rectifier kink
        shift = T.Tensor(rng.uniform(-0.1, 0.1, out_channels).astype(dtype),
                         requires_grad=True)
        return cls(w, scale, shift)

    def __call__(self, *parts: T.Tensor, rows: tuple[int, int] | None = None) -> T.Tensor:
        """The block applied to its input, given whole or as column parts
        that the block reads as one channel concatenation; one tensor op. A
        3x3 block computes output rows r0:r1 only when given ``rows``."""
        return T.conv_bn_relu(parts, self.weight, self.bn_scale, self.bn_shift, rows)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, T.Tensor]]:
        return [(prefix + "weight", self.weight),
                (prefix + "bn_scale", self.bn_scale),
                (prefix + "bn_shift", self.bn_shift)]


class Sgd:
    """Plain SGD: each step subtracts ``lr`` times the gradient."""

    def __init__(self, params: Iterable[T.Tensor]) -> None:
        self.params = list(params)

    def step(self, lr: float) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= lr * p.grad

    def zero_grad(self) -> None:
        T.zero_grads(self.params)
