"""Parameterized building blocks: pointwise transform blocks (1x1 conv ->
frozen-stats batchnorm -> ReLU), a 3x3 stem variant, linear heads, and SGD."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from . import tensor as T
from .errors import DimensionError, ParameterError

BN_EPS = 1e-5

# When a list is installed here, every block forward appends the minimum
# absolute pre-activation it saw. The gradient checker uses this to reject
# instances whose finite differences would straddle a ReLU kink.
_PREACT_TRACE: list | None = None


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int, dtype=np.float64) -> np.ndarray:
    """Weights drawn uniformly from [-sqrt(1/fan_in), +sqrt(1/fan_in)]."""
    if fan_in < 1:
        raise ParameterError(f"fan_in must be >= 1, got {fan_in}")
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv1x1Head:
    """Linear pointwise head: (C_out, C_in) weight, optional bias."""

    def __init__(self, weight: T.Tensor, bias: T.Tensor | None = None) -> None:
        self.weight = weight
        self.bias = bias

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int,
               bias: bool = True, dtype=np.float64) -> "Conv1x1Head":
        w = T.Tensor(uniform_init(rng, (out_channels, in_channels), in_channels, dtype),
                     requires_grad=True)
        b = None
        if bias:
            b = T.Tensor(uniform_init(rng, (out_channels,), in_channels, dtype),
                         requires_grad=True)
        return cls(w, b)

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.conv1x1(x, self.weight, self.bias)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, T.Tensor]]:
        out = [(prefix + "weight", self.weight)]
        if self.bias is not None:
            out.append((prefix + "bias", self.bias))
        return out


class TransformBlock:
    """1x1 conv -> batchnorm with frozen stats -> ReLU.

    ``bn_mean`` and ``bn_var`` are fixed statistics (never updated, never
    trained); ``bn_scale`` and ``bn_shift`` are learnable. Operates on any
    (C_in, M) matrix: pixels, regions, or attention outputs as columns.
    """

    kernel_size = 1

    def __init__(self, weight: T.Tensor, bn_scale: T.Tensor, bn_shift: T.Tensor,
                 bn_mean: np.ndarray, bn_var: np.ndarray, eps: float = BN_EPS) -> None:
        c_out = weight.shape[0]
        for name, arr in (("bn_scale", bn_scale.data), ("bn_shift", bn_shift.data),
                          ("bn_mean", bn_mean), ("bn_var", bn_var)):
            if arr.shape != (c_out,):
                raise DimensionError(
                    f"{name} shape {arr.shape} does not match out channels {c_out}")
        if np.any(bn_var < 0):
            raise ParameterError("bn_var entries must be nonnegative")
        self.weight = weight
        self.bn_scale = bn_scale
        self.bn_shift = bn_shift
        self.bn_mean = np.asarray(bn_mean, dtype=weight.dtype)
        self.bn_var = np.asarray(bn_var, dtype=weight.dtype)
        self.eps = float(eps)

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int,
               dtype=np.float64) -> "TransformBlock":
        w = T.Tensor(uniform_init(rng, (out_channels, in_channels), in_channels, dtype),
                     requires_grad=True)
        scale = T.Tensor(np.ones(out_channels, dtype=dtype), requires_grad=True)
        # nonzero shift keeps structurally zero input columns (empty regions,
        # ignored pixels) off the rectifier kink
        shift = T.Tensor(rng.uniform(-0.1, 0.1, out_channels).astype(dtype),
                         requires_grad=True)
        return cls(w, scale, shift, np.zeros(out_channels, dtype=dtype),
                   np.ones(out_channels, dtype=dtype))

    @classmethod
    def identity(cls, channels: int, dtype=np.float64) -> "TransformBlock":
        """Pass-through block (on nonnegative inputs): identity weight, neutral BN."""
        w = T.Tensor(np.eye(channels, dtype=dtype), requires_grad=False)
        scale = T.Tensor(np.full(channels, np.sqrt(1.0 + BN_EPS), dtype=dtype))
        shift = T.Tensor(np.zeros(channels, dtype=dtype))
        return cls(w, scale, shift, np.zeros(channels, dtype=dtype),
                   np.ones(channels, dtype=dtype))

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    def _linear(self, x: T.Tensor) -> T.Tensor:
        return T.conv1x1(x, self.weight)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        inv_std = 1.0 / np.sqrt(self.bn_var + self.eps)
        return T.affine_relu(self._linear(x), self.bn_scale, self.bn_shift,
                             inv_std, self.bn_mean, _PREACT_TRACE)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, T.Tensor]]:
        return [(prefix + "weight", self.weight),
                (prefix + "bn_scale", self.bn_scale),
                (prefix + "bn_shift", self.bn_shift)]


class Conv3x3Block(TransformBlock):
    """3x3 conv (dilation 1, zero padding) -> frozen-stats BN -> ReLU.

    Operates on (C_in, H, W); the fused BN and ReLU stage is shared with the
    pointwise block and acts per channel on any rank.
    """

    kernel_size = 3

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int, out_channels: int,
               dtype=np.float64) -> "Conv3x3Block":
        w = T.Tensor(uniform_init(rng, (out_channels, in_channels, 3, 3),
                                  in_channels * 9, dtype), requires_grad=True)
        scale = T.Tensor(np.ones(out_channels, dtype=dtype), requires_grad=True)
        shift = T.Tensor(rng.uniform(-0.1, 0.1, out_channels).astype(dtype),
                         requires_grad=True)
        return cls(w, scale, shift, np.zeros(out_channels, dtype=dtype),
                   np.ones(out_channels, dtype=dtype))

    def _linear(self, x: T.Tensor) -> T.Tensor:
        return T.conv_spatial(x, self.weight, dilation=1)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        if x.data.ndim != 3:
            raise DimensionError(f"Conv3x3Block input must be (C, H, W), got {x.data.shape}")
        return super().__call__(x)


def transform_forward(block: TransformBlock, x: T.Tensor) -> T.Tensor:
    """Apply a transform block; the free-function spelling of ``block(x)``."""
    return block(x)


class Sgd:
    """Plain SGD with optional momentum and L2 weight decay."""

    def __init__(self, params: Iterable[T.Tensor], momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        self.params = list(params)
        if momentum < 0 or weight_decay < 0:
            raise ParameterError("momentum and weight_decay must be >= 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= lr * g

    def zero_grad(self) -> None:
        T.zero_grads(self.params)
