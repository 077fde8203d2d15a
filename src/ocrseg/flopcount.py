"""Analytic cost conventions shared by the models and the profiler.

One multiply-add counts as 2 FLOPs. Softmax is billed a nominal 5 FLOPs per
element (shift, exp, sum share, divide), ReLU 1, and a frozen-stats batchnorm
2 (scale, shift). Upsampling and concatenation are free; pooling pays one FLOP
per input element plus one per output cell.
"""
from __future__ import annotations


def matmul_flops(m: int, k: int, n: int) -> int:
    """(m x k) @ (k x n): 2 m k n."""
    return 2 * m * k * n


def conv1x1_flops(c_in: int, c_out: int, n: int, bias: bool = False) -> int:
    flops = 2 * c_in * c_out * n
    if bias:
        flops += c_out * n
    return flops


def conv_kxk_flops(c_in: int, c_out: int, n: int, k: int) -> int:
    """Bias-free k x k convolution: 2 k^2 c_in c_out n."""
    return 2 * k * k * c_in * c_out * n


def block_flops(c_in: int, c_out: int, n: int, kernel: int = 1) -> int:
    """Transform block: bias-free conv, batchnorm affine (2/elt), ReLU (1/elt)."""
    return conv_kxk_flops(c_in, c_out, n, kernel) + 3 * c_out * n


def softmax_flops(rows: int, cols: int) -> int:
    return 5 * rows * cols


def pool_flops(c: int, n_in: int, cells: int) -> int:
    return c * (n_in + cells)

