"""Convolution layers (2-D and dilated causal 1-D), im2col based.

``Conv2D`` computes as a step (see ``repro.nn.layers.base``): a "same"
convolution's input slot is a zero-bordered buffer whose interior the
previous layer writes, the im2col operand is refilled in a preallocated
buffer by ``np.copyto``, the matmul writes with ``out=`` and the bias is
added in place.

Conventions: 2-D inputs are ``(channels, height, width)`` per sample with
height = time and width = LOB features, matching the DeepLOB layout.
1-D inputs are ``(timesteps, channels)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import he_uniform, zeros
from repro.nn.layers.base import Layer, conv_output_length, matmul_out


def _pad_amounts(length: int, kernel: int, stride: int, dilation: int = 1) -> tuple[int, int]:
    """'same' padding (before, after) along one axis."""
    effective = (kernel - 1) * dilation + 1
    out_len = -(-length // stride)
    total = max((out_len - 1) * stride + effective - length, 0)
    return total // 2, total - total // 2


class Conv2D(Layer):
    """2-D convolution over ``(C, H, W)`` inputs via im2col + matmul."""

    def __init__(
        self,
        filters: int,
        kernel_size: tuple[int, int],
        stride: tuple[int, int] = (1, 1),
        padding: str = "same",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ModelError(f"filters must be positive, got {filters}")
        if padding not in ("same", "valid"):
            raise ModelError(f"Conv2D padding must be same/valid, got {padding!r}")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def _build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ModelError(f"{self.name}: Conv2D expects (C, H, W), got {input_shape}")
        channels, height, width = input_shape
        kh, kw = self.kernel_size
        fan_in = channels * kh * kw
        self.params["weight"] = he_uniform(
            rng, (self.filters, channels, kh, kw), fan_in=fan_in
        )
        self.params["bias"] = zeros((self.filters,))
        out_h = conv_output_length(height, kh, self.stride[0], self.padding)
        out_w = conv_output_length(width, kw, self.stride[1], self.padding)
        return (self.filters, out_h, out_w)

    def _slot(self, n):
        if self.padding == "valid":
            return super()._slot(n)
        # "same": a zero-bordered buffer whose interior takes the input.
        channels, height, width = self.input_shape
        kh, kw = self.kernel_size
        top, bottom = _pad_amounts(height, kh, self.stride[0])
        left, right = _pad_amounts(width, kw, self.stride[1])
        shape = (n, channels, top + height + bottom, left + width + right)
        buffer = np.zeros(shape, dtype=np.float32)
        return buffer, buffer[:, :, top : top + height, left : left + width]

    def _step(self, x, out):
        n, channels = x.shape[:2]
        kh, kw = self.kernel_size
        windows = _windows(x, kh, kw, *self.stride)
        patches = out.shape[2] * out.shape[3]
        # (N, C*kh*kw, out_h*out_w): a view of x when the patch axes
        # merge, else a C-ordered copy, which becomes the operand buffer.
        cols = windows.reshape(n, channels * kh * kw, patches)
        refill = None
        if not np.may_share_memory(cols, x):
            refill = (cols.reshape(windows.shape), windows)
        elif not cols.flags.c_contiguous:
            # A view of overlapping windows (full-width kernels), which
            # matmul cannot pass to BLAS as is.  A per-sample F-ordered
            # copy is faster than leaving it to matmul and gives the same
            # float32 bits; a C-ordered copy changes the summation order.
            operand = np.empty((n, cols.shape[2], cols.shape[1]), dtype=np.float32)
            refill = (operand.transpose(0, 2, 1), cols)
            cols = refill[0]
        product = matmul_out(out)
        flat = product.reshape(n, self.filters, patches)

        def step():
            if refill is not None:
                np.copyto(*refill)
            weight = self.params["weight"]
            np.matmul(weight.reshape(len(weight), -1), cols, out=flat)
            np.add(product, self.params["bias"][:, None, None], out=out)

        return step

    def _macs(self):
        out_c, out_h, out_w = self.output_shape
        in_c = self.input_shape[0]
        kh, kw = self.kernel_size
        return out_c * out_h * out_w * in_c * kh * kw

    def _aux_ops(self):
        return int(np.prod(self.output_shape))  # bias adds


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Conv patches of a C-contiguous ``x`` as a view of it.

    The view is ``(N, C, kh, kw, out_h, out_w)``, patch axes first, so
    merging the first three of them gives the im2col operand.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    s0, s1, s2, s3 = x.strides
    return np.ndarray(
        (n, c, kh, kw, out_h, out_w),
        x.dtype,
        buffer=x,
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
    )


class CausalConv1D(Layer):
    """Dilated causal 1-D convolution over ``(T, C)`` inputs (TransLOB)."""

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        dilation: int = 1,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0 or dilation <= 0:
            raise ModelError("filters, kernel_size and dilation must be positive")
        self.filters = filters
        self.kernel_size = kernel_size
        self.dilation = dilation

    def _build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: CausalConv1D expects (T, C), got {input_shape}")
        timesteps, channels = input_shape
        fan_in = channels * self.kernel_size
        self.params["weight"] = he_uniform(
            rng, (self.kernel_size, channels, self.filters), fan_in=fan_in
        )
        self.params["bias"] = zeros((self.filters,))
        return (timesteps, self.filters)

    def _forward(self, x):
        n, timesteps, channels = x.shape
        left_pad = (self.kernel_size - 1) * self.dilation
        padded = np.pad(x, ((0, 0), (left_pad, 0), (0, 0)))
        out = np.zeros((n, timesteps, self.filters), dtype=np.float32)
        for k in range(self.kernel_size):
            start = k * self.dilation
            out += padded[:, start : start + timesteps, :] @ self.params["weight"][k]
        return out + self.params["bias"]

    def _macs(self):
        timesteps, __ = self.input_shape
        return timesteps * self.filters * self.input_shape[1] * self.kernel_size

    def _aux_ops(self):
        return int(np.prod(self.output_shape))
