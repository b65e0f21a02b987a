"""Pooling and shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers.base import Layer


class MaxPool2D(Layer):
    """Max pooling over ``(C, H, W)`` inputs, non-overlapping by default."""

    def __init__(
        self,
        pool_size: tuple[int, int],
        stride: tuple[int, int] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.pool_size = pool_size
        self.stride = stride or pool_size

    def _build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ModelError(f"{self.name}: MaxPool2D expects (C, H, W), got {input_shape}")
        c, h, w = input_shape
        ph, pw = self.pool_size
        sh, sw = self.stride
        if h < ph or w < pw:
            raise ModelError(f"{self.name}: pool {self.pool_size} larger than input {input_shape}")
        return (c, (h - ph) // sh + 1, (w - pw) // sw + 1)

    def _step(self, x, out):
        ph, pw = self.pool_size
        sh, sw = self.stride
        __, out_h, out_w = self.output_shape
        # Offset (i, j) of every window at once is one strided slice;
        # folding them in row-major order matches a per-window max.
        first, *rest = [
            x[:, :, i::sh, j::sw][:, :, :out_h, :out_w] for i in range(ph) for j in range(pw)
        ]
        if not rest:
            return lambda: np.copyto(out, first)
        second, *more = rest

        def step():
            np.maximum(first, second, out=out)
            for offset in more:
                np.maximum(out, offset, out=out)

        return step

    def _aux_ops(self):
        ph, pw = self.pool_size
        return int(np.prod(self.output_shape)) * (ph * pw - 1)  # comparisons


class GlobalAveragePool(Layer):
    """Mean over all spatial axes of ``(C, H, W)`` → ``(C,)``."""

    def _build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ModelError(f"{self.name}: expects (C, H, W), got {input_shape}")
        return (input_shape[0],)

    def _forward(self, x):
        return x.mean(axis=(2, 3))

    def _aux_ops(self):
        return int(np.prod(self.input_shape))


class Flatten(Layer):
    """Collapse all per-sample axes into one feature vector."""

    def _build(self, input_shape, rng):
        return (int(np.prod(input_shape)),)

    def _forward(self, x):
        return x.reshape(len(x), *self.output_shape)


class ToSequence(Layer):
    """Reinterpret ``(C, T, 1)`` conv output as an LSTM sequence ``(T, C)``.

    DeepLOB feeds its inception output (channels over time, width reduced
    to 1) into an LSTM; this layer performs that axis permutation.
    """

    def _build(self, input_shape, rng):
        if len(input_shape) != 3 or input_shape[2] != 1:
            raise ModelError(
                f"{self.name}: expects (C, T, 1) conv output, got {input_shape}"
            )
        return (input_shape[1], input_shape[0])

    def _forward(self, x):
        return np.ascontiguousarray(x[:, :, :, 0].transpose(0, 2, 1))


class TakeLast(Layer):
    """Keep only the final timestep of a ``(T, F)`` sequence → ``(F,)``."""

    def _build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: expects (T, F), got {input_shape}")
        return (input_shape[1],)

    def _forward(self, x):
        return x[:, -1, :]
