"""Element-wise activation layers (EPE work on the accelerator).

ReLU, LeakyReLU and Softmax compute as steps (see
``repro.nn.layers.base``) that write their destination without
temporaries; the other activations keep ``_forward``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer


class _Activation(Layer):
    """Shared plumbing: shape-preserving, parameter-free."""

    def _build(self, input_shape, rng):
        return input_shape

    def _aux_ops(self):
        return int(np.prod(self.output_shape))


class ReLU(_Activation):
    """max(x, 0)."""

    def _step(self, x, out):
        return lambda: np.maximum(x, 0.0, out=out)


class LeakyReLU(_Activation):
    """x for x>0 else alpha*x (DeepLOB uses alpha=0.01)."""

    def __init__(self, alpha: float = 0.01, name: str | None = None) -> None:
        super().__init__(name)
        self.alpha = alpha

    def _step(self, x, out):
        positive = np.empty(x.shape, dtype=bool)

        def step():
            np.greater(x, 0, out=positive)
            np.multiply(x, self.alpha, out=out)
            np.copyto(out, x, where=positive)

        return step


class Tanh(_Activation):
    """Hyperbolic tangent."""

    def _forward(self, x):
        return np.tanh(x)


class Sigmoid(_Activation):
    """Logistic sigmoid."""

    def _forward(self, x):
        return 1.0 / (1.0 + np.exp(-x))


class GELU(_Activation):
    """Gaussian error linear unit (tanh approximation)."""

    def _forward(self, x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


class Softmax(_Activation):
    """Numerically stable softmax over the last axis."""

    def _step(self, x, out):
        row = np.empty((*x.shape[:-1], 1), dtype=np.float32)  # max, then sum

        def step():
            np.maximum.reduce(x, axis=-1, keepdims=True, out=row)
            np.subtract(x, row, out=out)
            np.exp(out, out=out)
            np.add.reduce(out, axis=-1, keepdims=True, out=row)
            np.divide(out, row, out=out)

        return step

    def _aux_ops(self):
        # exp + sum + divide per element, approximately 3 special-function ops.
        return 3 * int(np.prod(self.output_shape))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Functional stable softmax (used inside attention)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)
