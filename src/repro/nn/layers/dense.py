"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.layers.base import Layer, matmul_out


class Dense(Layer):
    """Affine map ``y = x W + b`` on the last axis.

    Accepts inputs of shape ``(features,)`` or ``(timesteps, features)``;
    in the latter case the same weights apply at every timestep.
    """

    def __init__(self, units: int, name: str | None = None) -> None:
        super().__init__(name)
        if units <= 0:
            raise ModelError(f"units must be positive, got {units}")
        self.units = units

    def _build(self, input_shape, rng):
        if len(input_shape) not in (1, 2):
            raise ModelError(f"{self.name}: Dense expects rank 1 or 2, got {input_shape}")
        features = input_shape[-1]
        self.params["weight"] = glorot_uniform(
            rng, (features, self.units), fan_in=features, fan_out=self.units
        )
        self.params["bias"] = zeros((self.units,))
        return (*input_shape[:-1], self.units)

    def _step(self, x, out):
        product = matmul_out(out)

        def step():
            np.matmul(x, self.params["weight"], out=product)
            np.add(product, self.params["bias"], out=out)

        return step

    def _macs(self):
        timesteps = self.input_shape[0] if len(self.input_shape) == 2 else 1
        return timesteps * self.input_shape[-1] * self.units

    def _aux_ops(self):
        return int(np.prod(self.output_shape))  # bias adds
