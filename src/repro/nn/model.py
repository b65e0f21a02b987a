"""Sequential model container with compute accounting.

A :class:`Model` is a named, seed-deterministic stack of layers built
against a fixed per-sample input shape.  Besides inference it reports the
figures the rest of the system consumes: MAC counts (per sample), total
OPs (the paper's Table II metric, 2 OPs per MAC plus auxiliary
element-wise work) and parameter bytes (what the accelerator must hold in
DMEM before inference).

Inference runs a plan built once per batch size, as the accelerator maps
a network once and then runs every tick from resident weights: each
layer's input slot is a preallocated float32 buffer and each layer's step
is bound from its slot into the next layer's (see
``repro.nn.layers.base``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers.base import Layer
from repro.nn.precision import Precision, cast


class Model:
    """A built sequential network ready for inference."""

    def __init__(
        self,
        name: str,
        input_shape: tuple[int, ...],
        layers: list[Layer],
        seed: int = 0,
        num_classes: int | None = None,
    ) -> None:
        if not layers:
            raise ModelError("model needs at least one layer")
        self.name = name
        self.input_shape = tuple(input_shape)
        self.layers = layers
        self.seed = seed
        rng = np.random.default_rng(seed)
        shape = self.input_shape
        for layer in layers:
            shape = layer.build(shape, rng)
        self.output_shape = shape
        self.num_classes = num_classes or (shape[-1] if len(shape) == 1 else None)
        # Batch size -> (input view, [(step, destination)], output buffer).
        self._plans: dict[int, tuple] = {}

    def __getstate__(self) -> dict:
        # Plans are scratch buffers and steps bound to them: a pickled or
        # deep-copied model builds its own on first use.
        return {**self.__dict__, "_plans": {}}

    # -- inference ---------------------------------------------------------------

    def forward(self, x: np.ndarray, precision: Precision = Precision.FP32) -> np.ndarray:
        """Run the network on a batch ``(N, *input_shape)``; returns a new array.

        With a non-FP32 ``precision`` every layer's activations are
        round-tripped through that precision, emulating the accelerator's
        datapath.

        The batch is copied into the plan for its size, built on first
        use and kept for the model's life, so ``x`` is never written.
        Plans hold scratch memory only (0.19 MB for VanillaCNN at
        batch 1), but every call with that batch size shares them: one
        ``Model`` must not run ``forward`` from two threads at once.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.shape[1:] != self.input_shape:
            raise ModelError(
                f"{self.name}: expected batch of {self.input_shape}, got {x.shape}"
            )
        plan = self._plans.get(len(x))
        if plan is None:
            plan = self._plans[len(x)] = self._plan(len(x))
        view, steps, out = plan
        np.copyto(view, x)
        rounded = precision is not Precision.FP32
        for step, destination in steps:
            step()
            if rounded:
                np.copyto(destination, cast(destination, precision))
        return out.copy()

    def _plan(self, n: int) -> tuple:
        """Slots and bound steps for a batch of ``n``: each layer's step
        writes the input view of the next layer's slot, the last one a
        plan-owned output buffer."""
        slots = [layer._slot(n) for layer in self.layers]
        out = np.empty((n, *self.output_shape), dtype=np.float32)
        destinations = [view for __, view in slots[1:]] + [out]
        steps = [
            (layer._step(buffer, destination), destination)
            for layer, (buffer, __), destination in zip(self.layers, slots, destinations)
        ]
        return slots[0][1], steps, out

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        """Argmax class per sample (0 = down, 1 = stationary, 2 = up)."""
        return np.argmax(self.forward(x), axis=-1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- accounting ---------------------------------------------------------------

    def macs(self) -> int:
        """Multiply-accumulates per single-sample inference."""
        return sum(layer.macs() for layer in self.layers)

    def aux_ops(self) -> int:
        """Auxiliary element-wise ops per single-sample inference."""
        return sum(layer.aux_ops() for layer in self.layers)

    def total_ops(self) -> int:
        """Total operations per inference: 2·MACs + auxiliary ops."""
        return 2 * self.macs() + self.aux_ops()

    def param_count(self) -> int:
        """Total learnable scalars."""
        return sum(layer.param_count() for layer in self.layers)

    def weight_bytes(self, bytes_per_param: int = 2) -> int:
        """Parameter footprint (default BF16)."""
        return self.param_count() * bytes_per_param

    def summary(self) -> str:
        """Multi-line human-readable per-layer table."""
        lines = [
            f"Model {self.name}: input {self.input_shape} -> output {self.output_shape}",
            f"{'layer':32s} {'output shape':>18s} {'params':>10s} {'MACs':>14s}",
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:32.32s} {str(layer.output_shape):>18s} "
                f"{layer.param_count():>10,d} {layer.macs():>14,d}"
            )
        lines.append(
            f"{'TOTAL':32s} {'':>18s} {self.param_count():>10,d} {self.macs():>14,d}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Model {self.name}: {len(self.layers)} layers, {self.macs():,} MACs>"
