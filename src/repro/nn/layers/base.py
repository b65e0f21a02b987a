"""Layer abstraction for the numpy inference library.

A :class:`Layer` is built once against a concrete per-sample input shape
(shapes never include the batch dimension), after which it can run
``forward`` on ``(batch, *input_shape)`` arrays and report its compute
footprint — multiply-accumulates (:meth:`Layer.macs`, tensor-engine work
on the CGRA) and auxiliary element-wise operations (:meth:`Layer.aux_ops`,
extended-PE work such as activations and normalisation).

A layer computes in one of two ways.  A hot layer writes its math once,
as a *step*: :meth:`Layer._step` binds it to a preallocated input slot
(:meth:`Layer._slot`) and a destination the caller supplies, and each
call of the bound step recomputes the destination from the slot without
allocating.  ``Model.forward`` runs every layer through such steps over
buffers planned once per batch size; ``Layer.forward`` allocates a slot
and a destination for the one call and runs the same step.  Any other
layer overrides :meth:`Layer._forward` instead, and its default step
copies that result into the destination.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from repro.errors import ModelError


class Layer(abc.ABC):
    """Base class for all layers."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        self.params: dict[str, np.ndarray] = {}
        self._built = False

    # -- lifecycle ---------------------------------------------------------------

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """Allocate parameters for ``input_shape``; returns the output shape."""
        if self._built:
            raise ModelError(f"layer {self.name} already built")
        self.input_shape = tuple(input_shape)
        self.output_shape = self._build(self.input_shape, rng)
        self._built = True
        return self.output_shape

    @abc.abstractmethod
    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        """Subclass hook: validate shape, create params, return output shape."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the layer on a batch ``(N, *input_shape)``; returns a new array."""
        self._require_built()
        if x.shape[1:] != self.input_shape:
            raise ModelError(
                f"{self.name}: expected input {self.input_shape}, got {x.shape[1:]}"
            )
        return self._forward(np.asarray(x, dtype=np.float32))

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Subclass hook: the computation, for a layer without a step.

        A layer with a step inherits this, which runs the step from a
        slot and into a destination allocated for this call.  A subclass
        overrides this or :meth:`_step`, not neither.
        """
        buffer, view = self._slot(len(x))
        np.copyto(view, x)
        out = np.empty((len(x), *self.output_shape), dtype=np.float32)
        self._step(buffer, out)()
        return out

    def _slot(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Input slot for a batch of ``n``: (buffer, view).

        The step reads ``buffer``; whoever feeds the layer writes its
        input into ``view``, a part of ``buffer`` that may be strided.
        Nothing but that writer touches the buffer between calls.
        """
        buffer = np.empty((n, *self.input_shape), dtype=np.float32)
        return buffer, buffer

    def _step(self, x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """Bind the computation from slot buffer ``x`` into ``out``.

        Each call of the result writes the layer's output for the
        current contents of ``x`` into ``out``.  ``out`` may be a
        strided view, so a matmul writes it only when it is
        C-contiguous.  The step holds scratch buffers only: it reads
        ``params`` and settings on every call, so reassigning a
        parameter reaches steps already bound.  The default copies what
        :meth:`_forward` returns.
        """
        forward = self._forward

        def step() -> None:
            np.copyto(out, forward(x))

        return step

    # -- accounting ---------------------------------------------------------------

    def macs(self) -> int:
        """Multiply-accumulate count for ONE sample (tensor-engine work)."""
        self._require_built()
        return self._macs()

    def _macs(self) -> int:
        return 0

    def aux_ops(self) -> int:
        """Element-wise/special-function ops for ONE sample (EPE work)."""
        self._require_built()
        return self._aux_ops()

    def _aux_ops(self) -> int:
        return 0

    def param_count(self) -> int:
        """Total learnable scalars in this layer."""
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def weight_bytes(self, bytes_per_param: int = 2) -> int:
        """Parameter footprint (default BF16: 2 bytes per scalar)."""
        return self.param_count() * bytes_per_param

    def _require_built(self) -> None:
        if not self._built:
            raise ModelError(f"layer {self.name} used before build()")

    def __repr__(self) -> str:
        shape = f"{self.input_shape}->{self.output_shape}" if self._built else "unbuilt"
        return f"<{type(self).__name__} {self.name} {shape}>"


def matmul_out(out: np.ndarray) -> np.ndarray:
    """Where a step's matmul writes before its bias lands in ``out``.

    That is ``out`` itself when it is C-contiguous.  A strided ``out``
    (a padded interior) takes element-wise writes only, so the product
    goes to a C-contiguous scratch of the same shape instead.
    """
    return out if out.flags.c_contiguous else np.empty(out.shape, dtype=np.float32)


def conv_output_length(length: int, kernel: int, stride: int, padding: str, dilation: int = 1) -> int:
    """Output length of a 1-D convolution along one axis."""
    effective = (kernel - 1) * dilation + 1
    if padding == "same":
        return -(-length // stride)  # ceil division
    if padding == "valid":
        if length < effective:
            raise ModelError(
                f"input length {length} shorter than effective kernel {effective}"
            )
        return (length - effective) // stride + 1
    if padding == "causal":
        return -(-length // stride)
    raise ModelError(f"unknown padding {padding!r}")
