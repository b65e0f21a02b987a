"""Numpy DNN inference library: layers, models and precision emulation.

``Model.forward`` runs a plan built once per batch size: preallocated
float32 buffers between the layers, and each hot layer's math written
once as a step that writes a destination the caller supplies (see
``repro.nn.layers.base``).
"""

from repro.nn.model import Model
from repro.nn.models import (
    BENCHMARK_NAMES,
    benchmark_models,
    build_deeplob,
    build_model,
    build_translob,
    build_vanilla_cnn,
    complexity_sweep,
)
from repro.nn.precision import (
    Precision,
    bf16_ulp,
    cast,
    dequantize_int8,
    quantize_int4,
    quantize_int8,
    to_bf16,
)

__all__ = [
    "BENCHMARK_NAMES",
    "Model",
    "Precision",
    "benchmark_models",
    "bf16_ulp",
    "build_deeplob",
    "build_model",
    "build_translob",
    "build_vanilla_cnn",
    "cast",
    "complexity_sweep",
    "dequantize_int8",
    "quantize_int4",
    "quantize_int8",
    "to_bf16",
]
