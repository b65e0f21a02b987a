"""Numerical precision emulation: BF16 and INT8/INT4, as on the accelerator.

The AI accelerator computes in Brain-float-16 (paper §III-C) with INT8/4
fast paths for quantised networks.  We emulate those formats on top of
numpy float32/int8 so functional results reflect accelerator arithmetic:

- BF16 keeps float32's 8 exponent bits and truncates the mantissa to
  7 bits; we implement round-to-nearest-even on the dropped bits.
- INT8/INT4 use symmetric per-tensor scaling.
"""

from __future__ import annotations

import enum

import numpy as np


class Precision(enum.Enum):
    """Computation precisions supported by the accelerator model."""

    FP32 = "fp32"
    BF16 = "bf16"
    INT8 = "int8"
    INT4 = "int4"

    @property
    def ops_multiplier(self) -> int:
        """Throughput multiplier vs BF16 (paper: 16 TFLOPS BF16, 64 TOPS INT8)."""
        return {
            Precision.FP32: 1,
            Precision.BF16: 1,
            Precision.INT8: 4,
            Precision.INT4: 8,
        }[self]


def to_bf16(x: np.ndarray) -> np.ndarray:
    """Quantise ``x`` to BF16 resolution (returned as float32).

    Implements round-to-nearest-even on the 16 dropped mantissa bits by
    the standard bias trick on the uint32 view.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    bits = x.view(np.uint32)
    # Round-to-nearest-even: add 0x7FFF + LSB of the surviving half, in
    # one fresh array (uint32 sums wrap, so their order does not matter).
    rounded = bits >> 16
    rounded &= 1
    rounded += bits
    rounded += 0x7FFF
    rounded &= 0xFFFF0000
    out = rounded.view(np.float32)
    # Preserve NaN payload sanity: NaN in, NaN out.
    nan_mask = np.isnan(x)
    if nan_mask.any():
        out[nan_mask] = np.nan
    return out


def bf16_ulp(x: float) -> float:
    """The BF16 unit-in-last-place around ``x`` (for test tolerances)."""
    if x == 0 or not np.isfinite(x):
        return 2.0**-133
    exponent = int(np.floor(np.log2(abs(x))))
    return 2.0 ** (exponent - 7)


def quantize_int8(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor INT8 quantisation.

    Returns:
        (int8 array, scale) with ``x ≈ int8 * scale``.
    """
    x = np.asarray(x, dtype=np.float32)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    scale = max_abs / 127.0 if max_abs > 0 else 1.0
    q = np.clip(np.round(x / scale), -127, 127).astype(np.int8)
    return q, scale


def dequantize_int8(q: np.ndarray, scale: float) -> np.ndarray:
    """Invert :func:`quantize_int8` (lossy)."""
    return q.astype(np.float32) * scale


def quantize_int4(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor INT4 quantisation (stored in int8 containers)."""
    x = np.asarray(x, dtype=np.float32)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    scale = max_abs / 7.0 if max_abs > 0 else 1.0
    q = np.clip(np.round(x / scale), -7, 7).astype(np.int8)
    return q, scale


def cast(x: np.ndarray, precision: Precision) -> np.ndarray:
    """Round-trip ``x`` through ``precision`` (returned as float32)."""
    if precision is Precision.FP32:
        return np.asarray(x, dtype=np.float32)
    if precision is Precision.BF16:
        return to_bf16(x)
    if precision is Precision.INT8:
        return dequantize_int8(*quantize_int8(x))
    q, scale = quantize_int4(x)
    return q.astype(np.float32) * scale
