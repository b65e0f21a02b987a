"""Functional CGRA interpreter: golden-model validation of the array.

Executes small kernels the way the tensor engine does — output tiles
assigned to PEs, SIMD-wide MAC accumulation, EPE columns applying special
functions — using explicit per-PE loops rather than one numpy call.  Its
purpose is validation: tests check the interpreter's tile-by-tile results
agree with the numpy reference (and therefore that the mapping story the
cycle model tells is computationally coherent).  It is deliberately slow
and only used on small tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.errors import AcceleratorError


@dataclass
class InterpreterStats:
    """Dynamic execution counters for one interpreted kernel."""

    mac_instructions: int = 0
    special_instructions: int = 0
    active_pes: int = 0


class CGRAInterpreter:
    """Tile-level functional execution on a virtual PE grid."""

    def __init__(self, config: AcceleratorConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.stats = InterpreterStats()

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute ``a @ b`` by distributing output tiles over the grid.

        Output rows map to grid rows, output columns to grid columns;
        each PE accumulates its tile with SIMD-width inner-product steps,
        mirroring the WMAC datapath.
        """
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise AcceleratorError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
        m, k = a.shape
        __, n = b.shape
        rows, cols = self.config.grid_rows, self.config.grid_cols - self.config.epe_cols
        simd = self.config.simd_width
        out = np.zeros((m, n), dtype=np.float64)

        tile_m = -(-m // rows)
        tile_n = -(-n // cols)
        active = 0
        for pe_row in range(rows):
            for pe_col in range(cols):
                row_lo, row_hi = pe_row * tile_m, min((pe_row + 1) * tile_m, m)
                col_lo, col_hi = pe_col * tile_n, min((pe_col + 1) * tile_n, n)
                if row_lo >= row_hi or col_lo >= col_hi:
                    continue
                active += 1
                for i in range(row_lo, row_hi):
                    for j in range(col_lo, col_hi):
                        acc = 0.0
                        for k0 in range(0, k, simd):
                            k1 = min(k0 + simd, k)
                            acc += float(np.dot(a[i, k0:k1], b[k0:k1, j]))
                            self.stats.mac_instructions += 1
                        out[i, j] = acc
        self.stats.active_pes = max(self.stats.active_pes, active)
        return out.astype(np.float32)

    def elementwise(self, func: str, x: np.ndarray) -> np.ndarray:
        """Apply a special function on the EPE columns, element by element."""
        table = {
            "exp": np.exp,
            "log": np.log,
            "tanh": np.tanh,
            "recip": lambda v: 1.0 / v,
            "relu": lambda v: max(v, 0.0),
        }
        if func not in table:
            raise AcceleratorError(f"unknown special function {func!r}")
        op = table[func]
        flat = x.reshape(-1)
        out = np.empty_like(flat, dtype=np.float32)
        n_epes = self.config.n_epes
        for start in range(0, len(flat), n_epes):
            chunk = flat[start : start + n_epes]
            for offset, value in enumerate(chunk):
                out[start + offset] = op(float(value))
                self.stats.special_instructions += 1
        return out.reshape(x.shape)

    def conv2d_via_lowering(
        self, x: np.ndarray, weight: np.ndarray, stride: tuple[int, int] = (1, 1)
    ) -> np.ndarray:
        """Convolve by FMT lowering then grid matmul (the hardware path).

        Args:
            x: Input ``(C, H, W)``.
            weight: Kernel ``(F, C, kh, kw)``.
        """
        from repro.accelerator.fmt import lower_conv2d

        f, c, kh, kw = weight.shape
        if x.shape[0] != c:
            raise AcceleratorError(f"channel mismatch: input {x.shape}, weight {weight.shape}")
        lowered = lower_conv2d(x, (kh, kw), stride)
        flat_weight = weight.reshape(f, -1)
        out_flat = self.matmul(flat_weight.astype(np.float32), lowered.data)
        sh, sw = stride
        out_h = (x.shape[1] - kh) // sh + 1
        out_w = (x.shape[2] - kw) // sw + 1
        return out_flat.reshape(f, out_h, out_w)
