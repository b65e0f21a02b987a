"""Grid mapping and per-hyperblock cycle estimation.

This stage assigns each hyperblock's work to the PE/EPE grid and derives
its cycle cost.  The model is deliberately simple but physically
grounded:

- tensor work runs on the full PE array at a spatial efficiency below 1
  (halo/tiling losses, pipeline fill),
- special-function work runs only on the EPE columns,
- recurrent blocks iterate a steady-state schedule once per timestep and
  pay a loop-carried-dependency overhead per step,
- weight/activation traffic moves over the C2C interface and is hidden
  behind compute by double buffering (the slower of the two wins).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.config import AcceleratorConfig
from repro.compiler.dfg import OpKind
from repro.compiler.hyperblock import Hyperblock

# Achievable fraction of peak MACs for dense tensor ops (tiling losses).
SPATIAL_EFFICIENCY = 0.55
# Pipeline fill/drain cycles when a hyperblock is (re)configured.
BLOCK_FILL_CYCLES = 160
# Extra cycles per recurrent timestep for the loop-carried dependency.
RECURRENT_STEP_OVERHEAD = 24
# EPE special-function throughput: ops per EPE per cycle.
EPE_OPS_PER_CYCLE = 2
# FMT reformatting throughput in bytes per cycle (mostly hidden, see below).
FMT_BYTES_PER_CYCLE = 64
# Fraction of FMT work that cannot be overlapped with compute.
FMT_EXPOSED_FRACTION = 0.25


@dataclass(frozen=True)
class BlockMapping:
    """Cycle/utilisation estimate for one hyperblock on a given grid.

    ``compute_cycles`` covers tensor + EPE + exposed FMT work;
    ``memory_cycles`` is the C2C transfer time for weights and block IO,
    which double buffering overlaps with the *previous* block's compute.
    """

    block_name: str
    compute_cycles: int
    memory_cycles: int
    pe_utilization: float
    epe_utilization: float
    weight_bytes: int
    is_recurrent: bool


def map_block(block: Hyperblock, config: AcceleratorConfig) -> BlockMapping:
    """Estimate cycles and utilisation for ``block`` on ``config``'s grid."""
    tensor_cycles = 0
    epe_cycles = 0
    fmt_cycles = 0
    peak_macs = config.macs_per_cycle
    epe_throughput = config.n_epes * EPE_OPS_PER_CYCLE

    for node in block.nodes:
        if node.kind in (OpKind.MATMUL,):
            tensor_cycles += _ceil_div(node.macs, int(peak_macs * SPATIAL_EFFICIENCY))
            epe_cycles += _ceil_div(node.aux_ops, epe_throughput)
        elif node.kind is OpKind.RECURRENT_STEP:
            steps = max(node.sequential_steps, 1)
            per_step_macs = _ceil_div(node.macs, steps)
            per_step_aux = _ceil_div(node.aux_ops, steps)
            step_cycles = (
                _ceil_div(per_step_macs, int(peak_macs * SPATIAL_EFFICIENCY))
                + _ceil_div(per_step_aux, epe_throughput)
                + RECURRENT_STEP_OVERHEAD
            )
            tensor_cycles += steps * step_cycles
        elif node.kind is OpKind.SPECIAL:
            epe_cycles += _ceil_div(node.aux_ops, epe_throughput)
        elif node.kind in (OpKind.ELEMENTWISE, OpKind.REDUCE):
            tensor_cycles += _ceil_div(
                node.aux_ops, config.n_pes * config.simd_width
            )
        elif node.kind is OpKind.RESHAPE:
            moved = node.input_bytes + node.output_bytes
            fmt_cycles += _ceil_div(moved, FMT_BYTES_PER_CYCLE)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled op kind {node.kind}")

    compute = (
        BLOCK_FILL_CYCLES
        + tensor_cycles
        + epe_cycles
        + int(fmt_cycles * FMT_EXPOSED_FRACTION)
    )
    memory = _ceil_div(block.weight_bytes + block.io_bytes, config.c2c_bytes_per_cycle)

    ideal_tensor = _ceil_div(block.macs, peak_macs)
    pe_util = min(1.0, ideal_tensor / compute) if compute else 0.0
    ideal_epe = _ceil_div(block.aux_ops, epe_throughput)
    epe_util = min(1.0, ideal_epe / compute) if compute else 0.0

    return BlockMapping(
        block_name=block.name,
        compute_cycles=compute,
        memory_cycles=memory,
        pe_utilization=pe_util,
        epe_utilization=epe_util,
        weight_bytes=block.weight_bytes,
        is_recurrent=block.is_recurrent,
    )


def _ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ValueError(f"division by non-positive {b}")
    return -(-a // b)
