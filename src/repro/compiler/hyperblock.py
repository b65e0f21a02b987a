"""Hyperblock partitioning of the dataflow graph.

A hyperblock is the unit the CGRA reconfigures for: a contiguous region
of the DFG whose instructions are resident in the array at once (paper
§III-C: "the AI compiler chases sufficient instruction-level parallelism
in one hyperblock in the 2-D grid").  The partitioner walks the graph in
topological order and closes a block when (a) the accumulated weight
footprint would exceed the DMEM budget, (b) a sequential (recurrent) op
begins or ends, or (c) the block's fused-op count hits the instruction-
memory bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.config import AcceleratorConfig
from repro.compiler.dfg import DataflowGraph, DFGNode, OpKind
from repro.errors import CompileError

# Fraction of DMEM a single hyperblock's weights may occupy (the rest
# holds activations and the double-buffered prefetch of the next block).
_WEIGHT_BUDGET_FRACTION = 0.40
# Maximum fused DFG ops per hyperblock (instruction-queue depth proxy).
_MAX_OPS_PER_BLOCK = 12


@dataclass
class Hyperblock:
    """A contiguous group of DFG nodes configured onto the array at once."""

    index: int
    nodes: list[DFGNode] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Stable display name."""
        return f"HB{self.index}"

    @property
    def macs(self) -> int:
        """Tensor-engine MACs per sample."""
        return sum(n.macs for n in self.nodes)

    @property
    def aux_ops(self) -> int:
        """Element-wise / special-function ops per sample."""
        return sum(n.aux_ops for n in self.nodes)

    @property
    def weight_bytes(self) -> int:
        """Parameters that must be resident for this block."""
        return sum(n.weight_bytes for n in self.nodes)

    @property
    def io_bytes(self) -> int:
        """Activation traffic in and out of the block (first in, last out)."""
        if not self.nodes:
            return 0
        return self.nodes[0].input_bytes + self.nodes[-1].output_bytes

    @property
    def sequential_steps(self) -> int:
        """Serial step count (1 unless the block wraps a recurrence)."""
        return max((n.sequential_steps for n in self.nodes), default=1)

    @property
    def is_recurrent(self) -> bool:
        """True when the block contains a sequential recurrence."""
        return any(n.kind is OpKind.RECURRENT_STEP for n in self.nodes)


def partition(dfg: DataflowGraph, config: AcceleratorConfig) -> list[Hyperblock]:
    """Split ``dfg`` into an ordered list of hyperblocks."""
    weight_budget = int(config.dmem_bytes * _WEIGHT_BUDGET_FRACTION)
    blocks: list[Hyperblock] = []
    current = Hyperblock(index=0)

    def close() -> None:
        nonlocal current
        if current.nodes:
            blocks.append(current)
            current = Hyperblock(index=len(blocks))

    for node in dfg.topological_nodes():
        if node.weight_bytes > weight_budget:
            raise CompileError(
                f"node {node.name} needs {node.weight_bytes} B of weights, "
                f"above the per-block budget {weight_budget} B"
            )
        block_full = (
            current.weight_bytes + node.weight_bytes > weight_budget
            or len(current.nodes) >= _MAX_OPS_PER_BLOCK
        )
        # Recurrences get their own block: the array is reconfigured into
        # a steady-state schedule iterated over timesteps.
        if node.kind is OpKind.RECURRENT_STEP or block_full:
            close()
        current.nodes.append(node)
        if node.kind is OpKind.RECURRENT_STEP:
            close()
    close()
    if not blocks:
        raise CompileError(f"model {dfg.model_name} produced an empty partition")
    return blocks
