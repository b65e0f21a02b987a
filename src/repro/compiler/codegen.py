"""Instruction-stream generation for mapped hyperblocks.

Produces per-element run-length-encoded programs: every PE gets its MAC /
ALU schedule, EPE columns additionally receive the special-function runs,
the LSUs get load/store programs for the block's weights and activations,
and the FMT gets the layout-transformation sequence.  The streams are a
faithful (if simplified) rendering of what the in-house compiler emits,
and the interpreter in :mod:`repro.accelerator.interpreter` can execute
small ones functionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.config import AcceleratorConfig
from repro.compiler.dfg import OpKind
from repro.compiler.hyperblock import Hyperblock
from repro.compiler.isa import InstructionRun, InstructionStream, Opcode
from repro.errors import CompileError


@dataclass
class BlockProgram:
    """All instruction streams for one hyperblock."""

    block_name: str
    pe_streams: list[InstructionStream] = field(default_factory=list)
    epe_streams: list[InstructionStream] = field(default_factory=list)
    lsu_streams: list[InstructionStream] = field(default_factory=list)
    fmt_stream: InstructionStream | None = None

    def imem_bytes(self) -> int:
        """Encoded footprint across all streams."""
        streams = self.pe_streams + self.epe_streams + self.lsu_streams
        if self.fmt_stream is not None:
            streams = streams + [self.fmt_stream]
        return sum(s.static_size_bytes() for s in streams)


def generate_block_program(
    block: Hyperblock, config: AcceleratorConfig
) -> BlockProgram:
    """Emit instruction streams for ``block`` on ``config``'s grid."""
    n_regular = config.n_pes - config.n_epes
    if n_regular <= 0:
        raise CompileError("grid has no regular PEs")

    pe_runs: list[InstructionRun] = []
    epe_runs: list[InstructionRun] = []
    fmt_runs: list[InstructionRun] = []
    load_elems = 0
    store_elems = 0

    for node in block.nodes:
        load_elems += (node.weight_bytes + node.input_bytes) // 2
        store_elems += node.output_bytes // 2
        per_pe_macs = -(-node.macs // (n_regular * config.simd_width))
        if node.kind in (OpKind.MATMUL, OpKind.RECURRENT_STEP):
            if per_pe_macs:
                pe_runs.append(InstructionRun(Opcode.MAC, per_pe_macs))
            # Results stream to neighbours after each tile.
            pe_runs.append(InstructionRun(Opcode.MOVE, max(per_pe_macs // 8, 1)))
            if node.aux_ops:
                epe_runs.append(
                    InstructionRun(
                        Opcode.TANH if node.kind is OpKind.RECURRENT_STEP else Opcode.ALU,
                        -(-node.aux_ops // config.n_epes),
                    )
                )
        elif node.kind is OpKind.SPECIAL:
            epe_runs.append(
                InstructionRun(Opcode.EXP, -(-node.aux_ops // config.n_epes))
            )
        elif node.kind in (OpKind.ELEMENTWISE, OpKind.REDUCE):
            per_pe = -(-node.aux_ops // (n_regular * config.simd_width))
            pe_runs.append(InstructionRun(Opcode.ALU, max(per_pe, 1)))
        elif node.kind is OpKind.RESHAPE:
            moved = node.input_bytes + node.output_bytes
            if moved:
                fmt_runs.append(InstructionRun(Opcode.FMT_LOWER, -(-moved // 64)))
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled op kind {node.kind}")
    pe_runs.append(InstructionRun(Opcode.SYNC, 1))
    epe_runs.append(InstructionRun(Opcode.SYNC, 1))

    program = BlockProgram(block_name=block.name)
    for row in range(config.grid_rows):
        for col in range(config.grid_cols):
            is_epe = col >= config.grid_cols - config.epe_cols
            target = f"{'epe' if is_epe else 'pe'}[{row},{col}]"
            runs = epe_runs if is_epe else pe_runs
            stream = InstructionStream(target=target, runs=list(runs))
            stream.validate_for(is_epe)
            (program.epe_streams if is_epe else program.pe_streams).append(stream)

    half = -(-load_elems // 2)
    for i, elems in enumerate((half, load_elems - half)):
        runs = []
        if elems:
            runs.append(InstructionRun(Opcode.LOAD, elems))
        if i == 0 and store_elems:
            runs.append(InstructionRun(Opcode.STORE, store_elems))
        runs.append(InstructionRun(Opcode.SYNC, 1))
        program.lsu_streams.append(InstructionStream(target=f"lsu{i}", runs=runs))

    if fmt_runs:
        fmt_runs.append(InstructionRun(Opcode.SYNC, 1))
        program.fmt_stream = InstructionStream(target="fmt", runs=fmt_runs)
    return program
