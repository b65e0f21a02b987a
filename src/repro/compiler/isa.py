"""Instruction set of the CGRA's processing elements and engines.

PE/EPE instruction streams are stored as run-length-encoded
``(opcode, repeat)`` pairs: a compiled hyperblock can imply millions of
dynamic instructions, and run encoding keeps programs compact exactly the
way the hardware's compact instruction queues do (paper §III-C, "compact
and dedicated instruction queue").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CompileError


class Opcode(enum.Enum):
    """Operations the array's elements can execute."""

    # Regular PE (tensor-engine) ops.
    MAC = "mac"  # SIMD wide multiply-accumulate
    ALU = "alu"  # add/sub/min/max/compare
    MOVE = "move"  # forward operand to a neighbouring PE
    # EPE-only special functions.
    EXP = "exp"
    LOG = "log"
    TANH = "tanh"
    RECIP = "recip"
    SHIFT = "shift"
    # Memory engine (LSU).
    LOAD = "load"
    STORE = "store"
    # Data formatter (FMT) RISC-style ops.
    FMT_LOWER = "fmt_lower"
    FMT_TRANSPOSE = "fmt_transpose"
    FMT_SHUFFLE = "fmt_shuffle"
    # Control.
    SYNC = "sync"

    @property
    def is_special(self) -> bool:
        """True for EPE-only special-function opcodes."""
        return self in (Opcode.EXP, Opcode.LOG, Opcode.TANH, Opcode.RECIP, Opcode.SHIFT)


@dataclass(frozen=True)
class InstructionRun:
    """``repeat`` back-to-back executions of ``opcode``."""

    opcode: Opcode
    repeat: int

    def __post_init__(self) -> None:
        if self.repeat <= 0:
            raise CompileError(f"instruction repeat must be positive, got {self.repeat}")


@dataclass
class InstructionStream:
    """Run-length-encoded program for one element (PE, EPE, LSU or FMT)."""

    target: str  # e.g. "pe[3,7]", "epe[0,14]", "lsu0", "fmt"
    runs: list[InstructionRun]

    @property
    def dynamic_count(self) -> int:
        """Total dynamic instructions the stream expands to."""
        return sum(run.repeat for run in self.runs)

    def static_size_bytes(self, bytes_per_run: int = 4) -> int:
        """Encoded footprint in instruction memory."""
        return len(self.runs) * bytes_per_run

    def validate_for(self, is_epe: bool) -> None:
        """Check opcode legality for the element type."""
        for run in self.runs:
            if run.opcode.is_special and not is_epe:
                raise CompileError(
                    f"{self.target}: special op {run.opcode.value} on a regular PE"
                )
