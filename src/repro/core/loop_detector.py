"""Decode-stage loop detection (the paper's Section 2.1).

The detector watches conditional branches and direct jumps at decode and
fires when

1. the instruction's (predicted) target is *backward* -- at or before the
   instruction itself, and
2. the static distance from the instruction to its target is no larger
   than the issue queue size (the loop is *capturable*), and
3. the instruction is predicted taken (detection uses the decode-stage
   predicted target, the design point the paper argues for over
   post-execution detection).

Direct calls (``jal``) are excluded: a backward call is procedure linkage,
not a loop-ending instruction (procedures inside loops are handled by the
controller's call-depth tracking instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.dyninst import DynInst
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONTROL_CLASSES, InstrClass
from repro.isa.program import INSTRUCTION_BYTES

# Static flag bits the reuse controllers read at decode.  The bit values
# are shared with the array core's predecode ``flags`` column, so either
# core hands the controller one int per instruction.
F_CONTROL = 1 << 0
F_CALL = 1 << 5          # direct or indirect call
F_RETURN = 1 << 6        # jr $ra
#: Statically loop-ending: BRANCH/JUMP with a backward target.  Combined
#: with a taken prediction this is :meth:`LoopDetector.is_loop_ending`.
F_BACKWARD = 1 << 10


def decode_flags(inst: Instruction) -> int:
    """The controller-visible static flags of one instruction."""
    icls = inst.op.icls
    if icls not in CONTROL_CLASSES:
        return 0
    flags = F_CONTROL
    if inst.is_call:
        flags |= F_CALL
    if inst.is_return:
        flags |= F_RETURN
    if ((icls is InstrClass.BRANCH or icls is InstrClass.JUMP)
            and inst.target is not None and inst.target <= inst.pc):
        flags |= F_BACKWARD
    return flags


@dataclass(frozen=True)
class LoopCandidate:
    """A detected capturable loop."""

    #: Address of the first instruction of an iteration (the branch target).
    head_pc: int
    #: Address of the loop-ending branch/jump.
    tail_pc: int
    #: Static size of one iteration in instructions (head..tail inclusive).
    size: int


class LoopDetector:
    """Backward-branch detector with the capturability check."""

    def __init__(self, iq_capacity: int):
        self.iq_capacity = iq_capacity
        self.checks = 0
        self.backward_seen = 0
        self.too_large = 0

    def is_loop_ending(self, dyn: DynInst) -> bool:
        """True for a predicted-taken backward conditional branch or jump."""
        return bool(dyn.pred_taken
                    and decode_flags(dyn.inst) & F_BACKWARD)

    def fits(self, tail_pc: int, head_pc: int) -> bool:
        """Capturability of a loop-ending instruction: head..tail
        inclusive fits the issue queue."""
        self.backward_seen += 1
        if (tail_pc - head_pc) // INSTRUCTION_BYTES + 1 > self.iq_capacity:
            self.too_large += 1
            return False
        return True

    def detect(self, dyn: DynInst) -> Optional[LoopCandidate]:
        """Run detection on one decoded instruction.

        Returns a :class:`LoopCandidate` when the instruction ends a
        capturable loop, else None.
        """
        self.checks += 1
        if not self.is_loop_ending(dyn):
            return None
        target = dyn.inst.target
        if not self.fits(dyn.pc, target):
            return None
        size = (dyn.pc - target) // INSTRUCTION_BYTES + 1
        return LoopCandidate(head_pc=target, tail_pc=dyn.pc, size=size)
