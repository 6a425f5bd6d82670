"""Superblock discovery: which instructions may be compiled together.

A superblock is a maximal run of straight-line instructions starting at
an entry PC.  Anything that can redirect control, halt, or touch
external/engine state mid-stream ends the region **before** itself:

* every branch (direct, conditional, ``CBZ``/``CBNZ``, ``JAL``/``JALR``)
  — the interpreter resolves targets and predictor state;
* ``HALT`` and ``SYSCALL`` — syscalls read ``instret`` mid-instruction,
  append to the output stream, and the external-write syscall must pass
  through the engine's drain protocol;
* nothing else: loads and stores *are* compilable because the data port
  raises (``SegmentFull``, ``UncheckedConflictStall``, memory traps)
  before any architectural mutation, and generated code flushes
  ``pc``/``instret`` immediately before every port call so a partially
  executed block leaves exactly the interpreter's state.

The engine enters blocks only at control-flow leaders
(:func:`block_leaders`) and compiles one only once it is hot
(:data:`HOT_ENTRIES`); see :meth:`repro.jit.tier.SuperblockJit.runner`.

Fault-injection points are excluded structurally rather than per-opcode:
the engine only builds a tier at all when no main-core injector is
attached (checker-targeted faults never see main-core execution), so no
instruction that could receive an injection is ever inside a block.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence

from ..isa.instructions import BRANCH_OPCODES, Instruction, Opcode

#: Opcodes that may appear inside a compiled superblock.
COMPILABLE_OPCODES = frozenset(Opcode) - BRANCH_OPCODES - {
    Opcode.HALT,
    Opcode.SYSCALL,
}

#: Blocks shorter than this are not worth a dispatch (cache probe +
#: call) and stay interpreted.
MIN_BLOCK = 3
#: Length cap: bounds compile time per block and keeps the budget gates
#: (segment target, instruction budget, livelock) usefully tight.
MAX_BLOCK = 64
#: Fitting arrivals at a leader, within one run, before its block is
#: compiled.  On a 2-vCPU x86 host, emitting and compiling a
#: record+commit block costs about 90 us per instruction, and each
#: compiled run saves 2-4 us per instruction over the interpreter (milc,
#: bzip2, lbm), so a block pays for itself after about 25-45 runs.  A
#: block that never reaches the threshold costs nothing; one that does
#: has forgone at most 16 runs of savings, well under one compile (the
#: rent-or-buy bound), and is in practice a loop body with many runs
#: still to come.  The spec-suite benchmark moves by under 3% anywhere
#: from 8 to 64.
HOT_ENTRIES = 16


def superblock_length(instructions: Sequence[Instruction], pc: int) -> int:
    """Length of the superblock entered at ``pc``, or 0 if none.

    Returns 0 for out-of-range PCs, for entries sitting on a
    non-compilable opcode, and for runs shorter than :data:`MIN_BLOCK`.
    A branch *into the middle* of a longer block simply defines its own
    (overlapping) block — discovery is per-entry, not a partition.
    """
    if pc < 0 or pc >= len(instructions):
        return 0
    end = min(len(instructions), pc + MAX_BLOCK)
    scan = pc
    while scan < end and instructions[scan].opcode in COMPILABLE_OPCODES:
        scan += 1
    length = scan - pc
    return length if length >= MIN_BLOCK else 0


def block_leaders(instructions: Sequence[Instruction]) -> FrozenSet[int]:
    """PCs where control can arrive other than by falling through.

    These are pc 0, every direct branch ``target``, and the pc after
    every non-compilable instruction: the fall-through of a branch, the
    return point of a ``JAL``, and the resume point after ``HALT`` or
    ``SYSCALL``.  Indirect (``JALR``) targets are not known statically;
    returns land on the pc after their ``JAL``, which is a leader.
    """
    size = len(instructions)
    leaders = {0}
    for pc, instr in enumerate(instructions):
        if instr.opcode not in COMPILABLE_OPCODES:
            leaders.add(pc + 1)
            if instr.target is not None:
                leaders.add(instr.target)
    return frozenset(pc for pc in leaders if 0 <= pc < size)
