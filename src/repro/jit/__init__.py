"""Compiled superblock execution tier.

The interpreter in :mod:`repro.isa.executor` pays a per-instruction
dispatch cost (decode-table probe, handler call, :class:`StepInfo`
allocation) that dominates fault-free execution time.  This package
removes it for the common case: straight-line regions (**superblocks**)
are discovered at runtime from the decoded program, compiled once hot into
a single specialized Python function — register indices, immediates and
folded constants burned in as literals, the source run through
``compile()`` — and cached by entry PC.  Control flow, traps, syscalls
and fault-injection points are never folded into a block; execution
falls back to the interpreter there, and the two paths are bit-identical
by construction (the differential oracle in :mod:`repro.oracle` is the
merge gate for every change to this package).

Layering:

* :mod:`repro.jit.superblock` — region discovery (which opcodes may be
  folded, where a block must end);
* :mod:`repro.jit.runtime` — the handful of out-of-line helpers the
  generated code calls (signed division, IEEE division, NZCV packing);
* :mod:`repro.jit.emit` — per-opcode source emission and the per-mode
  bookkeeping (timing commit / unit mix / segment recording);
* :mod:`repro.jit.tier` — the cache: compile-once code objects, bound
  activations invalidated on voltage moves, per-segment rebinding.
"""

from .superblock import (
    COMPILABLE_OPCODES,
    HOT_ENTRIES,
    MAX_BLOCK,
    MIN_BLOCK,
    block_leaders,
    superblock_length,
)
from .tier import BlockEntry, JitStats, SuperblockJit

__all__ = [
    "COMPILABLE_OPCODES",
    "HOT_ENTRIES",
    "MAX_BLOCK",
    "MIN_BLOCK",
    "block_leaders",
    "superblock_length",
    "BlockEntry",
    "JitStats",
    "SuperblockJit",
]
