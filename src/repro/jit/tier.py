"""The superblock cache: compile when hot, bind per context, invalidate cheap.

Two layers of caching, keyed by entry PC:

* ``_code`` — the compiled code object (plus emitted source and the
  StepInfo templates).  The program is immutable for the life of a run,
  so this layer is **never** invalidated; it exists so that voltage
  invalidations don't pay the ``compile()`` cost again.
* ``_active`` — bound block runners: the factory executed against the
  live context (state, register lists, port methods, timing commit).
  This layer is dropped whenever a DVFS move changes the supply voltage
  (:meth:`SuperblockJit.note_voltage`), the event that re-thresholds
  fault maps and re-times the core; re-binding a block afterwards is a
  single factory call.

Compilation is lazy.  A caller that passes its ``room`` to
:meth:`SuperblockJit.runner` gets a block only at a control-flow leader,
only when the block fits that room, and only on the block's
:data:`~repro.jit.superblock.HOT_ENTRIES`-th fitting arrival in this
run.  The heat counts are per tier, so every ``jit.*`` counter except
``blocks_compiled`` is a function of the run alone, whatever the warmth
of the process-wide code cache.

Segment turnover is even cheaper: compiled blocks take the recorder as a
call argument, so :meth:`SuperblockJit.note_segment` just swaps the
``_rec`` binding the engine passes on the next dispatch — no cache
traffic at all.  Both events are counted in :class:`JitStats` so tests
and telemetry can see the invalidation protocol working.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..isa.executor import StepInfo
from ..isa.instructions import FunctionalUnit
from ..isa.registers import bits_to_float, float_to_bits
from . import runtime, superblock
from .emit import build_step_infos, emit_factory_source
from .superblock import block_leaders, superblock_length

_UNITS_BY_NAME = {unit.value: unit for unit in FunctionalUnit}

_MISS = object()

# compile()d artifacts shared across tiers over the same program object
# and emission mode.  Program is an eq-compared (unhashable) dataclass,
# so the key is its identity; a weakref finalizer evicts the entry when
# the program dies, before the id can be reused.  Sharing is safe
# because programs are immutable and the artifacts are only mutated
# through their StepInfo ``address`` slots, which every consumer
# overwrites before reading — and runs within one process are
# sequential (parallelism in this repo is process fan-out).
_SHARED_CODE: Dict[Tuple[int, bool, bool], Dict[int, Optional["_Compiled"]]] = {}


# Per program: the block length at every control-flow leader that starts
# a superblock.  Shared and evicted like _SHARED_CODE.
_SHARED_LEADERS: Dict[int, Dict[int, int]] = {}


def _per_program(table: Dict, key, program, build: Callable[[], Dict]) -> Dict:
    """``table[key]``, built on first use and evicted when ``program`` dies."""
    value = table.get(key)
    if value is None:
        value = build()
        table[key] = value
        weakref.finalize(program, table.pop, key, None)
    return value


def _leader_lengths(instructions) -> Dict[int, int]:
    lengths = {}
    for pc in block_leaders(instructions):
        length = superblock_length(instructions, pc)
        if length:
            lengths[pc] = length
    return lengths


@dataclass
class _Compiled:
    """Per-PC compile()d artifact; survives every invalidation."""

    __slots__ = ("code", "source", "length", "infos")

    code: Any
    source: str
    length: int
    infos: Optional[Tuple[StepInfo, ...]]


class BlockEntry:
    """A bound, directly callable superblock."""

    __slots__ = ("run", "length")

    def __init__(self, run: Callable[..., None], length: int) -> None:
        self.run = run
        self.length = length


@dataclass
class JitStats:
    """Counters for the tier's caches and dispatch volume."""

    blocks_compiled: int = 0
    activations: int = 0
    dispatches: int = 0
    instructions: int = 0
    segment_rebinds: int = 0
    voltage_invalidations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "blocks_compiled": self.blocks_compiled,
            "activations": self.activations,
            "dispatches": self.dispatches,
            "instructions": self.instructions,
            "segment_rebinds": self.segment_rebinds,
            "voltage_invalidations": self.voltage_invalidations,
        }


class SuperblockJit:
    """Per-run compiled tier over one program/state/port triple.

    Compiling is the tier's dominant cost: emitting and ``compile()``-ing
    a record+commit block takes about 90 us per instruction (about 2 ms
    for a typical block), against 2-4 us per instruction saved each time
    the block runs.  Hence :meth:`runner` compiles a block only once it
    is hot.  Compiled code is shared by every tier over the same
    program object in the process; bound blocks and heat are per tier.

    ``record`` adds per-instruction segment recording (the block
    receives the recorder as its call argument); ``commit``/``unit_mix``
    add the engine's timing commit and histogram.  Callers pick the
    combination matching the loop they replace — see
    :func:`repro.jit.emit.emit_factory_source`.
    """

    def __init__(
        self,
        program,
        state,
        port,
        *,
        commit: Optional[Callable[[StepInfo], None]] = None,
        unit_mix: Optional[Dict[str, int]] = None,
        record: bool = False,
    ) -> None:
        self.program = program
        self.state = state
        self.port = port
        self.record = record
        self._commit = commit
        self._unit_mix = unit_mix
        self._code: Dict[int, Optional[_Compiled]] = _per_program(
            _SHARED_CODE, (id(program), record, commit is not None), program, dict
        )
        self._active: Dict[int, Optional[BlockEntry]] = {}
        self._leaders = _per_program(
            _SHARED_LEADERS,
            id(program),
            program,
            lambda: _leader_lengths(program.instructions),
        )
        self._size = len(program.instructions)
        #: Fitting arrivals so far at each leader not yet activated.
        self._heat: Dict[int, int] = {}
        #: Current segment's ``record_instruction``; the engine passes
        #: this into every record-mode dispatch.
        self._rec: Optional[Callable[..., None]] = None
        self._voltage: Optional[float] = None
        self.stats = JitStats()

    # -- dispatch ---------------------------------------------------------
    def runner(self, pc: int, room: Optional[int] = None) -> Optional[BlockEntry]:
        """The bound block entered at ``pc``, or None to interpret.

        ``room`` is how many instructions the caller may still run
        before its next gate (segment target, instruction or livelock
        budget).  With it, a block is activated only at a control-flow
        leader, only when its length fits ``room``, and only on its
        :data:`~repro.jit.superblock.HOT_ENTRIES`-th such arrival; a
        non-leader is cached as None, a cold or non-fitting arrival
        returns None uncached.  Without it, the block is activated on
        the first request (the differential oracle checks every block).
        """
        entry = self._active.get(pc, _MISS)
        if entry is not _MISS:
            return entry
        if room is None:
            return self._activate(pc)
        length = self._leaders.get(pc)
        if length is None:
            if 0 <= pc < self._size:
                self._active[pc] = None
            return None
        if length > room:
            return None
        heat = self._heat.get(pc, 0) + 1
        if heat < superblock.HOT_ENTRIES:
            self._heat[pc] = heat
            return None
        return self._activate(pc)

    def _activate(self, pc: int) -> Optional[BlockEntry]:
        compiled = self._code.get(pc, _MISS)
        if compiled is _MISS:
            compiled = self._compile(pc)
            if compiled is None and not 0 <= pc < self._size:
                # Never memoise wild PCs (e.g. a fuzzed JALR target):
                # the interpreter turns them into InvalidPcTrap and the
                # cache must not grow without bound.
                return None
            self._code[pc] = compiled
        if compiled is None:
            self._active[pc] = None
            return None
        entry = BlockEntry(self._bind(compiled), compiled.length)
        self._active[pc] = entry
        self.stats.activations += 1
        return entry

    # -- compilation ------------------------------------------------------
    def _compile(self, pc: int) -> Optional[_Compiled]:
        instructions = self.program.instructions
        length = superblock_length(instructions, pc)
        if length == 0:
            return None
        commit = self._commit is not None
        source = emit_factory_source(
            instructions, pc, length, record=self.record, commit=commit
        )
        code = compile(source, f"<superblock pc={pc}>", "exec")
        infos = build_step_infos(instructions, pc, length) if commit else None
        self.stats.blocks_compiled += 1
        return _Compiled(code, source, length, infos)

    def _bind(self, compiled: _Compiled) -> Callable[..., None]:
        regs = self.state.regs
        ctx = {
            "state": self.state,
            "regs": regs,
            # RegisterFile.restore copies in place, so these list
            # objects stay valid across checkpoints and rollbacks.
            "x": regs.x,
            "f": regs.f,
            "load": self.port.load,
            "store": self.port.store,
            "btf": bits_to_float,
            "ftb": float_to_bits,
            "sdiv": runtime.sdiv,
            "srem": runtime.srem,
            "fdiv": runtime.fdiv,
            "fcvti": runtime.fcvti,
            "flags_sub": runtime.flags_sub,
            "commit": self._commit,
            "um": self._unit_mix,
            "infos": compiled.infos,
            "units": _UNITS_BY_NAME,
        }
        namespace: Dict[str, Any] = {}
        exec(compiled.code, namespace)
        return namespace["__block__"](ctx)

    # -- invalidation protocol --------------------------------------------
    def note_segment(self, segment) -> None:
        """A new log segment opened: rebind the recorder."""
        self._rec = segment.record_instruction
        self.stats.segment_rebinds += 1

    def note_voltage(self, voltage: float) -> None:
        """DVFS output sync: drop bound blocks on an actual move."""
        if self._voltage is None:
            self._voltage = voltage
            return
        if voltage != self._voltage:
            self._voltage = voltage
            self._active.clear()
            self.stats.voltage_invalidations += 1

    # -- introspection ----------------------------------------------------
    def source_for(self, pc: int) -> Optional[str]:
        """Emitted source of the block entered at ``pc`` (tests/debug)."""
        compiled = self._code.get(pc, _MISS)
        if compiled is _MISS:
            compiled = self._compile(pc)
            if 0 <= pc < self._size:
                self._code[pc] = compiled
        return compiled.source if compiled is not None else None
