"""Functional execution engine.

One :class:`Executor` advances one :class:`~repro.isa.state.ArchState`
through a program, one instruction per :meth:`Executor.step`.  The same
executor implements both core types: what distinguishes a main core from a
checker core functionally is only the :class:`DataPort` it is given —
a main core's port reads real memory and appends to the load-store log,
while a checker core's port replays the log (see
:mod:`repro.lslog.ports`).

Semantic choices (documented, RISC-V-flavoured, trap-free for the
arithmetic units so that injected faults produce *wrong values* rather than
simulator crashes):

* integer division by zero yields all-ones (quotient) / the dividend
  (remainder);
* shift amounts use only the low 6 bits;
* ``FCVTI`` saturates on overflow and maps NaN to zero.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple

from .errors import HaltTrap, InvalidPcTrap
from .instructions import Instruction, Opcode, Syscall
from .program import Program
from .registers import MASK64, Flag, to_signed, to_unsigned
from .state import ArchState

#: A register tag: ("x"|"f"|"flags", index).
RegTag = Tuple[str, int]


class DataPort(Protocol):
    """Data-side memory interface of a core."""

    def load(self, address: int) -> int:
        """Return the 64-bit word at ``address``."""
        ...

    def store(self, address: int, value: int) -> None:
        """Write the 64-bit word ``value`` at ``address``."""
        ...


@dataclass
class StepInfo:
    """Everything the timing models need to know about one retired instruction."""

    __slots__ = (
        "instruction",
        "pc_before",
        "pc_after",
        "reads",
        "dest",
        "address",
        "taken",
    )

    instruction: Instruction
    pc_before: int
    pc_after: int
    reads: Tuple[RegTag, ...]
    dest: Optional[RegTag]
    address: Optional[int]
    taken: Optional[bool]


def _flags_from_sub(a: int, b: int) -> Tuple[bool, bool, bool, bool]:
    """NZCV for ``a - b`` with 64-bit two's-complement semantics."""
    sa, sb = to_signed(a), to_signed(b)
    result = (a - b) & MASK64
    n = bool(result >> 63)
    z = result == 0
    c = to_unsigned(a) >= to_unsigned(b)
    signed_result = sa - sb
    v = not (-(1 << 63) <= signed_result < (1 << 63))
    return n, z, c, v


class Executor:
    """Step a program over an architectural state and a data port."""

    def __init__(self, program: Program, state: ArchState, port: DataPort) -> None:
        self.program = program
        self.state = state
        self.port = port
        self._dispatch: Dict[Opcode, Callable[[Instruction], StepInfo]] = {}
        self._build_dispatch()
        # Per-PC decode table: the handler and the instruction are both
        # pure functions of the PC, so resolve them once instead of an
        # instruction fetch plus an enum-keyed dict probe per step.
        dispatch = self._dispatch
        self._decoded = [
            (dispatch[instruction.opcode], instruction)
            for instruction in program.instructions
        ]
        # Optional compiled superblock tier; attach_jit() installs one
        # and run() then prefers compiled dispatch.  step() is always
        # pure interpretation — engine loops that need per-instruction
        # control keep using it and drive the tier themselves.
        self.jit = None

    # -- public API --------------------------------------------------------------
    def attach_jit(self):
        """Install a bare-mode superblock tier and return it.

        Imported lazily: :mod:`repro.jit` builds on this module.
        """
        from ..jit import SuperblockJit

        self.jit = SuperblockJit(self.program, self.state, self.port)
        return self.jit

    def step(self) -> StepInfo:
        """Execute one instruction; raises :class:`SimTrap` subclasses."""
        state = self.state
        if state.halted:
            raise HaltTrap("stepping a halted core")
        pc = state.pc
        if pc < 0:
            raise InvalidPcTrap(pc)
        try:
            handler, instr = self._decoded[pc]
        except IndexError:
            raise InvalidPcTrap(pc) from None
        info = handler(instr)
        state.instret += 1
        return info

    def run(self, max_instructions: int) -> int:
        """Run until HALT or the instruction budget; return instructions retired."""
        state = self.state
        jit = self.jit
        if jit is not None:
            # Retired count comes from the instret delta: both step()
            # and compiled blocks advance instret exactly once per
            # retired instruction, and the blocks' flush discipline
            # keeps it exact even when a port trap propagates out.
            start = state.instret
            limit = start + max_instructions
            active_get = jit._active.get
            runner = jit.runner
            step = self.step
            miss = object()
            dispatches = 0
            block_instructions = 0
            try:
                while not state.halted:
                    instret = state.instret
                    if instret >= limit:
                        break
                    entry = active_get(state.pc, miss)
                    if entry is miss:
                        entry = runner(state.pc, limit - instret)
                    if entry is not None and instret + entry.length <= limit:
                        entry.run()
                        dispatches += 1
                        block_instructions += entry.length
                        continue
                    step()
            finally:
                stats = jit.stats
                stats.dispatches += dispatches
                stats.instructions += block_instructions
            return state.instret - start
        retired = 0
        while not state.halted and retired < max_instructions:
            self.step()
            retired += 1
        return retired

    # -- helpers --------------------------------------------------------------------
    def _advance(
        self,
        instr: Instruction,
        reads: Tuple[RegTag, ...],
        dest: Optional[RegTag],
        address: Optional[int] = None,
        next_pc: Optional[int] = None,
        taken: Optional[bool] = None,
    ) -> StepInfo:
        state = self.state
        pc_before = state.pc
        state.pc = pc_before + 1 if next_pc is None else next_pc
        return StepInfo(instr, pc_before, state.pc, reads, dest, address, taken)

    # -- dispatch construction --------------------------------------------------------
    def _build_dispatch(self) -> None:
        d = self._dispatch
        regs = self.state.regs

        def binop(fn: Callable[[int, int], int]) -> Callable[[Instruction], StepInfo]:
            def execute(instr: Instruction) -> StepInfo:
                value = fn(regs.x[instr.rs1], regs.x[instr.rs2])
                regs.write_x(instr.rd, value)
                return self._advance(
                    instr, (("x", instr.rs1), ("x", instr.rs2)), ("x", instr.rd)
                )

            return execute

        def immop(fn: Callable[[int, int], int]) -> Callable[[Instruction], StepInfo]:
            def execute(instr: Instruction) -> StepInfo:
                value = fn(regs.x[instr.rs1], instr.imm)
                regs.write_x(instr.rd, value)
                return self._advance(instr, (("x", instr.rs1),), ("x", instr.rd))

            return execute

        def fbinop(fn: Callable[[float, float], float]) -> Callable[[Instruction], StepInfo]:
            def execute(instr: Instruction) -> StepInfo:
                value = fn(regs.read_f(instr.rs1), regs.read_f(instr.rs2))
                regs.write_f(instr.rd, value)
                return self._advance(
                    instr, (("f", instr.rs1), ("f", instr.rs2)), ("f", instr.rd)
                )

            return execute

        def sdiv(a: int, b: int) -> int:
            if b == 0:
                return MASK64
            sa, sb = to_signed(a), to_signed(b)
            q = abs(sa) // abs(sb)
            return to_unsigned(-q if (sa < 0) != (sb < 0) else q)

        def srem(a: int, b: int) -> int:
            if b == 0:
                return a
            sa, sb = to_signed(a), to_signed(b)
            r = abs(sa) % abs(sb)
            return to_unsigned(-r if sa < 0 else r)

        def fdiv(a: float, b: float) -> float:
            if b == 0.0:
                # IEEE 754: x/±0 is ±inf with the XOR of the operand
                # signs (so 1.0/-0.0 is -inf), and 0/0 or NaN/0 is NaN.
                if a == 0.0 or math.isnan(a):
                    return float("nan")
                return math.copysign(float("inf"), a) * math.copysign(1.0, b)
            return a / b

        d[Opcode.ADD] = binop(lambda a, b: a + b)
        d[Opcode.SUB] = binop(lambda a, b: a - b)
        d[Opcode.AND] = binop(lambda a, b: a & b)
        d[Opcode.ORR] = binop(lambda a, b: a | b)
        d[Opcode.EOR] = binop(lambda a, b: a ^ b)
        d[Opcode.LSL] = binop(lambda a, b: a << (b & 63))
        d[Opcode.LSR] = binop(lambda a, b: a >> (b & 63))
        d[Opcode.ASR] = binop(lambda a, b: to_unsigned(to_signed(a) >> (b & 63)))
        d[Opcode.MUL] = binop(lambda a, b: a * b)
        d[Opcode.DIV] = binop(sdiv)
        d[Opcode.REM] = binop(srem)
        d[Opcode.ADDI] = immop(lambda a, i: a + i)
        d[Opcode.SUBI] = immop(lambda a, i: a - i)
        d[Opcode.ANDI] = immop(lambda a, i: a & to_unsigned(i))
        d[Opcode.ORRI] = immop(lambda a, i: a | to_unsigned(i))
        d[Opcode.EORI] = immop(lambda a, i: a ^ to_unsigned(i))
        d[Opcode.LSLI] = immop(lambda a, i: a << (i & 63))
        d[Opcode.LSRI] = immop(lambda a, i: a >> (i & 63))
        d[Opcode.ASRI] = immop(lambda a, i: to_unsigned(to_signed(a) >> (i & 63)))
        d[Opcode.FADD] = fbinop(lambda a, b: a + b)
        d[Opcode.FSUB] = fbinop(lambda a, b: a - b)
        d[Opcode.FMUL] = fbinop(lambda a, b: a * b)
        d[Opcode.FDIV] = fbinop(fdiv)

        d[Opcode.MOV] = self._exec_mov
        d[Opcode.MOVI] = self._exec_movi
        d[Opcode.CMP] = self._exec_cmp
        d[Opcode.CMPI] = self._exec_cmpi
        d[Opcode.FCMP] = self._exec_fcmp
        d[Opcode.FMOV] = self._exec_fmov
        d[Opcode.FMOVI] = self._exec_fmovi
        d[Opcode.FCVT] = self._exec_fcvt
        d[Opcode.FCVTI] = self._exec_fcvti
        d[Opcode.LDR] = self._exec_load
        d[Opcode.FLDR] = self._exec_load
        d[Opcode.STR] = self._exec_store
        d[Opcode.FSTR] = self._exec_store
        d[Opcode.B] = self._exec_b
        for op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BGT, Opcode.BLE):
            d[op] = self._exec_cond_branch
        d[Opcode.CBZ] = self._exec_cb
        d[Opcode.CBNZ] = self._exec_cb
        d[Opcode.JAL] = self._exec_jal
        d[Opcode.JALR] = self._exec_jalr
        d[Opcode.NOP] = self._exec_nop
        d[Opcode.HALT] = self._exec_halt
        d[Opcode.SYSCALL] = self._exec_syscall

    # -- individual handlers -------------------------------------------------------------
    def _exec_mov(self, instr: Instruction) -> StepInfo:
        self.state.regs.write_x(instr.rd, self.state.regs.x[instr.rs1])
        return self._advance(instr, (("x", instr.rs1),), ("x", instr.rd))

    def _exec_movi(self, instr: Instruction) -> StepInfo:
        self.state.regs.write_x(instr.rd, to_unsigned(instr.imm))
        return self._advance(instr, (), ("x", instr.rd))

    def _exec_cmp(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        regs.set_flags(*_flags_from_sub(regs.x[instr.rs1], regs.x[instr.rs2]))
        return self._advance(
            instr, (("x", instr.rs1), ("x", instr.rs2)), ("flags", 0)
        )

    def _exec_cmpi(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        regs.set_flags(*_flags_from_sub(regs.x[instr.rs1], to_unsigned(instr.imm)))
        return self._advance(instr, (("x", instr.rs1),), ("flags", 0))

    def _exec_fcmp(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        a, b = regs.read_f(instr.rs1), regs.read_f(instr.rs2)
        if a != a or b != b:  # unordered (NaN)
            regs.set_flags(False, False, True, True)
        else:
            regs.set_flags(a < b, a == b, a >= b, False)
        return self._advance(instr, (("f", instr.rs1), ("f", instr.rs2)), ("flags", 0))

    def _exec_fmov(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        regs.write_f_bits(instr.rd, regs.read_f_bits(instr.rs1))
        return self._advance(instr, (("f", instr.rs1),), ("f", instr.rd))

    def _exec_fmovi(self, instr: Instruction) -> StepInfo:
        self.state.regs.write_f(instr.rd, instr.fimm)
        return self._advance(instr, (), ("f", instr.rd))

    def _exec_fcvt(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        regs.write_f(instr.rd, float(to_signed(regs.x[instr.rs1])))
        return self._advance(instr, (("x", instr.rs1),), ("f", instr.rd))

    def _exec_fcvti(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        value = regs.read_f(instr.rs1)
        if value != value:  # NaN
            result = 0
        elif value >= 2.0**63:
            result = (1 << 63) - 1
        elif value <= -(2.0**63):
            result = 1 << 63  # most-negative pattern
        else:
            result = to_unsigned(int(value))
        regs.write_x(instr.rd, result)
        return self._advance(instr, (("f", instr.rs1),), ("x", instr.rd))

    def _exec_load(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        address = (regs.x[instr.rs1] + instr.imm) & MASK64
        value = self.port.load(address)
        if instr.opcode is Opcode.LDR:
            regs.write_x(instr.rd, value)
            dest: RegTag = ("x", instr.rd)
        else:
            regs.write_f_bits(instr.rd, value)
            dest = ("f", instr.rd)
        return self._advance(instr, (("x", instr.rs1),), dest, address=address)

    def _exec_store(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        address = (regs.x[instr.rs1] + instr.imm) & MASK64
        if instr.opcode is Opcode.STR:
            value = regs.x[instr.rs2]
            reads: Tuple[RegTag, ...] = (("x", instr.rs1), ("x", instr.rs2))
        else:
            value = regs.read_f_bits(instr.rs2)
            reads = (("x", instr.rs1), ("f", instr.rs2))
        self.port.store(address, value)
        return self._advance(instr, reads, None, address=address)

    def _exec_b(self, instr: Instruction) -> StepInfo:
        return self._advance(instr, (), None, next_pc=instr.target, taken=True)

    _CONDITIONS = {
        Opcode.BEQ: lambda n, z, c, v: z,
        Opcode.BNE: lambda n, z, c, v: not z,
        Opcode.BLT: lambda n, z, c, v: n != v,
        Opcode.BGE: lambda n, z, c, v: n == v,
        Opcode.BGT: lambda n, z, c, v: not z and n == v,
        Opcode.BLE: lambda n, z, c, v: z or n != v,
    }

    def _exec_cond_branch(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        n, z = regs.flag(Flag.N), regs.flag(Flag.Z)
        c, v = regs.flag(Flag.C), regs.flag(Flag.V)
        taken = self._CONDITIONS[instr.opcode](n, z, c, v)
        next_pc = instr.target if taken else None
        return self._advance(instr, (("flags", 0),), None, next_pc=next_pc, taken=taken)

    def _exec_cb(self, instr: Instruction) -> StepInfo:
        value = self.state.regs.x[instr.rs1]
        taken = (value == 0) if instr.opcode is Opcode.CBZ else (value != 0)
        next_pc = instr.target if taken else None
        return self._advance(instr, (("x", instr.rs1),), None, next_pc=next_pc, taken=taken)

    def _exec_jal(self, instr: Instruction) -> StepInfo:
        self.state.regs.write_x(instr.rd, self.state.pc + 1)
        return self._advance(instr, (), ("x", instr.rd), next_pc=instr.target, taken=True)

    def _exec_jalr(self, instr: Instruction) -> StepInfo:
        regs = self.state.regs
        next_pc = regs.x[instr.rs1]
        regs.write_x(instr.rd, self.state.pc + 1)
        return self._advance(
            instr, (("x", instr.rs1),), ("x", instr.rd), next_pc=next_pc, taken=True
        )

    def _exec_nop(self, instr: Instruction) -> StepInfo:
        return self._advance(instr, (), None)

    def _exec_halt(self, instr: Instruction) -> StepInfo:
        self.state.halted = True
        return self._advance(instr, (), None)

    def _exec_syscall(self, instr: Instruction) -> StepInfo:
        state = self.state
        number = instr.imm
        if number == Syscall.EXIT:
            state.halted = True
        elif number == Syscall.PRINT_INT:
            state.output.append((state.instret, str(to_signed(state.regs.x[1]))))
        elif number == Syscall.PRINT_FLOAT:
            state.output.append((state.instret, repr(state.regs.read_f(1))))
        elif number == Syscall.GET_INSTRET:
            state.regs.write_x(1, state.instret)
        elif number == Syscall.WRITE_EXTERNAL:
            # Functionally identical to PRINT_INT (the value lands in the
            # output stream, so checkers verify it); the engine is
            # responsible for draining checks before this retires.
            state.output.append((state.instret, f"ext:{to_signed(state.regs.x[1])}"))
        else:
            # Unknown syscalls are NOPs; a corrupted syscall number on a
            # checker therefore diverges through its (lack of) effects.
            pass
        return self._advance(instr, (("x", 1),), None)
