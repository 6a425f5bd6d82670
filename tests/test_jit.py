"""Compiled superblock tier: discovery, bit-identity, invalidation.

The contract under test: running any workload through the tier
(``golden_run(jit=True)``, ``EngineOptions.jit``, or the oracle's
``use_jit``) is *bit-identical* to pure interpretation — same final
architectural state, same retired-instruction count, same timing, same
telemetry-visible bookkeeping.  The cache invalidation protocol (DVFS
voltage moves drop bound blocks, segment turnover rebinds the recorder)
and the structural exclusion of fault-injection points (no tier exists
under a main-core injector) are pinned explicitly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import pytest

from repro.core import ParaDoxSystem
from repro.faults.injector import default_injector
from repro.isa import ArchState, MemoryImage, Opcode, assemble
from repro.isa.instructions import BRANCH_OPCODES
from repro.jit import (
    COMPILABLE_OPCODES,
    HOT_ENTRIES,
    MAX_BLOCK,
    MIN_BLOCK,
    SuperblockJit,
    block_leaders,
    superblock,
    superblock_length,
)
from repro.oracle.fuzzer import PROFILES, build_workload, generate_case, run_case
from repro.parallel import run_fanout
from repro.workloads import Workload, build_spec_workload, golden_run

# ---------------------------------------------------------------------------
# discovery


class TestSuperblockDiscovery:
    def test_branches_halt_syscall_are_not_compilable(self):
        assert not (COMPILABLE_OPCODES & set(BRANCH_OPCODES))
        assert Opcode.HALT not in COMPILABLE_OPCODES
        assert Opcode.SYSCALL not in COMPILABLE_OPCODES

    def test_out_of_range_pc(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nmovi x3, 3\nhalt")
        assert superblock_length(program.instructions, -1) == 0
        assert superblock_length(program.instructions, 99) == 0

    def test_entry_on_branch_is_not_a_block(self):
        program = assemble("loop:\nmovi x1, 1\nmovi x2, 2\nmovi x3, 3\nb loop")
        assert superblock_length(program.instructions, 3) == 0

    def test_short_runs_stay_interpreted(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nhalt")
        assert superblock_length(program.instructions, 0) == 0
        assert MIN_BLOCK == 3

    def test_region_stops_before_terminator(self):
        program = assemble(
            "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nsub x4, x3, x1\nhalt"
        )
        assert superblock_length(program.instructions, 0) == 4

    def test_overlapping_entries(self):
        program = assemble(
            "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nsub x4, x3, x1\n"
            "mul x5, x4, x2\nhalt"
        )
        assert superblock_length(program.instructions, 0) == 5
        assert superblock_length(program.instructions, 1) == 4
        assert superblock_length(program.instructions, 2) == 3

    def test_length_cap(self):
        source = "\n".join(f"movi x{1 + (i % 5)}, {i}" for i in range(200))
        program = assemble(source + "\nhalt")
        assert superblock_length(program.instructions, 0) == MAX_BLOCK

    def test_leaders(self):
        program = assemble(
            "movi x1, 1\n"      # 0: program entry
            "cbz x1, mid\n"     # 1
            "movi x2, 2\n"      # 2: after a branch
            "movi x3, 3\n"      # 3
            "mid:\n"
            "movi x4, 4\n"      # 4: branch target
            "movi x5, 5\n"      # 5
            "jal x30, fn\n"     # 6
            "movi x6, 6\n"      # 7: after JAL (return point)
            "syscall 2\n"       # 8
            "movi x7, 7\n"      # 9: after SYSCALL
            "halt\n"            # 10
            "fn:\n"
            "movi x9, 9\n"      # 11: after HALT and JAL target
            "jalr x30"          # 12: its fall-through is off the end
        )
        assert block_leaders(program.instructions) == {0, 2, 4, 7, 9, 11}

    def test_fuzz_blocks_never_contain_excluded_opcodes(self):
        for profile in PROFILES:
            program = build_workload(generate_case(11, profile)).program
            for pc in range(len(program.instructions)):
                length = superblock_length(program.instructions, pc)
                for instr in program.instructions[pc : pc + length]:
                    assert instr.opcode in COMPILABLE_OPCODES


# ---------------------------------------------------------------------------
# bit-identity: bare executor


def _assert_golden_identical(workload):
    interp = golden_run(workload)
    jitted = golden_run(workload, jit=True)
    assert jitted.instructions == interp.instructions
    assert jitted.state.regs.x == interp.state.regs.x
    assert jitted.state.regs.f == interp.state.regs.f
    assert jitted.state.regs.flags == interp.state.regs.flags
    assert jitted.state.pc == interp.state.pc
    assert jitted.output == interp.output
    assert jitted.memory.words == interp.memory.words


class TestExecutorIdentity:
    def test_kernel_workload(self, bitcount_small):
        _assert_golden_identical(bitcount_small)

    def test_spec_workload(self):
        _assert_golden_identical(build_spec_workload("bzip2", iterations=3))

    def test_x0_destination_discards_write_but_retires(self):
        program = assemble(
            "movi x1, 7\nmovi x2, 5\nadd x0, x1, x2\nsub x0, x1, x2\n"
            "mul x3, x1, x2\nadd x4, x3, x0\nhalt"
        )
        # The x0-dest instructions sit inside one compiled block.
        assert superblock_length(program.instructions, 0) == 6
        workload = Workload(name="x0", program=program, max_instructions=100)
        _assert_golden_identical(workload)
        golden = golden_run(workload, jit=True)
        assert golden.state.regs.x[0] == 0
        assert golden.instructions == 7

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_fuzz_profile(self, profile):
        for seed in (1, 7, 23):
            _assert_golden_identical(
                build_workload(generate_case(seed, profile))
            )


# ---------------------------------------------------------------------------
# bit-identity: full engine


def _result_fingerprint(result):
    return (
        result.wall_ns,
        result.instructions,
        result.instructions_executed,
        result.segments,
        result.outcome,
        result.mean_voltage,
        result.faults_injected,
        result.program_output,
        result.unit_mix,
        result.mean_checkpoint_length,
        result.final_checkpoint_target,
        result.voltage_trace,
        len(result.recoveries),
    )


@pytest.fixture
def compile_on_first_arrival(monkeypatch):
    """Compile every block on its first fitting arrival.

    These runs are too short for the default heat threshold to compile
    anything, and the identity tests must compare compiled execution
    against interpretation.
    """
    monkeypatch.setattr(superblock, "HOT_ENTRIES", 1)


def _run_compiled(system, workload, seed):
    """``system.run`` that also checks blocks actually ran."""
    engine = system.engine(workload, seed=seed)
    result = engine.run(workload.max_instructions)
    assert engine.jit.stats.dispatches > 0
    return result


@pytest.mark.usefixtures("compile_on_first_arrival")
class TestEngineIdentity:
    def test_error_free_run(self, bitcount_small):
        jitted = _run_compiled(ParaDoxSystem(), bitcount_small, seed=7)
        interp = ParaDoxSystem(jit=False).run(bitcount_small, seed=7)
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    def test_dvs_run(self):
        workload = build_spec_workload("milc", iterations=12)
        jitted = _run_compiled(ParaDoxSystem(dvs=True), workload, seed=3)
        interp = ParaDoxSystem(dvs=True, jit=False).run(workload, seed=3)
        assert jitted.voltage_trace  # DVS actually moved the supply
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    def test_checker_fault_run_with_recoveries(self):
        workload = build_spec_workload("milc", iterations=12)
        from repro.config import table1_config

        config = table1_config().with_error_rate(1e-3, seed=3)
        jitted = _run_compiled(ParaDoxSystem(config=config), workload, seed=3)
        interp = ParaDoxSystem(config=config, jit=False).run(workload, seed=3)
        assert jitted.faults_injected > 0
        assert jitted.recoveries  # rollbacks replayed through both paths
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)


# ---------------------------------------------------------------------------
# oracle gate


class TestOracleEquivalence:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_differential_oracle_passes_with_jit(self, profile):
        report = run_case(generate_case(5, profile), use_jit=True)
        assert report.ok, report.divergence

    def test_escape_hatch_still_interprets(self):
        report = run_case(generate_case(5, "mixed"), use_jit=False)
        assert report.ok


# ---------------------------------------------------------------------------
# cache invalidation protocol


def _bare_tier(workload):
    state = ArchState()
    memory = workload.create_memory()
    return SuperblockJit(workload.program, state, memory), state


class TestInvalidation:
    def test_voltage_move_drops_bound_blocks(self, bitcount_small):
        jit, _state = _bare_tier(bitcount_small)
        pc = next(
            pc
            for pc in range(len(bitcount_small.program.instructions))
            if superblock_length(bitcount_small.program.instructions, pc)
        )
        assert jit.runner(pc) is not None
        assert jit._active
        jit.note_voltage(1.0)  # first call: baseline, no invalidation
        assert jit._active and jit.stats.voltage_invalidations == 0
        jit.note_voltage(1.0)  # same voltage: no-op
        assert jit._active and jit.stats.voltage_invalidations == 0
        jit.note_voltage(0.9)  # an actual move
        assert not jit._active
        assert jit.stats.voltage_invalidations == 1
        # Re-activation rebinds from the compile cache, no recompile.
        compiled_before = jit.stats.blocks_compiled
        assert jit.runner(pc) is not None
        assert jit.stats.blocks_compiled == compiled_before

    def test_segment_turnover_rebinds_recorder(self, bitcount_small):
        jit, _state = _bare_tier(bitcount_small)
        recorder = lambda *a, **k: None  # noqa: E731
        jit.note_segment(types.SimpleNamespace(record_instruction=recorder))
        assert jit._rec is recorder
        assert jit.stats.segment_rebinds == 1

    @pytest.mark.usefixtures("compile_on_first_arrival")
    def test_engine_counts_dvfs_invalidations(self):
        workload = build_spec_workload("milc", iterations=12)
        system = ParaDoxSystem(dvs=True)
        engine = system.engine(workload, seed=5)
        engine.run(workload.max_instructions)
        assert engine.jit is not None
        stats = engine.jit.stats
        assert stats.dispatches > 0 and stats.instructions > 0
        assert stats.segment_rebinds > 0
        assert stats.voltage_invalidations > 0  # DVS moved the supply


# ---------------------------------------------------------------------------
# lazy compilation: leaders, room and heat


def _straight_line_tier(length):
    """A tier over a fresh program: one block of ``length`` at pc 0."""
    source = "\n".join(f"movi x{1 + i % 5}, {i}" for i in range(length))
    workload = Workload(
        name="line", program=assemble(source + "\nhalt"), max_instructions=100
    )
    return _bare_tier(workload)[0]


class TestLazyCompilation:
    def test_non_leader_neither_compiles_nor_heats(self):
        jit = _straight_line_tier(6)
        for _ in range(HOT_ENTRIES + 1):
            assert jit.runner(1, room=100) is None
        assert jit._active == {1: None}
        assert not jit._heat
        assert jit.stats.blocks_compiled == 0

    def test_non_fitting_arrival_neither_compiles_nor_heats(self):
        jit = _straight_line_tier(6)
        for _ in range(HOT_ENTRIES + 1):
            assert jit.runner(0, room=5) is None
        assert not jit._active and not jit._heat
        assert jit.stats.blocks_compiled == 0

    def test_block_compiles_on_hot_arrival(self):
        jit = _straight_line_tier(6)
        for _ in range(HOT_ENTRIES - 1):
            assert jit.runner(0, room=6) is None
        assert jit.stats.blocks_compiled == 0
        entry = jit.runner(0, room=6)
        assert entry is not None and entry.length == 6
        assert jit.stats.blocks_compiled == 1
        assert jit.stats.activations == 1
        assert jit.runner(0, room=6) is entry

    def test_runner_without_room_is_eager(self):
        jit = _straight_line_tier(6)
        entry = jit.runner(1)  # not a leader, first request
        assert entry is not None and entry.length == 5
        assert jit.stats.blocks_compiled == 1

    def test_wild_pc_is_not_cached(self):
        jit = _straight_line_tier(6)
        assert jit.runner(1000, room=100) is None
        assert jit.runner(-3, room=100) is None
        assert not jit._active


_GAUGE_SCRIPT = """
import json
from repro.core import ParaDoxSystem
from repro.workloads import build_spec_workload
result = ParaDoxSystem(tracing=True).run(
    build_spec_workload("milc", iterations=400), seed=3
)
print(json.dumps(result.metrics["gauges"]))
"""


def _jit_gauges(gauges):
    return {name: value for name, value in gauges.items() if name.startswith("jit.")}


@pytest.fixture(scope="module")
def fresh_process_milc_gauges():
    """``jit.*`` gauges of a cold milc-400 ParaDox run in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _GAUGE_SCRIPT],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return _jit_gauges(json.loads(completed.stdout.splitlines()[-1]))


class TestRunDeterministicGauges:
    def test_cold_milc_run_dispatches_blocks(self, fresh_process_milc_gauges):
        assert fresh_process_milc_gauges["jit.activations"] > 0
        assert fresh_process_milc_gauges["jit.dispatches"] > 0
        assert fresh_process_milc_gauges["jit.instructions"] > 0

    def test_gauges_ignore_code_cache_warmth(self, fresh_process_milc_gauges):
        workload = build_spec_workload("milc", iterations=400)
        system = ParaDoxSystem(tracing=True)
        cold = system.run(workload, seed=3)
        warm = system.run(workload, seed=3)  # compiled code now shared
        assert _jit_gauges(cold.metrics["gauges"]) == fresh_process_milc_gauges
        assert _jit_gauges(warm.metrics["gauges"]) == fresh_process_milc_gauges


# ---------------------------------------------------------------------------
# fault-injection points are structurally outside the tier


class TestInjectionGating:
    def test_main_core_injector_disables_tier(self, bitcount_small):
        injector = default_injector(1e-4, seed=1, target="main")
        engine = ParaDoxSystem().engine(bitcount_small, injector=injector)
        engine.run(bitcount_small.max_instructions)
        assert engine.jit is None

    def test_checker_injector_keeps_tier(self, bitcount_small):
        injector = default_injector(1e-4, seed=1, target="checker")
        engine = ParaDoxSystem().engine(bitcount_small, injector=injector)
        engine.run(bitcount_small.max_instructions)
        assert engine.jit is not None

    def test_options_flag_disables_tier(self, bitcount_small):
        engine = ParaDoxSystem(jit=False).engine(bitcount_small)
        engine.run(bitcount_small.max_instructions)
        assert engine.jit is None


# ---------------------------------------------------------------------------
# CLI surface


class TestCliFlags:
    def test_jit_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["run", "bitcount"]).jit is True
        assert parser.parse_args(["run", "bitcount", "--no-jit"]).jit is False
        assert parser.parse_args(["suite", "--no-jit"]).jit is False
        assert parser.parse_args(["trace", "bitcount", "--jit"]).jit is True
        assert parser.parse_args(["diffcheck", "crc32", "--no-jit"]).no_jit
        assert parser.parse_args(["fuzz", "--no-jit"]).no_jit

    def test_legacy_timeout_warns_and_routes_through(self):
        from repro.cli import build_parser, resolve_run_timeout

        parser = build_parser()
        args = parser.parse_args(["campaign", "--timeout", "5"])
        with pytest.warns(DeprecationWarning, match="--run-timeout"):
            assert resolve_run_timeout(args) == 5.0

    def test_run_timeout_takes_precedence_silently(self):
        from repro.cli import build_parser, resolve_run_timeout

        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--run-timeout", "7", "--timeout", "5"]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_run_timeout(args) == 7.0
        args = parser.parse_args(["campaign"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_run_timeout(args) == 60.0

    def test_campaign_spec_carries_resolved_timeout(self):
        from repro.cli import build_parser, campaign_spec_from_args

        parser = build_parser()
        args = parser.parse_args(["campaign", "--timeout", "9"])
        with pytest.warns(DeprecationWarning):
            spec = campaign_spec_from_args(args)
        assert spec.timeout_s == 9.0


# ---------------------------------------------------------------------------
# fan-out watchdog escalation


def _ignore_sigterm_and_hang(_payload):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


class TestWatchdogEscalation:
    def test_sigterm_immune_worker_is_killed_and_reaped(self):
        outcomes = run_fanout(
            _ignore_sigterm_and_hang, ["x"], jobs=1, timeout_s=0.5
        )
        assert outcomes[0].status == "timeout"
