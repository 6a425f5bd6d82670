"""The heterogeneous fault-tolerance simulation engine.

Orchestrates one main core plus its pool of checker cores over a single
workload, reproducing the ParaMedic/ParaDox execution model:

1. The main core executes instructions functionally (exact architectural
   semantics) while the out-of-order timing model assigns commit cycles,
   and every load/store is recorded into the currently filling log
   segment.
2. A segment closes when it reaches the AIMD target length, fills its
   log SRAM, hits an unchecked-line eviction conflict, or the program
   ends.  Closing takes a register checkpoint (16 commit-blocked cycles)
   and dispatches the segment to a checker core chosen by the scheduling
   policy — stalling the main core if all checkers are busy.
3. Checker cores re-execute their segment against the log.  The fault
   injector corrupts checker state/log data (or main-core state when so
   targeted).  A divergence surfaces through one of the detection
   channels at a known point of checker execution.
4. On detection the main core stops, every store back to the faulty
   segment's start is reverted from the log (word- or line-granularity),
   architectural state is restored, and execution re-runs.  Checkpoint
   length, and optionally supply voltage and frequency, adapt.

Wall-clock time is continuous nanoseconds.  The main core's cycle count
maps to wall time through the *current* frequency, which the DVFS
controller may change at checkpoint boundaries; checker cores always run
at their own fixed clock.

The engine is deliberately single-main-core, like the paper's evaluation
("we do not test here on multicore workloads"), but models the L1
buffering of unchecked stores that multicore correctness requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

import numpy as np

from ..checkpoint import CheckpointLengthController, LengthEvent
from ..config import SystemConfig
from ..cores.branch_predictor import TournamentPredictor
from ..cores.checker_core import CheckResult, CheckerCore
from ..cores.main_core import MainCoreTiming
from ..dvfs import VoltageController
from ..faults.injector import FaultInjector
from ..faults.voltage_model import VoltageErrorModel
from ..isa import Executor, HaltTrap, MemoryImage, Program, SimTrap
from ..isa.instructions import EXTERNAL_SYSCALLS, Opcode
from ..isa.state import ArchState
from ..jit import SuperblockJit
from ..lslog.detection import DetectionChannel
from ..lslog.ports import MainMemoryPort, UncheckedConflictStall
from ..lslog.rollback import rollback_memory
from ..lslog.segment import (
    LogSegment,
    RollbackGranularity,
    SegmentCloseReason,
    SegmentFull,
)
from ..memory.cache import MemoryHierarchy
from ..memory.unchecked import UncheckedLineTracker
from ..resilience.guard import (
    ForwardProgressFailure,
    ForwardProgressGuard,
    ResilienceConfig,
)
from ..resilience.health import CheckerHealthTracker
from ..scheduling import CheckerPool, DispatchRecord, SchedulingPolicy
from ..stats import RecoveryEvent, RunOutcome, RunResult, StallBreakdown, StallBucket
from ..stats.timeline import EventKind, Timeline
from ..telemetry import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..oracle.invariants import ParanoidChecker


#: Protected execution between shared-pool calls: yields the main core's
#: wall time (ns) before each one (see :meth:`SimulationEngine.steps`).
Steps = Generator[float, None, None]

#: ``dict.get`` default telling "no tier entry yet" from a cached None.
_MISS = object()


class LivelockError(RuntimeError):
    """The run exceeded its total execution budget (recovery livelock)."""


@dataclass
class PendingCheck:
    """A dispatched segment whose check has not yet committed."""

    segment: LogSegment
    record: DispatchRecord
    result: CheckResult
    #: Wall time the checker finishes (or detects).
    end_ns: float


@dataclass
class EngineOptions:
    """Behavioural switches distinguishing the four systems."""

    granularity: RollbackGranularity = RollbackGranularity.LINE
    scheduling: SchedulingPolicy = SchedulingPolicy.LOWEST_FREE_ID
    adaptive_checkpoints: bool = True
    #: Enable checker cores at all (False = unprotected baseline).
    checking: bool = True
    #: Enable the dynamic voltage controller (ParaDox DVS mode).
    dvs: bool = False
    #: With dvs, the fault rate follows the voltage through this model.
    voltage_model: Optional[VoltageErrorModel] = None
    #: Skip functional replay of segments in which no fault can fire.
    fastpath: bool = True
    #: Abort with LivelockError when total executed instructions exceed
    #: this multiple of the useful budget.
    livelock_factor: float = 64.0
    #: Use the constant voltage-decrease comparator of figure 11.
    dynamic_voltage_decrease: bool = True
    #: Record a :class:`repro.stats.timeline.Timeline` of segment/checker
    #: lifecycle events (debugging and documentation aid).
    record_timeline: bool = False
    #: Record a structured :class:`repro.telemetry.Tracer` event stream
    #: plus a metrics registry, returned on ``RunResult.trace`` /
    #: ``RunResult.metrics`` and exportable as JSONL or Perfetto JSON.
    #: Disabled (the default) costs nothing: no tracer object exists and
    #: every emission site is one ``is not None`` test at segment
    #: granularity.
    tracing: bool = False
    #: Enable the resilience layer: forward-progress escalation instead
    #: of livelock aborts, plus checker health tracking and quarantine.
    #: None preserves the legacy detect-and-rollback-or-die behaviour.
    resilience: Optional[ResilienceConfig] = None
    #: Re-derive and assert engine bookkeeping invariants (segment seq
    #: monotonicity, tracker/segment agreement, quarantine consistency,
    #: DVFS bounds) at segment granularity, raising
    #: :class:`repro.oracle.invariants.EngineInvariantError` on the
    #: first violation.  Disabled (the default) costs nothing: no
    #: checker object exists and every hook site is one ``is not None``
    #: test at segment granularity, exactly like ``tracing``.
    paranoid: bool = False
    #: Drive main-core execution through the compiled superblock tier
    #: (:mod:`repro.jit`) wherever the fill loop's per-instruction
    #: obligations allow, falling back to the interpreter at block
    #: exits, traps, segment boundaries and external syscalls.  Timing,
    #: stall accounting and telemetry are bit-identical either way (the
    #: differential oracle gates this); disable to force pure
    #: interpretation.  Ignored — the tier is never built — when a
    #: fault injector targets the main core, because injection points
    #: are per-instruction hooks that must see every retired
    #: instruction.  Checker cores never use the tier: their replay is
    #: the independent cross-check.
    jit: bool = True


class SimulationEngine:
    """Run one workload on one configuration of the architecture."""

    def __init__(
        self,
        program: Program,
        config: SystemConfig,
        options: EngineOptions,
        injector: Optional[FaultInjector] = None,
        memory: Optional[MemoryImage] = None,
        system_name: str = "system",
        rng: Optional[np.random.Generator] = None,
        pool: Optional[CheckerPool] = None,
        main_id: int = 0,
    ) -> None:
        self.program = program
        #: Which main core this engine models (0 for a private pool; the
        #: multicore harness numbers the producers of a shared pool).
        self.main_id = main_id
        self.config = config
        self.options = options
        self.injector = injector
        self.system_name = system_name
        self.memory = memory if memory is not None else MemoryImage()
        self.rng = rng if rng is not None else np.random.default_rng(config.fault.seed)

        # Main core.
        self.state = ArchState()
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = TournamentPredictor(config.branch_predictor)
        self.timing = MainCoreTiming(
            config.main_core, self.hierarchy, self.predictor, program=program
        )
        self.tracker = UncheckedLineTracker(config.memory.l1d)
        self.port = MainMemoryPort(self.memory, self.tracker, options.granularity)
        self.executor = Executor(program, self.state, self.port)
        #: Compiled superblock tier for the main core; built at run()
        #: time (the emission mode depends on the execution path taken)
        #: and None when disabled or under main-core fault injection.
        self.jit: Optional[SuperblockJit] = None

        # Checker pool, optionally health-tracked (resilience layer).
        self.health: Optional[CheckerHealthTracker] = None
        if options.checking and pool is not None:
            # Injected (shared) pool: the multicore harness owns core
            # construction and the anti-ageing rotation draw; each
            # engine keeps a private health view of the shared cores.
            if options.resilience is not None and options.resilience.quarantine_enabled:
                self.health = CheckerHealthTracker(
                    len(pool.cores),
                    quarantine_vindications=options.resilience.quarantine_vindications,
                )
            pool.health = self.health
            self.pool: Optional[CheckerPool] = pool
        elif options.checking:
            cores = [
                CheckerCore(i, config.checker, program)
                for i in range(config.checker.count)
            ]
            boot_offset = int(self.rng.integers(config.checker.count))
            if options.resilience is not None and options.resilience.quarantine_enabled:
                self.health = CheckerHealthTracker(
                    config.checker.count,
                    quarantine_vindications=options.resilience.quarantine_vindications,
                )
            self.pool = CheckerPool(
                cores,
                options.scheduling,
                boot_offset=boot_offset,
                health=self.health,
            )
        else:
            self.pool = None

        # Controllers.
        self.length_controller = CheckpointLengthController(
            config.checkpoint, adaptive=options.adaptive_checkpoints
        )
        self.dvfs: Optional[VoltageController] = None
        if options.dvs:
            self.dvfs = VoltageController(
                config.dvfs,
                config.main_core.frequency_hz,
                dynamic_decrease=options.dynamic_voltage_decrease,
            )

        # Forward-progress guard (resilience layer).
        self.guard: Optional[ForwardProgressGuard] = None
        if options.resilience is not None and options.checking:
            self.guard = ForwardProgressGuard(
                options.resilience,
                self.length_controller,
                dvfs=self.dvfs,
                injector=self.injector,
            )
            if self.health is not None:
                health = self.health
                self.guard.quarantined_provider = lambda: health.quarantined

        # Time anchors: wall(cycles) = base_wall + (cycles - base_cycles) * cycle_ns.
        self._frequency_hz = config.main_core.frequency_hz
        self._cycle_ns = 1e9 / self._frequency_hz
        self._base_cycles = 0.0
        self._base_wall_ns = 0.0

        # Segment bookkeeping.
        self._next_seq = 1
        self._segment: Optional[LogSegment] = None
        self._segment_start_wall: Dict[int, float] = {}
        self._pending: List[PendingCheck] = []
        #: How many entries of ``_pending`` carry a detection.  Kept in
        #: sync at dispatch and squash so the per-instruction detection
        #: poll in the fill loop is a counter test, not a list scan.
        self._pending_detected = 0
        self._last_commit_ns = 0.0
        self._checkpoint_lengths: List[int] = []
        #: (checkpoint instret, checker id) of the last detection, pending
        #: attribution: the retry is steered to different hardware and its
        #: result vindicates or absolves the original checker.
        self._retry_suspect: Optional["tuple[int, int]"] = None

        # Statistics.
        self.stalls = StallBreakdown()
        self.recoveries: List[RecoveryEvent] = []
        self.close_reasons: Dict[SegmentCloseReason, int] = {}
        self._executed_total = 0
        self._segments_closed = 0
        self._trap_retries = 0
        #: True while the next (external) instruction has been cleared to
        #: execute: every older check has committed clean.
        self._external_verified = False
        #: (wall_ns, text) for every externally visible write performed.
        self.external_flushes: List["tuple[float, str]"] = []
        #: Executed instructions per unit class, wasted re-runs included.
        self._unit_mix: Dict[str, int] = {}
        #: Optional event log (EngineOptions.record_timeline).
        self.timeline: Optional[Timeline] = (
            Timeline() if options.record_timeline else None
        )
        #: Optional structured telemetry (EngineOptions.tracing): one
        #: tracer per engine, shared by every instrumented subcomponent.
        self.tracer: Optional[Tracer] = None
        if options.tracing:
            self.tracer = Tracer(
                system=system_name,
                workload=program.name,
                seed=config.fault.seed,
            )
            self.length_controller.tracer = self.tracer
            if self.pool is not None:
                self.pool.tracer = self.tracer
            if self.dvfs is not None:
                self.dvfs.tracer = self.tracer
            if self.injector is not None:
                self.injector.tracer = self.tracer
            if self.guard is not None:
                self.guard.tracer = self.tracer
            if self.health is not None:
                self.health.tracer = self.tracer
        #: Optional invariant checker (EngineOptions.paranoid): absent
        #: by default, so every hook site is one ``is not None`` test at
        #: segment granularity — the tracing discipline.  Imported
        #: lazily to keep the oracle package out of production imports.
        self.paranoid: Optional["ParanoidChecker"] = None
        if options.paranoid:
            from ..oracle.invariants import ParanoidChecker

            self.paranoid = ParanoidChecker()
        #: PCs of externally visible syscalls, precomputed so the fill
        #: loop's per-instruction "is the next instruction external?"
        #: test is one set-membership probe.
        self._external_pcs = frozenset(
            pc
            for pc, instruction in enumerate(program.instructions)
            if instruction.opcode is Opcode.SYSCALL
            and instruction.imm in EXTERNAL_SYSCALLS
        )

    # ------------------------------------------------------------------ time --
    @property
    def wall_ns(self) -> float:
        return self._base_wall_ns + (self.timing.now - self._base_cycles) * self._cycle_ns

    def _ns_to_cycles(self, ns: float) -> float:
        return ns / self._cycle_ns

    def _set_frequency(self, frequency_hz: float) -> None:
        if frequency_hz == self._frequency_hz:
            return
        # Re-anchor so past time is preserved, future cycles use new period.
        self._base_wall_ns = self.wall_ns
        self._base_cycles = self.timing.now
        self._frequency_hz = frequency_hz
        self._cycle_ns = 1e9 / frequency_hz

    def _stall_to_wall(self, target_ns: float, bucket: StallBucket) -> None:
        """Stall the main core until wall time ``target_ns``.

        ``bucket`` is a :class:`StallBucket`, not a string: every stall
        lands in a named field of :attr:`stalls` (so ``total_ns`` is
        total by construction), and an unknown bucket raises instead of
        silently dropping time.
        """
        now = self.wall_ns
        if target_ns <= now:
            return
        cycles = self._ns_to_cycles(target_ns - now)
        self.timing.stall_until(self.timing.now + cycles)
        self.stalls.add(bucket, target_ns - now)

    # ------------------------------------------------------------- segments --
    def _open_segment(self, start_state: ArchState) -> None:
        granularity = self.options.granularity
        seq = self._next_seq
        self._next_seq += 1
        prev_id = self.pool.last_core_id if self.pool is not None else None
        self._segment = LogSegment(
            seq=seq,
            granularity=granularity,
            capacity_bytes=self.config.checker.log_bytes_per_core,
            start_state=start_state,
            prev_checker_id=prev_id,
            main_id=self.main_id,
        )
        self._segment.text_footprint_bytes = self.program.text_bytes
        self.port.segment = self._segment
        if self.jit is not None:
            # Segment-boundary invalidation: compiled blocks record into
            # the segment the tier knows about; a stale recorder would
            # account instructions to a closed checkpoint.
            self.jit.note_segment(self._segment)
        self._segment_start_wall[seq] = self.wall_ns
        if self.timeline is not None:
            self.timeline.record(self.wall_ns, EventKind.SEGMENT_OPEN, seq)
        if self.tracer is not None:
            self.tracer.now_ns = self.wall_ns
            self.tracer.emit("engine", "segment_open", segment=seq)

    def _close_segment(self, reason: SegmentCloseReason) -> Steps:
        segment = self._segment
        assert segment is not None
        segment.close(self.state.snapshot(), reason)
        if self.timeline is not None:
            self.timeline.record(
                self.wall_ns, EventKind.SEGMENT_CLOSE, segment.seq, detail=reason.value
            )
        if self.tracer is not None:
            self.tracer.now_ns = self.wall_ns
            self.tracer.emit(
                "engine",
                "segment_close",
                segment=segment.seq,
                value=float(segment.instruction_count),
                detail=reason.value,
            )
        self.close_reasons[reason] = self.close_reasons.get(reason, 0) + 1
        self._segments_closed += 1
        self._trap_retries = 0  # a closed segment is forward progress
        self._checkpoint_lengths.append(segment.instruction_count)

        # Register checkpoint: commit blocked for 16 cycles.
        block = self.config.main_core.register_checkpoint_cycles
        self.timing.block_commit(block)
        self.stalls.checkpoint_ns += block * self._cycle_ns

        # DVFS advances at every checkpoint boundary (error case is
        # handled inside _recover).
        self._dvfs_checkpoint(error=False)

        if self.pool is not None:
            yield from self._dispatch(segment)

        event = (
            LengthEvent.EVICTION
            if reason is SegmentCloseReason.EVICTION_CONFLICT
            else LengthEvent.CLEAN
        )
        self.length_controller.observe(segment.instruction_count, event)

        if self.paranoid is not None:
            self.paranoid.on_close(self, segment)

        # Next segment continues from this checkpoint.
        self._open_segment(segment.end_state)

    def _dvfs_checkpoint(self, error: bool) -> None:
        if self.dvfs is None:
            return
        self.dvfs.on_checkpoint(error, self.wall_ns)
        self._sync_dvfs_outputs()

    def _sync_dvfs_outputs(self) -> None:
        """Propagate the controller's voltage to frequency and fault rate."""
        if self.dvfs is None:
            return
        self._set_frequency(self.dvfs.frequency_hz)
        if self.injector is not None:
            if self.options.voltage_model is not None:
                rate = self.options.voltage_model.rate(self.dvfs.voltage)
                self.injector.set_rate(rate)
            # Map-based SRAM models follow the voltage directly: a
            # supply change re-thresholds their bit-cell maps.
            self.injector.set_voltage(self.dvfs.voltage)
        if self.jit is not None:
            # Voltage-event invalidation: bound superblocks are dropped
            # on an actual supply move and lazily re-bound.
            self.jit.note_voltage(self.dvfs.voltage)

    # -------------------------------------------------------------- checking --
    def _dispatch(self, segment: LogSegment) -> Steps:
        pool = self.pool
        assert pool is not None
        # A retry of a rolled-back checkpoint is steered away from the
        # checker that reported the detection: its verdict on different
        # hardware attributes the fault (checker-local vs followed-the-work).
        suspect = self._retry_suspect
        retrying = (
            suspect is not None
            and self.health is not None
            and segment.start_state.instret == suspect[0]
        )
        avoid = {suspect[1]} if retrying else None
        # No yield between select and dispatch: the pair is one atomic
        # reservation, so two mains never claim one free checker.
        yield self.wall_ns
        core, start_ns = pool.select(self.wall_ns, avoid=avoid)
        if start_ns > self.wall_ns:
            self._stall_to_wall(start_ns, StallBucket.CHECKER_WAIT)
        start_ns = max(start_ns, self.wall_ns)
        segment.checker_id = core.core_id

        result = self._check(core, segment)
        if self.health is not None:
            if result.detected:
                self.health.record_detection(core.core_id)
            else:
                self.health.record_clean(core.core_id)
            if retrying:
                self._retry_suspect = None
                suspect_core = suspect[1]
                if core.core_id != suspect_core:
                    if result.detected:
                        # The retry failed on different hardware too: the
                        # fault followed the work, not the checker.
                        self.health.record_absolution(suspect_core)
                    else:
                        self.health.record_vindication(suspect_core, start_ns)
        duration_ns = core.cycles_to_ns(result.checker_cycles)
        record = pool.dispatch(core, segment.seq, start_ns, duration_ns)
        self._pending.append(
            PendingCheck(segment, record, result, start_ns + duration_ns)
        )
        if result.detected:
            self._pending_detected += 1
        if self.timeline is not None:
            self.timeline.record(
                start_ns,
                EventKind.DISPATCH,
                segment.seq,
                core=core.core_id,
                detail=f"{start_ns:.1f}..{start_ns + duration_ns:.1f}",
            )
        if self.tracer is not None:
            self.tracer.emit(
                "engine",
                "dispatch",
                time_ns=start_ns,
                segment=segment.seq,
                core=core.core_id,
                value=duration_ns,
            )

    def _check(self, core: CheckerCore, segment: LogSegment) -> CheckResult:
        injector = self.injector
        checker_targeted = injector is not None and injector.target == "checker"
        main_targeted = injector is not None and injector.target == "main"
        if injector is not None:
            injector.begin_check(core.core_id, segment)
        try:
            if not main_targeted and self.options.fastpath:
                if injector is None or not injector.fires_within_segment(segment):
                    if injector is not None:
                        injector.skip_segment(segment)
                    return CheckResult(
                        None, segment.instruction_count, core.analytic_cycles(segment)
                    )
            if injector is not None:
                injector.note_replay()
            hook = injector if checker_targeted else None
            return core.check_segment(segment, hook=hook)
        finally:
            if injector is not None:
                injector.begin_check(None)

    # -------------------------------------------------- commits & detections --
    def _next_detection(self) -> Optional[PendingCheck]:
        if not self._pending_detected:
            return None
        candidates = [p for p in self._pending if p.result.detected]
        if not candidates:
            return None
        return min(candidates, key=lambda p: p.end_ns)

    def _process_commits(self, up_to_ns: float) -> None:
        """Commit clean checks, oldest first, whose results land by ``up_to_ns``.

        A check commits only once all older checks have committed (the
        waiting state of figure 2); commit releases its unchecked lines.
        A pending *detection* blocks commits of everything younger.
        """
        committed = False
        while self._pending:
            head = self._pending[0]
            if head.result.detected:
                break
            effective = max(head.end_ns, self._last_commit_ns)
            if effective > up_to_ns:
                break
            self._last_commit_ns = effective
            self.tracker.release_through(head.segment.seq)
            self._pending.pop(0)
            self._segment_start_wall.pop(head.segment.seq, None)
            committed = True
            if self.guard is not None:
                self.guard.on_commit(head.segment.end_state.instret)
            if self.timeline is not None:
                self.timeline.record(effective, EventKind.COMMIT, head.segment.seq)
            if self.tracer is not None:
                self.tracer.emit(
                    "engine", "commit", time_ns=effective, segment=head.segment.seq
                )
        if committed and self.paranoid is not None:
            self.paranoid.on_commit(self)

    def _handle_detection(self, pending: PendingCheck) -> Steps:
        """Roll back to the start of the faulty segment and resume."""
        faulty = pending.segment
        now = max(self.wall_ns, pending.end_ns)
        # Commit any older clean checks that finished before detection.
        self._process_commits(now)

        # The faulty segment may no longer be the oldest pending; roll back
        # everything from it (inclusive) to the newest, plus the filler.
        to_squash = [p for p in self._pending if p.segment.seq >= faulty.seq]
        keep = [p for p in self._pending if p.segment.seq < faulty.seq]
        segments_newest_first: List[LogSegment] = []
        filler = self._segment
        if filler is not None and (filler.instruction_count or filler.store_count):
            segments_newest_first.append(filler)
        segments_newest_first.extend(
            sorted((p.segment for p in to_squash), key=lambda s: s.seq, reverse=True)
        )

        rollback = rollback_memory(self.memory, segments_newest_first)
        rollback_ns = rollback.cycles * self._cycle_ns

        # Abort in-flight checks of squashed segments.
        for squashed in to_squash:
            if self.pool is not None:
                yield now
                self.pool.abort(squashed.record, now)
        self._pending = keep
        self._pending_detected = sum(1 for p in keep if p.result.detected)

        # Restore architectural and tracker state.
        useful_before = self.state.instret
        self.state.restore(faulty.start_state)
        self.tracker.drop_after(faulty.seq - 1)
        self.timing.discard_inflight()

        # Account time: detection point, then the rollback walk.
        wasted_ns = now - self._segment_start_wall.get(faulty.seq, now)
        self._stall_to_wall(now + rollback_ns, StallBucket.ROLLBACK)

        self.recoveries.append(
            RecoveryEvent(
                segment_seq=faulty.seq,
                channel=pending.result.detection.channel,
                detect_ns=now,
                wasted_execution_ns=max(wasted_ns, 0.0),
                rollback_ns=rollback_ns,
                rollback_entries=rollback.entries_restored,
                segments_rolled_back=rollback.segments_walked,
            )
        )
        if self.timeline is not None:
            self.timeline.record(
                now,
                EventKind.DETECTION,
                faulty.seq,
                core=pending.record.core_id,
                detail=pending.result.detection.channel.value,
            )
            self.timeline.record(
                now + rollback_ns,
                EventKind.ROLLBACK,
                faulty.seq,
                detail=f"{rollback.entries_restored} entries, "
                f"{rollback.segments_walked} segments",
            )
        if self.tracer is not None:
            self.tracer.now_ns = now
            self.tracer.emit(
                "engine",
                "detect",
                time_ns=now,
                segment=faulty.seq,
                core=pending.record.core_id,
                detail=pending.result.detection.channel.value,
            )
            self.tracer.emit(
                "engine",
                "rollback",
                time_ns=now + rollback_ns,
                segment=faulty.seq,
                value=rollback_ns,
                detail=f"{rollback.entries_restored} entries, "
                f"{rollback.segments_walked} segments",
            )
            self.tracer.metrics.observe("engine.rollback_ns", rollback_ns)
            self.tracer.metrics.observe(
                "engine.wasted_ns", max(wasted_ns, 0.0)
            )
        for seq in list(self._segment_start_wall):
            if seq >= faulty.seq:
                del self._segment_start_wall[seq]

        # Adapt: checkpoint length shrinks, voltage rises.
        self.length_controller.observe(faulty.instruction_count, LengthEvent.ERROR)
        self._dvfs_checkpoint(error=True)

        # Resilience: steer the retry to different hardware, and let the
        # forward-progress guard escalate if this checkpoint keeps
        # rolling back (it raises ForwardProgressFailure when the storm
        # survives the safe voltage).
        if self.health is not None:
            self._retry_suspect = (
                faulty.start_state.instret,
                pending.record.core_id,
            )
        if self.guard is not None:
            try:
                self.guard.on_rollback(
                    faulty.start_state.instret,
                    self.wall_ns,
                    checker_id=pending.record.core_id,
                    channel=pending.result.detection.channel.value,
                )
            finally:
                # Escalation may have moved the voltage target; keep the
                # clock and the fault rate coupled to it either way.
                self._sync_dvfs_outputs()

        # Resume filling from the restored state.
        self._external_verified = False
        self._open_segment(faulty.start_state.snapshot())
        if self.paranoid is not None:
            self.paranoid.on_rollback(self, faulty.seq - 1)
        del useful_before

    def _handle_main_trap(self, trap: SimTrap) -> Steps:
        """The main core itself trapped — suspect a transient fault.

        With main-core injection enabled a bit flip can send the main core
        to a wild address or PC.  Hardware running ParaDox treats this
        like any other error: drain outstanding checks (an older segment's
        checker may pinpoint the corruption and trigger a full rollback),
        and otherwise revert the current segment locally and re-run it.
        A trap that recurs without any possible fault is a genuine program
        bug and is re-raised.
        """
        if not self.options.checking:
            raise RuntimeError(
                f"unprotected main core trapped at pc {self.state.pc}: {trap!r}"
            ) from trap
        # Prefer a pending detection: it rolls back further and clears more.
        while self._pending:
            detection = self._next_detection()
            head = self._pending[0]
            head_effective = max(head.end_ns, self._last_commit_ns)
            if detection is not None and detection.end_ns <= head_effective:
                self._stall_to_wall(detection.end_ns, StallBucket.CHECKER_WAIT)
                yield from self._handle_detection(detection)
                self._trap_retries = 0
                return
            self._stall_to_wall(head_effective, StallBucket.CHECKER_WAIT)
            self._process_commits(head_effective)
        # No outstanding checks: the corruption is local to this segment.
        self._trap_retries += 1
        if self.guard is None and self._trap_retries > 8:
            # Legacy behaviour: without the resilience layer a recurring
            # trap is assumed to be a deterministic program bug.  The
            # forward-progress guard instead escalates (shrink, voltage)
            # and surfaces a typed ForwardProgressFailure if it persists.
            raise RuntimeError(
                f"main core trapped repeatedly at pc {self.state.pc} with no "
                f"recovery possible (deterministic bug?): {trap!r}"
            ) from trap
        filler = self._segment
        if filler is None:
            # The trap landed between a segment close and the next open
            # (no filling segment): nothing was logged, so there is
            # nothing to roll back.  Record a zero-cost recovery and
            # restart filling from the current architectural state.
            now = self.wall_ns
            self.recoveries.append(
                RecoveryEvent(
                    segment_seq=self._next_seq,
                    channel=DetectionChannel.MAIN_TRAP,
                    detect_ns=now,
                    wasted_execution_ns=0.0,
                    rollback_ns=0.0,
                    rollback_entries=0,
                    segments_rolled_back=0,
                )
            )
            self._dvfs_checkpoint(error=True)
            if self.guard is not None:
                try:
                    self.guard.on_rollback(
                        self.state.instret,
                        self.wall_ns,
                        channel=DetectionChannel.MAIN_TRAP.value,
                    )
                finally:
                    self._sync_dvfs_outputs()
            self._external_verified = False
            self._open_segment(self.state.snapshot())
            return
        rollback = rollback_memory(self.memory, [filler] if filler.store_count else [])
        rollback_ns = rollback.cycles * self._cycle_ns
        now = self.wall_ns
        wasted_ns = now - self._segment_start_wall.get(filler.seq, now)
        self.state.restore(filler.start_state)
        self.tracker.drop_after(filler.seq - 1)
        self.timing.discard_inflight()
        self._stall_to_wall(now + rollback_ns, StallBucket.ROLLBACK)
        self.recoveries.append(
            RecoveryEvent(
                segment_seq=filler.seq,
                channel=DetectionChannel.MAIN_TRAP,
                detect_ns=now,
                wasted_execution_ns=max(wasted_ns, 0.0),
                rollback_ns=rollback_ns,
                rollback_entries=rollback.entries_restored,
                segments_rolled_back=rollback.segments_walked,
            )
        )
        self.length_controller.observe(filler.instruction_count, LengthEvent.ERROR)
        self._dvfs_checkpoint(error=True)
        if self.guard is not None:
            try:
                self.guard.on_rollback(
                    filler.start_state.instret,
                    self.wall_ns,
                    channel=DetectionChannel.MAIN_TRAP.value,
                )
            finally:
                self._sync_dvfs_outputs()
        self._external_verified = False
        self._open_segment(filler.start_state.snapshot())
        if self.paranoid is not None:
            self.paranoid.on_rollback(self, filler.seq - 1)

    # ------------------------------------------------------------------- run --
    def run(self, max_instructions: int = 1_000_000) -> RunResult:
        """Simulate until the program halts or the useful budget is reached."""
        steps = self.steps(max_instructions)
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value

    def steps(
        self, max_instructions: int = 1_000_000
    ) -> Generator[float, None, RunResult]:
        """:meth:`run` as a resumable generator.

        Yields the main core's wall time (ns) just before every
        shared-state checker-pool call — each ``select`` and each
        ``abort`` — and returns the :class:`RunResult`.  Between two
        yields the engine touches no pool state, and a ``select`` and
        its ``dispatch`` never straddle a yield, so a driver that always
        resumes the engine with the smallest ``(time_ns, main_id)``
        co-simulates several engines on one pool deterministically (see
        :func:`repro.core.multicore.run_shared_engines`).
        """
        options = self.options
        if not options.checking:
            return self._run_unprotected(max_instructions)
        livelock_budget = int(max_instructions * options.livelock_factor)
        # Protected path: blocks record into the live segment and commit
        # to the timing model, exactly like the fill loop.
        self._build_jit(self.port, record=True)
        self._open_segment(self.state.snapshot())

        outcome = RunOutcome.COMPLETED
        failure = None
        main_done_ns = 0.0
        try:
            while True:
                yield from self._fill_loop(max_instructions, livelock_budget)
                # Program finished (or budget reached): close the last segment.
                segment = self._segment
                if segment is not None and segment.instruction_count > 0:
                    yield from self._close_segment(SegmentCloseReason.PROGRAM_END)
                # The application is complete here; outstanding checks
                # drain in the background and only extend the run if one
                # of them detects an error.
                main_done_ns = self.wall_ns
                if not (yield from self._drain()):
                    break
                # A detection during drain un-halted the state; keep running.
        except LivelockError:
            outcome = RunOutcome.LIVELOCK
            main_done_ns = self.wall_ns
        except ForwardProgressFailure as fpf:
            outcome = RunOutcome.FORWARD_PROGRESS_FAILURE
            failure = fpf.diagnostics
            main_done_ns = self.wall_ns

        wall = main_done_ns or self.wall_ns
        pool = self.pool
        result = RunResult(
            system=self.system_name,
            workload=self.program.name,
            wall_ns=wall,
            instructions=self.state.instret,
            instructions_executed=self._executed_total,
            segments=self._segments_closed,
            recoveries=self.recoveries,
            stalls=self.stalls,
            close_reasons=dict(self.close_reasons),
            checker_wake_rates=pool.wake_rates(wall) if pool else [],
            checker_peak_concurrency=pool.peak_concurrency() if pool else 0,
            voltage_trace=list(self.dvfs.stats.trace) if self.dvfs else [],
            mean_voltage=(
                self.dvfs.stats.mean_voltage()
                if self.dvfs
                else self.config.dvfs.nominal_voltage
            ),
            highest_error_voltage=(
                self.dvfs.stats.highest_error_voltage if self.dvfs else 0.0
            ),
            faults_injected=self.injector.stats.total if self.injector else 0,
            program_output=list(self.state.output),
            mean_checkpoint_length=(
                sum(self._checkpoint_lengths) / len(self._checkpoint_lengths)
                if self._checkpoint_lengths
                else 0.0
            ),
            final_checkpoint_target=self.length_controller.target,
            outcome=outcome,
            failure=failure,
            quarantine_events=list(self.health.events) if self.health else [],
            escalations=list(self.guard.events) if self.guard else [],
            livelocked=outcome is RunOutcome.LIVELOCK,
            external_flushes=list(self.external_flushes),
            unit_mix=dict(self._unit_mix),
            dispatch_trace=(
                [
                    (record.start_ns, record.end_ns - record.start_ns)
                    for record in pool.dispatches
                    if record.end_ns > record.start_ns
                ]
                if pool
                else []
            ),
        )
        self._finalize_telemetry(result)
        return result

    def _build_jit(self, port, record: bool) -> None:
        """Build the superblock tier over ``port`` unless disabled.

        Never built under main-core fault injection: injection points
        are per-instruction hooks that must see every retired
        instruction.
        """
        if self.options.jit and (
            self.injector is None or self.injector.target != "main"
        ):
            self.jit = SuperblockJit(
                self.program,
                self.state,
                port,
                commit=self.timing.commit,
                unit_mix=self._unit_mix,
                record=record,
            )

    def _finalize_telemetry(self, result: RunResult) -> None:
        """Fold run-level statistics into the metrics registry and attach
        the serialized trace + metrics to the result.

        Serialization happens here (not at export time) so the artifacts
        survive pickling through the parallel fan-out's result pipe.
        """
        tracer = self.tracer
        if tracer is None:
            return
        metrics = tracer.metrics
        metrics.inc("engine.instructions", float(result.instructions))
        metrics.inc(
            "engine.instructions_executed", float(result.instructions_executed)
        )
        metrics.inc("engine.segments", float(result.segments))
        metrics.inc("engine.detections", float(len(result.recoveries)))
        metrics.inc("engine.faults_injected", float(result.faults_injected))
        metrics.gauge("engine.wall_ns", result.wall_ns)
        metrics.gauge("engine.ipc_aggregate", result.ipc_aggregate)
        metrics.gauge(
            "engine.mean_checkpoint_length", result.mean_checkpoint_length
        )
        metrics.gauge(
            "checkpoint.final_target", float(result.final_checkpoint_target)
        )
        metrics.gauge("dvfs.mean_voltage", result.mean_voltage)
        stalls = result.stalls
        metrics.gauge("stalls.checker_wait_ns", stalls.checker_wait_ns)
        metrics.gauge("stalls.conflict_ns", stalls.conflict_ns)
        metrics.gauge("stalls.checkpoint_ns", stalls.checkpoint_ns)
        metrics.gauge("stalls.rollback_ns", stalls.rollback_ns)
        metrics.gauge("stalls.drain_ns", stalls.drain_ns)
        metrics.gauge("stalls.total_ns", stalls.total_ns)
        if result.checker_wake_rates:
            metrics.set_per_checker(
                "scheduling.wake_rates", result.checker_wake_rates
            )
        if self.jit is not None:
            for name, value in self.jit.stats.to_dict().items():
                # blocks_compiled reflects the warmth of the process-wide
                # shared code cache (a worker that already golden-ran the
                # same program compiles nothing), so it cannot be part of
                # the run's deterministic telemetry contract.  The other
                # counters are functions of the run alone and must stay
                # bit-identical across execution widths.
                if name == "blocks_compiled":
                    continue
                metrics.gauge(f"jit.{name}", float(value))
        metrics.inc(f"engine.outcome.{result.outcome.value}")
        result.metrics = metrics.to_dict()
        result.trace = tracer.to_dicts()

    def _run_unprotected(self, max_instructions: int) -> RunResult:
        """Baseline: the main core alone, no checkers, no checkpoints."""
        state = self.state
        # Bypass the logging port entirely.
        self.executor.port = self.memory
        # Built after the port rebind above so blocks bind the raw
        # memory image, like the interpreted steps they replace.  No
        # segments here, so commit-only emission (no recorder).
        self._build_jit(self.memory, record=False)
        jit = self.jit
        # Hot loop: bind the per-instruction callees once.
        step = self.executor.step
        commit = self.timing.commit
        unit_mix = self._unit_mix
        jit_active_get = jit._active.get if jit is not None else None
        executed = 0
        while not state.halted and state.instret < max_instructions:
            if jit_active_get is not None:
                entry = jit_active_get(state.pc, _MISS)
                if entry is _MISS:
                    entry = jit.runner(state.pc, max_instructions - state.instret)
                if (
                    entry is not None
                    and state.instret + entry.length <= max_instructions
                ):
                    entry.run()
                    executed += entry.length
                    stats = jit.stats
                    stats.dispatches += 1
                    stats.instructions += entry.length
                    continue
            info = step()
            executed += 1
            commit(info)
            unit_name = info.instruction.unit.value
            unit_mix[unit_name] = unit_mix.get(unit_name, 0) + 1
        self._executed_total += executed
        result = RunResult(
            system=self.system_name,
            workload=self.program.name,
            wall_ns=self.wall_ns,
            instructions=state.instret,
            instructions_executed=self._executed_total,
            segments=0,
            program_output=list(state.output),
            mean_voltage=self.config.dvfs.nominal_voltage,
            unit_mix=dict(self._unit_mix),
        )
        self._finalize_telemetry(result)
        return result

    def _fill_loop(self, max_instructions: int, livelock_budget: int) -> Steps:
        """Execute main-core instructions until halt or budget."""
        state = self.state
        segment_target = self.length_controller.target
        # Hot loop: bind per-instruction callees and constants once.
        # (self.executor and self.timing are never rebound while the
        # protected path runs; self._unit_mix is mutated, not replaced.)
        step = self.executor.step
        commit = self.timing.commit
        unit_mix = self._unit_mix
        external_pcs = self._external_pcs
        injector = self.injector
        main_injection = injector is not None and injector.target == "main"
        jit = self.jit
        jit_active_get = jit._active.get if jit is not None else None
        while not state.halted and state.instret < max_instructions:
            if self._executed_total >= livelock_budget:
                if self.guard is not None:
                    # Resilient mode: a persistent defect at the safe
                    # voltage is a typed forward-progress failure even
                    # when the storm crawled past fail_after's streak.
                    self.guard.on_budget_exhausted(state.instret, self.wall_ns)
                raise LivelockError(
                    f"{self._executed_total} instructions executed for only "
                    f"{state.instret} useful — recovery livelock"
                )
            if not self._external_verified and state.pc in external_pcs:
                # External state escapes the rollback domain: close the
                # current segment and block until every outstanding check
                # has committed clean before letting the write proceed.
                if self._segment.instruction_count > 0:
                    yield from self._close_segment(SegmentCloseReason.EXTERNAL)
                if (yield from self._drain_blocking()):
                    segment_target = self.length_controller.target
                    continue  # a detection rolled us back; retry
                self._external_verified = True
            if (
                jit_active_get is not None
                and not self._external_verified
                and not self._pending_detected
            ):
                # Compiled dispatch.  A block runs only when every
                # per-instruction obligation of the interpreted path is
                # provably a no-op across its whole span: no pending
                # detection can mature (_pending_detected only changes
                # inside _dispatch/_squash, never mid-block), no
                # external syscall sits inside a block (SYSCALL is not
                # compilable), no main-core injector exists (tier is
                # not built then), and the segment target, instruction
                # budget and livelock budget all have room for the full
                # block.  Anything short of that falls through to the
                # interpreter below.  The tier sees the same room on a
                # miss, so it never compiles a block that cannot run.
                entry = jit_active_get(state.pc, _MISS)
                if entry is _MISS:
                    entry = jit.runner(
                        state.pc,
                        min(
                            segment_target - self._segment.instruction_count,
                            max_instructions - state.instret,
                            livelock_budget - self._executed_total,
                        ),
                    )
                if (
                    entry is not None
                    and self._segment.instruction_count + entry.length
                    <= segment_target
                    and state.instret + entry.length <= max_instructions
                    and self._executed_total + entry.length <= livelock_budget
                ):
                    before = state.instret
                    try:
                        entry.run(jit._rec)
                    except SegmentFull:
                        self._executed_total += state.instret - before
                        yield from self._close_segment(
                            SegmentCloseReason.LOG_CAPACITY
                        )
                        segment_target = self.length_controller.target
                        continue
                    except UncheckedConflictStall as stall:
                        self._executed_total += state.instret - before
                        yield from self._handle_conflict(stall.address)
                        segment_target = self.length_controller.target
                        continue
                    except SimTrap as trap:
                        self._executed_total += state.instret - before
                        yield from self._handle_main_trap(trap)
                        segment_target = self.length_controller.target
                        continue
                    self._executed_total += entry.length
                    stats = jit.stats
                    stats.dispatches += 1
                    stats.instructions += entry.length
                    if self._segment.instruction_count >= segment_target:
                        yield from self._close_segment(
                            SegmentCloseReason.TARGET_LENGTH
                        )
                        segment_target = self.length_controller.target
                    continue
            try:
                info = step()
            except SegmentFull:
                yield from self._close_segment(SegmentCloseReason.LOG_CAPACITY)
                segment_target = self.length_controller.target
                continue
            except UncheckedConflictStall as stall:
                yield from self._handle_conflict(stall.address)
                segment_target = self.length_controller.target
                continue
            except HaltTrap:  # pragma: no cover - defensive
                break
            except SimTrap as trap:
                yield from self._handle_main_trap(trap)
                segment_target = self.length_controller.target
                continue

            self._executed_total += 1
            commit(info)
            unit = info.instruction.unit
            unit_name = unit.value
            unit_mix[unit_name] = unit_mix.get(unit_name, 0) + 1
            segment = self._segment
            segment.record_instruction(unit, writes_register=info.dest is not None)
            if self._external_verified:
                # The external write just executed, *buffered*.  It is
                # released to the outside world only once its own segment
                # checks clean; a detection instead rolls back to before
                # the write, which was never released — no duplication.
                self._external_verified = False
                pending_text = state.output[-1][1] if state.output else ""
                yield from self._close_segment(SegmentCloseReason.EXTERNAL)
                if (yield from self._drain_blocking()):
                    segment_target = self.length_controller.target
                    continue
                self.external_flushes.append((self.wall_ns, pending_text))
                if self.timeline is not None:
                    self.timeline.record(
                        self.wall_ns, EventKind.EXTERNAL_FLUSH, detail=pending_text
                    )
                if self.tracer is not None:
                    self.tracer.emit(
                        "engine",
                        "external_flush",
                        time_ns=self.wall_ns,
                        detail=pending_text,
                    )
                segment_target = self.length_controller.target
                continue
            if main_injection:
                injector.after_instruction(state, info, segment.instruction_count)

            # Detections interrupt execution as soon as the main core's
            # wall clock passes the detection point.
            if self._pending_detected:
                detection = self._next_detection()
                if detection is not None and detection.end_ns <= self.wall_ns:
                    yield from self._handle_detection(detection)
                    segment_target = self.length_controller.target
                    continue

            if state.halted:
                break
            if segment.instruction_count >= segment_target:
                yield from self._close_segment(SegmentCloseReason.TARGET_LENGTH)
                segment_target = self.length_controller.target

    def _handle_conflict(self, address: int) -> Steps:
        """An unchecked-line conflict: drain checkers until the write fits."""
        segment = self._segment
        if segment.instruction_count > 0:
            yield from self._close_segment(SegmentCloseReason.EVICTION_CONFLICT)
        # Wait for commits (in order) until the set has a free way.
        while self.tracker.would_conflict(address):
            detection = self._next_detection()
            if self._pending:
                head = self._pending[0]
                head_effective = max(head.end_ns, self._last_commit_ns)
            else:
                head_effective = None
            if detection is not None and (
                head_effective is None or detection.end_ns <= head_effective
            ):
                self._stall_to_wall(detection.end_ns, StallBucket.CONFLICT)
                yield from self._handle_detection(detection)
                return  # state rolled back; the conflicting store may not recur
            if head_effective is None:
                raise RuntimeError(
                    f"unresolvable unchecked-line conflict at {address:#x}"
                )
            self._stall_to_wall(head_effective, StallBucket.CONFLICT)
            self._process_commits(head_effective)

    def _next_is_external(self) -> bool:
        """Is the next instruction a syscall that updates external state?"""
        return self.state.pc in self._external_pcs

    def _drain_blocking(self) -> Generator[float, None, bool]:
        """Stall the main core until all checks commit; True on rollback.

        Unlike the end-of-run :meth:`_drain`, the main core here is *not*
        finished — it is blocked on an external operation — so waiting
        for clean commits costs real wall time (checker-wait stalls).
        """
        while self._pending:
            detection = self._next_detection()
            head = self._pending[0]
            head_effective = max(head.end_ns, self._last_commit_ns)
            if detection is not None and detection.end_ns <= head_effective:
                self._stall_to_wall(detection.end_ns, StallBucket.CHECKER_WAIT)
                yield from self._handle_detection(detection)
                return True
            self._stall_to_wall(head_effective, StallBucket.CHECKER_WAIT)
            self._process_commits(head_effective)
        return False

    def _drain(self) -> Generator[float, None, bool]:
        """Resolve all outstanding checks; True if a rollback re-opened work.

        Clean commits do not stall the (already finished) main core: the
        application completed at ``main_done_ns`` and checking merely
        lags.  Only a detection re-engages the main core, extending the
        run with recovery and re-execution.
        """
        while self._pending:
            detection = self._next_detection()
            head = self._pending[0]
            head_effective = max(head.end_ns, self._last_commit_ns)
            if detection is not None and detection.end_ns <= head_effective:
                self._stall_to_wall(detection.end_ns, StallBucket.DRAIN)
                yield from self._handle_detection(detection)
                return True
            self._last_commit_ns = head_effective
            self.tracker.release_through(head.segment.seq)
            self._pending.pop(0)
            self._segment_start_wall.pop(head.segment.seq, None)
            if self.guard is not None:
                self.guard.on_commit(head.segment.end_state.instret)
            if self.timeline is not None:
                self.timeline.record(
                    head_effective, EventKind.COMMIT, head.segment.seq
                )
            if self.tracer is not None:
                self.tracer.emit(
                    "engine",
                    "commit",
                    time_ns=head_effective,
                    segment=head.segment.seq,
                )
        if self.paranoid is not None:
            self.paranoid.on_commit(self)
        return False
