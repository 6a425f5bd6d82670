"""A checker pool shared by several main cores (multi-main ParaDox).

The single-core model gives each main core a private
:class:`~repro.scheduling.pool.CheckerPool`.  Real multiprogrammed parts
share the detection hardware: M hungry producers compete for one set of
checker cores, and how that contention is arbitrated decides both the
fairness story and how much of the pool can stay power gated.

Three allocation policies (beyond the two single-core ones):

* ``static`` — the pool is partitioned into M contiguous slices of the
  boot-rotated ID ring; each main core schedules lowest-free-ID inside
  its own slice and never crosses the fence.  Perfect isolation, worst
  peak throughput.
* ``steal`` — each main core prefers its own slice but steals the
  lowest-free core from the rest of the ring when its slice is fully
  busy, and when everything is busy it waits for the globally earliest
  free core.  Best throughput, weakest isolation.
* ``reserve`` — an EnSuRe/deadline-style reservation: every main core
  owns a small reserved stripe (never lent out, so its wait for a
  checker is bounded by one in-flight check on its own hardware) and
  the remainder of the pool is a first-come-first-served overflow
  region shared by everyone.

Replay is program-bound — each main core re-executes *its own*
instruction stream — while occupancy is physical.
:class:`SharedCheckerCore` splits the two: per-main facades carry the
program, and busy state delegates to one shared slot per physical
checker, so every producer sees a single timeline per core.

Determinism: the pool itself holds no lock and assumes one caller at a
time.  :func:`repro.core.multicore.run_shared_engines` drives every
engine from one heap in one thread, resuming the engine with the
smallest ``(time_ns, main_id)`` stamp at each of its ``select`` and
``abort`` calls.  Because each engine's call times are nondecreasing,
pool calls execute in globally sorted order — a conservative
discrete-event co-simulation, bit-identical on every run.  An engine
never yields between ``select`` and the matching ``dispatch``, so the
pair is one atomic reservation (two mains can never claim the same free
checker for overlapping intervals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..cores.checker_core import CheckerCore
from .pool import DispatchRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import CheckerConfig
    from ..isa import Program
    from ..resilience.health import CheckerHealthTracker
    from ..telemetry import Tracer

import enum


class PoolPolicy(enum.Enum):
    """How a shared pool arbitrates between main cores."""

    STATIC = "static"
    WORK_STEALING = "steal"
    RESERVATION = "reserve"


POOL_POLICIES: Dict[str, PoolPolicy] = {p.value: p for p in PoolPolicy}
DEFAULT_POOL_POLICY = PoolPolicy.WORK_STEALING


@dataclass
class _CheckerSlot:
    """Physical occupancy of one checker core, shared by all facades."""

    core_id: int
    busy_until_ns: float = 0.0
    busy_ns_total: float = 0.0


class SharedCheckerCore(CheckerCore):
    """Per-main facade over one physical checker slot.

    Carries the owning main core's program (replay is program-bound)
    while ``busy_until_ns`` / ``busy_ns_total`` delegate to the shared
    slot (occupancy is physical).
    """

    def __init__(self, slot: _CheckerSlot, config: "CheckerConfig", program) -> None:
        self._slot = slot
        super().__init__(slot.core_id, config, program)

    @property
    def busy_until_ns(self) -> float:  # type: ignore[override]
        return self._slot.busy_until_ns

    @busy_until_ns.setter
    def busy_until_ns(self, value: float) -> None:
        self._slot.busy_until_ns = value

    @property
    def busy_ns_total(self) -> float:  # type: ignore[override]
        return self._slot.busy_ns_total

    @busy_ns_total.setter
    def busy_ns_total(self, value: float) -> None:
        self._slot.busy_ns_total = value


class SharedCheckerPool:
    """One physical pool of checker cores shared by ``main_count`` producers."""

    def __init__(
        self,
        main_count: int,
        size: int,
        policy: PoolPolicy = DEFAULT_POOL_POLICY,
        boot_offset: int = 0,
    ) -> None:
        if main_count < 1:
            raise ValueError("a shared pool needs at least one main core")
        if size < main_count:
            raise ValueError(
                f"pool of {size} checkers cannot serve {main_count} main cores"
            )
        self.main_count = main_count
        self.policy = policy
        self.slots = [_CheckerSlot(i) for i in range(size)]
        self.boot_offset = boot_offset % size
        #: Anti-ageing boot rotation of the physical ID ring; every
        #: policy's candidate order is defined over this ring so which
        #: cores age fastest varies chip to chip.
        self._order = [(self.boot_offset + i) % size for i in range(size)]
        self._candidates = [self._candidate_order(m) for m in range(main_count)]
        self.dispatches: List[DispatchRecord] = []
        #: Per-main cumulative checker-wait, accumulated at select time.
        self.wait_ns = [0.0] * main_count
        self.views: List["SharedPoolView"] = []

    def __len__(self) -> int:
        return len(self.slots)

    # -- policy geometry ---------------------------------------------------------
    def _candidate_order(self, main_id: int) -> List[int]:
        """Physical core IDs ``main_id`` may use, in preference order."""
        order, m, k = self._order, self.main_count, len(self.slots)
        if self.policy is PoolPolicy.STATIC:
            lo, hi = main_id * k // m, (main_id + 1) * k // m
            return order[lo:hi]
        if self.policy is PoolPolicy.WORK_STEALING:
            lo, hi = main_id * k // m, (main_id + 1) * k // m
            return order[lo:hi] + order[hi:] + order[:lo]
        # RESERVATION: a private stripe per main plus a shared overflow.
        reserved = max(1, k // (2 * m))
        return order[main_id * reserved : (main_id + 1) * reserved] + order[m * reserved :]

    def reserved_per_main(self) -> int:
        """Size of each main's private stripe under ``reserve`` (else 0)."""
        if self.policy is not PoolPolicy.RESERVATION:
            return 0
        return max(1, len(self.slots) // (2 * self.main_count))

    # -- views -------------------------------------------------------------------
    def view(
        self,
        main_id: int,
        config: "CheckerConfig",
        program: "Program",
    ) -> "SharedPoolView":
        """Build the per-main facade the engine schedules through."""
        if main_id != len(self.views):
            raise ValueError("views must be created in main_id order")
        view = SharedPoolView(self, main_id, config, program)
        self.views.append(view)
        return view

    # -- shared-state mutators ----------------------------------------------------
    def select_for(
        self,
        view: "SharedPoolView",
        now_ns: float,
        avoid: Optional[Set[int]],
    ) -> Tuple[SharedCheckerCore, float]:
        cores = view._eligible(avoid)
        for core in cores:
            if core.busy_until_ns <= now_ns:
                return core, now_ns
        chosen = min(cores, key=lambda c: c.busy_until_ns)
        return chosen, chosen.busy_until_ns

    def dispatch_for(
        self,
        view: "SharedPoolView",
        core: SharedCheckerCore,
        segment_seq: int,
        start_ns: float,
        duration_ns: float,
    ) -> DispatchRecord:
        end_ns = start_ns + duration_ns
        core.busy_until_ns = end_ns
        core.busy_ns_total += duration_ns
        record = DispatchRecord(
            core.core_id, segment_seq, start_ns, end_ns, main_id=view.main_id
        )
        self.dispatches.append(record)
        return record

    def abort_for(self, record: DispatchRecord, at_ns: float) -> float:
        """Squash an in-flight check; returns the reclaimed busy time."""
        slot = self.slots[record.core_id]
        if record.end_ns <= at_ns:
            return 0.0
        reclaimed = record.end_ns - max(at_ns, record.start_ns)
        # Same float-drift guard as CheckerPool.abort.
        slot.busy_ns_total = max(slot.busy_ns_total - reclaimed, 0.0)
        record.end_ns = max(at_ns, record.start_ns)
        # Same clamp as CheckerPool.abort: never rewind the slot below a
        # remaining (possibly another main's) dispatch end.
        slot.busy_until_ns = max(
            (r.end_ns for r in self.dispatches if r.core_id == record.core_id),
            default=record.end_ns,
        )
        return reclaimed

    # -- pool-wide statistics ----------------------------------------------------
    def wake_rates(self, total_ns: float) -> List[float]:
        """Fraction of wall time each physical core spent awake, all mains."""
        if total_ns <= 0:
            return [0.0] * len(self.slots)
        busy = [0.0] * len(self.slots)
        for record in self.dispatches:
            start = min(max(record.start_ns, 0.0), total_ns)
            end = min(max(record.end_ns, 0.0), total_ns)
            if end > start:
                busy[record.core_id] += end - start
        return [min(b / total_ns, 1.0) for b in busy]

    def per_main_dispatches(self) -> List[int]:
        counts = [0] * self.main_count
        for record in self.dispatches:
            counts[record.main_id] += 1
        return counts

    def per_main_busy_ns(self) -> List[float]:
        busy = [0.0] * self.main_count
        for record in self.dispatches:
            busy[record.main_id] += max(record.end_ns - record.start_ns, 0.0)
        return busy


class SharedPoolView:
    """What one main core's engine sees of the shared pool.

    Duck-types the private :class:`~repro.scheduling.pool.CheckerPool`
    surface the engine uses (``select`` / ``dispatch`` / ``abort``,
    ``cores``, ``dispatches``, ``wake_rates``, ``peak_concurrency``,
    ``last_core_id``, ``tracer``, ``boot_offset``, ``_eligible``) so the
    engine's scheduling path is unchanged.  Per-main statistics filter
    the shared record stream by ``main_id``.
    """

    def __init__(
        self,
        shared: SharedCheckerPool,
        main_id: int,
        config: "CheckerConfig",
        program: "Program",
    ) -> None:
        self.shared = shared
        self.main_id = main_id
        self.cores: List[SharedCheckerCore] = [
            SharedCheckerCore(slot, config, program) for slot in shared.slots
        ]
        self.health: Optional["CheckerHealthTracker"] = None
        self.tracer: Optional["Tracer"] = None
        self.last_core_id: Optional[int] = None

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def boot_offset(self) -> int:
        return self.shared.boot_offset

    @property
    def policy(self) -> PoolPolicy:
        return self.shared.policy

    @property
    def dispatches(self) -> List[DispatchRecord]:
        return [r for r in self.shared.dispatches if r.main_id == self.main_id]

    # -- eligibility -------------------------------------------------------------
    def _eligible(self, avoid: Optional[Set[int]]) -> List[SharedCheckerCore]:
        """This main's candidate cores, in policy preference order.

        Health and ``avoid`` filters relax rather than deadlock, exactly
        like the private pool; the policy fence itself never relaxes (a
        ``static`` main with a fully quarantined slice waits on it).
        """
        cores = [self.cores[i] for i in self.shared._candidates[self.main_id]]
        if self.health is not None:
            healthy = [c for c in cores if not self.health.is_quarantined(c.core_id)]
            if healthy:
                cores = healthy
        if avoid:
            preferred = [c for c in cores if c.core_id not in avoid]
            if preferred:
                cores = preferred
        return cores

    def earliest_free_ns(self, avoid: Optional[Set[int]] = None) -> float:
        return min(core.busy_until_ns for core in self._eligible(avoid))

    # -- scheduling --------------------------------------------------------------
    def select(
        self, now_ns: float, avoid: Optional[Set[int]] = None
    ) -> Tuple[SharedCheckerCore, float]:
        """Pick a core; the engine dispatches to it before yielding."""
        shared = self.shared
        core, start_ns = shared.select_for(self, now_ns, avoid)
        if start_ns > now_ns:
            shared.wait_ns[self.main_id] += start_ns - now_ns
        return core, start_ns

    def dispatch(
        self,
        core: SharedCheckerCore,
        segment_seq: int,
        start_ns: float,
        duration_ns: float,
    ) -> DispatchRecord:
        record = self.shared.dispatch_for(
            self, core, segment_seq, start_ns, duration_ns
        )
        self.last_core_id = core.core_id
        if self.tracer is not None:
            self.tracer.emit(
                "scheduling",
                "busy",
                time_ns=start_ns,
                segment=segment_seq,
                core=core.core_id,
                value=duration_ns,
            )
            self.tracer.metrics.inc("scheduling.dispatches")
            self.tracer.metrics.observe("scheduling.busy_ns", duration_ns)
        return record

    def abort(self, record: DispatchRecord, at_ns: float) -> None:
        reclaimed = self.shared.abort_for(record, at_ns)
        if reclaimed > 0 and self.tracer is not None:
            self.tracer.emit(
                "scheduling",
                "abort",
                time_ns=at_ns,
                segment=record.segment_seq,
                core=record.core_id,
                value=reclaimed,
            )
            self.tracer.metrics.inc("scheduling.aborts")

    # -- per-main statistics -----------------------------------------------------
    def wake_rates(self, total_ns: float) -> List[float]:
        """This main's contribution to each physical core's wake rate."""
        if total_ns <= 0:
            return [0.0] * len(self.cores)
        busy = [0.0] * len(self.cores)
        for record in self.dispatches:
            start = min(max(record.start_ns, 0.0), total_ns)
            end = min(max(record.end_ns, 0.0), total_ns)
            if end > start:
                busy[record.core_id] += end - start
        return [min(b / total_ns, 1.0) for b in busy]

    def cores_ever_used(self) -> int:
        return len({r.core_id for r in self.dispatches if r.end_ns > r.start_ns})

    def peak_concurrency(self) -> int:
        """Maximum simultaneously busy cores among this main's dispatches."""
        events: List[Tuple[float, int]] = []
        for record in self.dispatches:
            if record.end_ns > record.start_ns:
                events.append((record.start_ns, 1))
                events.append((record.end_ns, -1))
        events.sort()
        peak = current = 0
        for _time, delta in events:
            current += delta
            peak = max(peak, current)
        return peak
