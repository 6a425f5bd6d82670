"""Multi-main-core ParaDox: M producers sharing one checker pool.

The single-core engine is untouched — each main core is one
:class:`~repro.core.engine.SimulationEngine` running its own program,
log segments, checkpoints, DVFS controller, and fault injector.  What
changes is the checker pool: all engines schedule through per-main
:class:`~repro.scheduling.shared.SharedPoolView` facades over one
:class:`~repro.scheduling.shared.SharedCheckerPool`, so a core waiting
on a checker another core occupies shows up as a checker-wait stall in
its own timeline.

Execution is a conservative discrete-event co-simulation in one thread:
every engine runs as a resumable
:meth:`~repro.core.engine.SimulationEngine.steps` generator that stops
just before each shared-pool call, and :func:`run_shared_engines`
always resumes the engine with the smallest ``(time_ns, main_id)``
stamp, so pool calls execute in globally sorted simulated-time order.
Results are therefore deterministic — the same specs and seed produce
bit-identical :class:`MulticoreResult`\\ s on every run.

Asymmetric scenarios fall out of the per-core spec: each
:class:`CoreSpec` may carry its own :class:`~repro.core.systems.System`
(and hence its own voltage configuration, error model, and injector),
so a near-threshold core can share the pool with a nominal-voltage one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, cast

import numpy as np

from ..parallel import derive_seed
from ..scheduling.shared import (
    DEFAULT_POOL_POLICY,
    PoolPolicy,
    SharedCheckerPool,
)
from ..stats import RunResult
from ..stats.fairness import FairnessReport
from .systems import ParaDoxSystem, System, WorkloadLike


@dataclass
class CoreSpec:
    """One main core of a multi-main system."""

    workload: WorkloadLike
    #: System design point for this core; defaults to the harness-wide
    #: default (a plain ParaDox core).  Per-core systems give asymmetric
    #: scenarios: different voltage configs, error models, injectors.
    system: Optional[System] = None
    #: Fault seed; derived from the harness seed and main id when None.
    seed: Optional[int] = None
    #: Explicit injector; built by the core's system when None.
    injector: Optional[Any] = None
    #: Useful-instruction budget; the workload's default when None.
    max_instructions: Optional[int] = None


@dataclass
class MulticoreResult:
    """Outcome of one multi-main-core run."""

    results: List[RunResult]
    fairness: FairnessReport
    policy: PoolPolicy
    pool_size: int
    boot_offset: int
    #: Wall time of the slowest main core.
    wall_ns: float
    #: Multicore-source telemetry events (compact dicts), present only
    #: when the harness was traced.
    trace: Optional[List[Dict]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Canonical summary (deterministic, JSON-serializable)."""
        return {
            "policy": self.policy.value,
            "pool_size": self.pool_size,
            "boot_offset": self.boot_offset,
            "wall_ns": self.wall_ns,
            "fairness": self.fairness.to_dict(),
            "cores": [
                {
                    "main_id": i,
                    "workload": r.workload,
                    "system": r.system,
                    "outcome": r.outcome.value,
                    "wall_ns": r.wall_ns,
                    "instructions": r.instructions,
                    "segments": r.segments,
                    "checker_wait_ns": r.stalls.checker_wait_ns,
                    "recoveries": len(r.recoveries),
                }
                for i, r in enumerate(self.results)
            ],
        }

    def summary(self) -> str:
        lines = [
            f"policy={self.policy.value} pool={self.pool_size} "
            f"boot_offset={self.boot_offset} wall={self.wall_ns:.0f}ns "
            f"wait_gini={self.fairness.wait_gini:.3f}"
        ]
        for i, r in enumerate(self.results):
            share = self.fairness.dispatch_share[i]
            lines.append(
                f"  main{i} {r.workload:>12s}: wall={r.wall_ns:.0f}ns "
                f"wait={r.stalls.checker_wait_ns:.0f}ns "
                f"dispatch_share={share:.3f}"
            )
        return "\n".join(lines)


def run_shared_engines(
    engines: Sequence[Any],
    budgets: Sequence[int],
) -> List[RunResult]:
    """Run pre-built engines to completion on one shared pool.

    One thread, one heap of ``(time_ns, main_id, steps)``: each engine's
    :meth:`~repro.core.engine.SimulationEngine.steps` generator stops
    just before every shared-pool call, and the engine with the
    smallest stamp always goes next, so pool calls run in global
    simulated-time order.  An engine that raises leaves the heap; the
    others run to completion, then the first error (by main id) is
    re-raised.
    """
    n = len(engines)
    results: List[Optional[RunResult]] = [None] * n
    errors: List[Optional[Exception]] = [None] * n
    heap: List[Tuple[float, int, Generator[float, None, RunResult]]] = []

    def advance(main_id: int, steps: Generator[float, None, RunResult]) -> None:
        try:
            at_ns = next(steps)
        except StopIteration as done:
            results[main_id] = done.value
        except Exception as exc:  # re-raised once the others finish
            errors[main_id] = exc
        else:
            heapq.heappush(heap, (at_ns, main_id, steps))

    for main_id, engine in enumerate(engines):
        advance(main_id, engine.steps(budgets[main_id]))
    while heap:
        _at_ns, main_id, steps = heapq.heappop(heap)
        advance(main_id, steps)
    for exc in errors:
        if exc is not None:
            raise exc
    return cast(List[RunResult], results)


class MulticoreEngine:
    """Build and run M engines against one shared checker pool."""

    def __init__(
        self,
        specs: Sequence[CoreSpec],
        policy: PoolPolicy = DEFAULT_POOL_POLICY,
        pool_size: Optional[int] = None,
        seed: int = 0,
        boot_offset: Optional[int] = None,
        default_system: Optional[System] = None,
        tracing: bool = False,
    ) -> None:
        if not specs:
            raise ValueError("a multicore engine needs at least one main core")
        self.specs = list(specs)
        self.policy = policy
        self.seed = seed
        self.tracing = tracing
        self._default_system = default_system
        systems = [
            spec.system
            if spec.system is not None
            else (default_system if default_system is not None else ParaDoxSystem())
            for spec in self.specs
        ]
        self.systems: List[System] = systems
        size = pool_size if pool_size is not None else systems[0].config.checker.count
        if boot_offset is None:
            # The anti-ageing rotation is a harness-level draw: the pool
            # is one physical structure, not M private ones.
            rng = np.random.default_rng(derive_seed(seed, "mc-boot"))
            boot_offset = int(rng.integers(size))
        self.pool = SharedCheckerPool(
            len(self.specs), size, policy=policy, boot_offset=boot_offset
        )
        self.engines = []
        for main_id, (spec, system) in enumerate(zip(self.specs, systems)):
            run_seed = (
                spec.seed
                if spec.seed is not None
                else derive_seed(seed, "mc", main_id)
            )
            view = self.pool.view(
                main_id, system.config.checker, spec.workload.program
            )
            engine = system.engine(
                spec.workload,
                seed=run_seed,
                injector=spec.injector,
                pool=view,
                main_id=main_id,
            )
            if engine.pool is not view:
                raise ValueError(
                    f"system {system.name!r} does not check (checking=False); "
                    "every main core of a shared pool must dispatch segments"
                )
            self.engines.append(engine)

    def run(self) -> MulticoreResult:
        """Run every main core to completion; deterministic."""
        budgets = [
            spec.max_instructions
            if spec.max_instructions is not None
            else spec.workload.max_instructions
            for spec in self.specs
        ]
        finished = run_shared_engines(self.engines, budgets)
        wall_ns = max(r.wall_ns for r in finished)
        fairness = FairnessReport.from_pool(self.pool, wall_ns)
        trace = (
            fairness_trace_events(
                finished, fairness, wall_ns, seed=self.seed, policy=self.policy
            )
            if self.tracing
            else None
        )
        return MulticoreResult(
            results=finished,
            fairness=fairness,
            policy=self.policy,
            pool_size=len(self.pool),
            boot_offset=self.pool.boot_offset,
            wall_ns=wall_ns,
            trace=trace,
        )



def fairness_trace_events(
    results: Sequence[RunResult],
    fairness: FairnessReport,
    wall_ns: float,
    seed: int = 0,
    policy: PoolPolicy = DEFAULT_POOL_POLICY,
) -> List[Dict]:
    """Multicore-source telemetry events for the JSONL exporters."""
    from ..telemetry import Tracer

    tracer = Tracer(
        system="multicore",
        workload="+".join(r.workload for r in results),
        seed=seed,
        policy=policy.value,
    )
    for main_id, result in enumerate(results):
        tracer.emit(
            "multicore",
            "core_done",
            time_ns=result.wall_ns,
            core=main_id,
            value=result.wall_ns,
            detail=result.workload,
        )
    for main_id in range(len(results)):
        tracer.emit(
            "multicore",
            "dispatch_share",
            time_ns=wall_ns,
            core=main_id,
            value=fairness.dispatch_share[main_id],
        )
        tracer.emit(
            "multicore",
            "busy_share",
            time_ns=wall_ns,
            core=main_id,
            value=fairness.busy_share[main_id],
        )
        tracer.emit(
            "multicore",
            "wait_ns",
            time_ns=wall_ns,
            core=main_id,
            value=fairness.wait_ns[main_id],
        )
    tracer.emit("multicore", "wait_gini", time_ns=wall_ns, value=fairness.wait_gini)
    return [event.to_dict() for event in tracer.events]


def run_multicore(
    workloads: Sequence[WorkloadLike],
    system: Optional[System] = None,
    policy: PoolPolicy = DEFAULT_POOL_POLICY,
    pool_size: Optional[int] = None,
    seed: int = 0,
    max_instructions: Optional[int] = None,
    tracing: bool = False,
) -> MulticoreResult:
    """Convenience wrapper: one workload per main core, one shared system."""
    specs = [
        CoreSpec(workload=w, max_instructions=max_instructions) for w in workloads
    ]
    harness = MulticoreEngine(
        specs,
        policy=policy,
        pool_size=pool_size,
        seed=seed,
        default_system=system,
        tracing=tracing,
    )
    return harness.run()
