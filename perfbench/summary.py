"""Metric names and the statistics the benchmark reports.

The names here are the contract with ``BENCHMARK.json``: a run with
``--trace 0`` prints exactly :data:`END_TO_END`, a run with
``--trace 1`` exactly :func:`per_layer_units`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

#: End-to-end metrics: name -> unit.  Measured with tracing off.  Times
#: are CPU seconds of the benchmark's processes and the workers they
#: reap (on a shared host the kernel leaves out the time another guest
#: holds the CPU, which wall-clock time would count).  Operation times
#: are scaled to the reference host speed of :mod:`speed`; ``setup_s``,
#: imports and the first builds, is not, since the calibration does not
#: track it.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_cpu_s_p50": "s",
    "op_cpu_s_tail": "s",
    "sim_instr_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Traced layers: metric prefix -> (module path, owner attribute path).
#: The owner is a class (``Class.method``) or the module itself.
LAYERS: Dict[str, Tuple[str, str]] = {
    "core.engine.run": ("repro.core.engine", "SimulationEngine.run"),
    "isa.executor.step": ("repro.isa.executor", "Executor.step"),
    "jit.runner": ("repro.jit.tier", "SuperblockJit.runner"),
    "workloads.golden_run": ("repro.workloads", "golden_run"),
    "cores.main_core.commit": ("repro.cores.main_core", "MainCoreTiming.commit"),
    "cores.main_core.block_commit": (
        "repro.cores.main_core",
        "MainCoreTiming.block_commit",
    ),
    "cores.checker_core.check_segment": (
        "repro.cores.checker_core",
        "CheckerCore.check_segment",
    ),
    "memory.data_access": ("repro.memory.cache", "MemoryHierarchy.data_access"),
    "memory.fetch_access": ("repro.memory.cache", "MemoryHierarchy.fetch_access"),
    "lslog.record_instruction": (
        "repro.lslog.segment",
        "LogSegment.record_instruction",
    ),
    "lslog.record_load": ("repro.lslog.segment", "LogSegment.record_load"),
    "lslog.record_store": ("repro.lslog.segment", "LogSegment.record_store"),
    # The engine calls the name it imported, so wrap it there.
    "lslog.rollback_memory": ("repro.core.engine", "rollback_memory"),
    "scheduling.select": ("repro.scheduling.pool", "CheckerPool.select"),
    "scheduling.dispatch": ("repro.scheduling.pool", "CheckerPool.dispatch"),
    "scheduling.abort": ("repro.scheduling.pool", "CheckerPool.abort"),
    "scheduling.shared.select": ("repro.scheduling.shared", "SharedPoolView.select"),
    "scheduling.shared.dispatch": (
        "repro.scheduling.shared",
        "SharedPoolView.dispatch",
    ),
    "scheduling.shared.abort": ("repro.scheduling.shared", "SharedPoolView.abort"),
    "checkpoint.observe": (
        "repro.checkpoint.controller",
        "CheckpointLengthController.observe",
    ),
    "dvfs.on_checkpoint": ("repro.dvfs.controller", "VoltageController.on_checkpoint"),
    "faults.begin_check": ("repro.faults.injector", "FaultInjector.begin_check"),
    "faults.fires_within_segment": (
        "repro.faults.injector",
        "FaultInjector.fires_within_segment",
    ),
    "faults.sram.on_voltage": ("repro.faults.sram", "SramFaultModel.on_voltage"),
    "resilience.guard.on_rollback": (
        "repro.resilience.guard",
        "ForwardProgressGuard.on_rollback",
    ),
    "telemetry.emit": ("repro.telemetry.tracer", "Tracer.emit"),
    # Parent side of a campaign: traced around the real run_campaign.
    "store.record_run": ("repro.store.store", "CampaignStore.record_run"),
    "parallel.run_fanout": ("repro.resilience.campaign", "run_fanout"),
}

#: Shared-pool work inside the view calls; their spans separate the
#: turnstile wait from the pool's own bookkeeping.
POOL_WORK: Dict[str, Tuple[str, str]] = {
    "scheduling.shared.select_for": (
        "repro.scheduling.shared",
        "SharedCheckerPool.select_for",
    ),
    "scheduling.shared.dispatch_for": (
        "repro.scheduling.shared",
        "SharedCheckerPool.dispatch_for",
    ),
    "scheduling.shared.abort_for": (
        "repro.scheduling.shared",
        "SharedCheckerPool.abort_for",
    ),
}

#: Run classes of the campaign taxonomy (``repro.resilience.RunClass``).
RUN_CLASSES = ("masked", "detected_recovered", "degraded", "sdc", "hang", "crash")

#: Simulated counts summed over every engine run: metric -> RunResult
#: field (a list field counts its entries).
SIM_COUNTS: Dict[str, str] = {
    "sim.instructions": "instructions",
    "sim.instructions_executed": "instructions_executed",
    "sim.segments": "segments",
    "sim.recoveries": "recoveries",
    "sim.faults_injected": "faults_injected",
    "sim.wall_ns": "wall_ns",
}

#: Derived per-layer metrics: name -> unit.
DERIVED: Dict[str, str] = {
    "scheduling.shared.wait_s": "s",
    "parallel.fanout.overhead_s": "s",
    "store.bytes_per_op": "B",
    "core.host_ns_per_executed_instr": "ns",
    "trace.overhead_pct": "%",
    "trace.wrapper_ns_per_call": "ns",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run prints: name -> unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    for name in SIM_COUNTS:
        units[name] = "ns" if name == "sim.wall_ns" else "count"
    for run_class in RUN_CLASSES:
        units[f"sim.class.{run_class}"] = "count"
    return units


#: Campaign worker processes.  With one, the CPU time between two cells'
#: results is one cell's alone, and the parent samples the host speed
#: between cells with no worker running.
FANOUT_WIDTH = 1


def tail(samples: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile with ``beyond`` samples above it.

    The value is the sorted sample that still has at least ``beyond``
    samples after it; the percentile is its rank as a share of the
    count.  None when there are too few samples for any such rank.
    """
    ordered = sorted(samples)
    index = len(ordered) - 1 - beyond
    if index < 0:
        return None
    return 100.0 * (index + 1) / len(ordered), ordered[index]
