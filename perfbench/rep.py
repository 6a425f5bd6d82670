"""One benchmark repetition, run by ``run.py`` in a fresh process.

A fresh process per repetition means no repetition inherits another's
built workloads or compiled superblocks, so every repetition pays the
cold costs a user of ``repro suite --jobs 1`` or ``repro campaign``
pays.

Modes:

* ``timed`` — the workload as a user runs it, tracing off.
* ``check`` — the first :data:`CHECK_CELLS` cells of a campaign, run
  the same way, whose results must equal the timed repetition's.
* ``reference`` — the untraced twin of ``traced``: the same operations
  in the same order, so the two give the tracing overhead.
* ``traced`` — the layer wrappers of :mod:`summary` installed; reports
  per-layer calls and self time and writes every span to ``--out-dir``.

The repetition prints one JSON object as the last line of its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import SpanRecorder, wrapper_ns_per_call  # noqa: E402
from speed import calibrate, reference_seconds, setup_seconds  # noqa: E402
from summary import (  # noqa: E402
    LAYERS,
    POOL_WORK,
    RUN_CLASSES,
    SIM_COUNTS,
    FANOUT_WIDTH,
)

#: SPEC proxies spanning the paper's workload classes: code-footprint
#: bound (gobmk), checkpoint bound (milc), rollback-buffer bound (sjeng,
#: astar), memory bound (lbm, mcf, leslie3d) and compute bound (bzip2).
#: Task costs are skewed (a few heavy code-footprint tasks, many light
#: ones); with these eight the median task falls inside a group of
#: similar tasks (0.16-0.21 s on a 2-core x86 host) rather than in the
#: gap below it, so the median does not jump between two tasks.
SUITE_PROXIES = (
    "gobmk",
    "milc",
    "sjeng",
    "astar",
    "lbm",
    "mcf",
    "leslie3d",
    "bzip2",
)
SUITE_ITERATIONS = 6
#: The proxy generator draws each program's code, not only its data,
#: from the build seed, so another build seed is another program.  The
#: benchmark keeps the programs ``repro suite`` builds by default and
#: takes each run's fault and scheduling randomness from ``--seed``.
SUITE_BUILD_SEED = 12345

#: Campaign cells per repetition: every fault-model mix appears equally
#: often, so the mix of cheap (transient) and costly (burst) cells is
#: the same for every seed.  Cell costs vary by 20-35% with the fault
#: seed, so a run needs tens of distinct cells for steady figures: one
#: timed repetition of many cells on a small bitcount, with more than
#: ten burst cells so that the tail falls among them.
CAMPAIGN_CELLS = {"fault-campaign": 56, "shared-pool": 48}
CAMPAIGN_SCALE = 0.15
#: Cells the check repetition runs again: one of each mix.
CHECK_CELLS = 4
CAMPAIGN_MODELS = ("transient", "burst", "stuckat", "sram")
#: Cells the traced run replays in process under the engine wrappers:
#: the first two of each mix.  The whole grid under the wrappers would
#: outlast the time one benchmark command may take.
TRACED_CELLS = 8

#: Campaign record fields that are pure functions of the cell.
CELL_FIELDS = (
    "outcome",
    "recoveries",
    "faults_injected",
    "instructions",
    "quarantined",
    "escalations",
    "wall_ns",
    "mean_voltage",
    "wake_rates",
    "fairness",
)


def digest(rows: Any) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has reaped.

    Both count from process start and leave out steal time, the time the
    host gives this guest's CPUs to another.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ------------------------------------------------------------ spec-suite --


def suite_tasks(seed: int) -> list:
    from repro.experiments.spec_runs import SUITE_SYSTEMS, SuiteTask
    from repro.parallel import derive_seed

    return [
        SuiteTask(
            workload=name,
            system=system,
            iterations=SUITE_ITERATIONS,
            build_seed=SUITE_BUILD_SEED,
            run_seed=derive_seed(seed, name, system),
        )
        for name in SUITE_PROXIES
        for system in SUITE_SYSTEMS
    ]


def suite_row(task: Any, result: Any) -> Optional[list]:
    if result is None:
        return None
    return [
        task.workload,
        task.system,
        result.wall_ns,
        result.instructions,
        result.instructions_executed,
        len(result.recoveries),
        result.segments,
        result.faults_injected,
    ]


def suite_golden_failures(tasks: Sequence[Any], results: Sequence[Any]) -> int:
    """Tasks whose program output differs from the golden run's (or that raised)."""
    from repro.workloads import build_spec_workload, golden_run

    golden: Dict[str, list] = {}
    failed = 0
    for task, result in zip(tasks, results):
        if result is None:
            failed += 1
            continue
        if task.workload not in golden:
            workload = build_spec_workload(
                task.workload, iterations=task.iterations, seed=task.build_seed
            )
            golden[task.workload] = golden_run(workload).output
        if result.program_output != golden[task.workload]:
            failed += 1
    return failed


def run_suite(seed: int, t0_ns: int, recorder: Optional[SpanRecorder]) -> Dict[str, Any]:
    from repro.experiments.spec_runs import execute_suite_task

    tasks = suite_tasks(seed)
    setup_s = cpu_s()
    first_ns = time.monotonic_ns()
    op_s: List[float] = []
    calibrations: List[float] = []
    results: List[Any] = []
    for task in tasks:
        calibrations.append(calibrate())
        start = time.process_time()
        try:
            with recorder.span("bench.op") if recorder else nullcontext():
                result = execute_suite_task(task)
        except Exception:
            traceback.print_exc()
            result = None
        op_s.append(time.process_time() - start)
        results.append(result)
    wall_s = (time.monotonic_ns() - first_ns) / 1e9
    if recorder is not None:
        # Unwrapped before the golden runs: they check the operations
        # and are not part of them.
        recorder.restore()
    scaled = reference_seconds(op_s, calibrations)
    return {
        "setup_s": setup_seconds(setup_s, calibrations),
        "setup_cpu_s": setup_s,
        "setup_wall_s": (first_ns - t0_ns) / 1e9,
        "op_s": scaled,
        "timed_s": sum(scaled),
        "cpu_s": sum(op_s),
        "wall_s": wall_s,
        "instructions": sum(r.instructions for r in results if r is not None),
        "failed": suite_golden_failures(tasks, results),
        "digest": digest([suite_row(t, r) for t, r in zip(tasks, results)]),
    }


# ------------------------------------------------------------- campaigns --


def campaign_spec(workload: str, seed: int, cells: Optional[int] = None) -> Any:
    """The workload's campaign, or its first ``cells`` cells."""
    from repro.resilience import CampaignSpec

    grid = CAMPAIGN_CELLS[workload]
    common = dict(
        workload="bitcount",
        scale=CAMPAIGN_SCALE,
        seeds=cells or grid,
        first_seed=seed * grid,
        rates=(3e-4,),
        models=CAMPAIGN_MODELS,
        dvs=True,
        # One simulated die: the sram map belongs to the chip, and the
        # seed varies the runs on it.
        first_chip_seed=0,
        timeout_s=120.0,
        workers=FANOUT_WIDTH,
    )
    if workload == "fault-campaign":
        return CampaignSpec(tracing=True, **common)
    return CampaignSpec(main_cores=2, pool_policy="steal", **common)


def cell_row(run_id: int, run_class: str, source: Any) -> list:
    """Canonical simulated result of one cell (record or worker message)."""
    get = source.get if isinstance(source, dict) else lambda key: getattr(source, key)
    return [run_id, run_class] + [get(key) for key in CELL_FIELDS]


def run_store_campaign(
    workload: str, seed: int, t0_ns: int, out_dir: str, cells: Optional[int] = None
) -> Dict[str, Any]:
    """The store-backed ``run_campaign`` a user runs, timed from the parent.

    A cell's CPU time is what the parent and its reaped workers spent
    since the previous cell's result.  The fan-out reaps each worker
    just before it reports the cell, so that is the whole of the cell's
    worker (its fork, golden run and simulation) plus the parent's share
    in between (pipe, classification, store commit, the next fork).  The
    parent samples the host speed after each result, outside that time,
    while no worker runs.
    """
    from repro.resilience import run_campaign

    spec = campaign_spec(workload, seed, cells)
    store_path = os.path.join(out_dir, f"store-{workload}-{os.getpid()}.sqlite")
    started: Dict[int, float] = {}
    observed: Dict[int, float] = {}
    cpu: Dict[int, float] = {}
    calibrations: Dict[int, float] = {}
    marks: Dict[str, float] = {}

    def on_start(payload: Dict[str, Any]) -> None:
        if "first_ns" not in marks:
            marks["first_ns"] = time.monotonic_ns()
            marks["setup_s"] = marks["last_cpu_s"] = cpu_s()
        started[payload["run_id"]] = time.perf_counter()

    def progress(record: Any) -> None:
        observed[record.run_id] = time.perf_counter() - started[record.run_id]
        cpu[record.run_id] = cpu_s() - marks["last_cpu_s"]
        marks["last_ns"] = time.monotonic_ns()
        calibrations[record.run_id] = calibrate()
        marks["last_cpu_s"] = cpu_s()

    try:
        report = run_campaign(spec, progress, store_path=store_path, on_start=on_start)
        store_bytes = os.path.getsize(store_path)
    finally:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(store_path + suffix):
                os.remove(store_path + suffix)
    records = sorted(report.records, key=lambda r: r.run_id)
    # A crashed or watchdog-killed worker leaves no engine outcome.
    failed = sum(1 for r in records if r.outcome is None)
    failed += len(spec.expand()) - len(records)
    rows = [cell_row(r.run_id, r.run_class.value, r) for r in records]
    # Completion order is time order: each cell is scaled by the host
    # speed sampled as it and its neighbours finished.
    done = list(cpu)
    scaled = dict(
        zip(
            done,
            reference_seconds([cpu[i] for i in done], [calibrations[i] for i in done]),
        )
    )
    return {
        "setup_s": setup_seconds(marks["setup_s"], [calibrations[i] for i in done]),
        "setup_cpu_s": marks["setup_s"],
        "setup_wall_s": (marks["first_ns"] - t0_ns) / 1e9,
        "op_s": [scaled[r.run_id] for r in records],
        "timed_s": sum(scaled.values()),
        "cpu_s": sum(cpu.values()),
        "wall_s": (marks["last_ns"] - marks["first_ns"]) / 1e9,
        "instructions": sum(r.instructions for r in records),
        "failed": failed,
        "digest": digest(rows),
        "traced_cells_digest": digest(rows[:TRACED_CELLS]),
        "check_digest": digest(rows[:CHECK_CELLS]),
        "fanout_overhead_s": sum(observed[r.run_id] - r.duration_s for r in records),
        "store_bytes_per_op": store_bytes / max(1, len(records)),
    }


def run_cells_in_process(
    workload: str, seed: int, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    """The first :data:`TRACED_CELLS` cells through ``execute_run`` in this process."""
    from repro.resilience.campaign import classify_result, execute_run

    op_s: List[float] = []
    calibrations: List[float] = []
    rows: List[Optional[list]] = []
    classes = {run_class: 0 for run_class in RUN_CLASSES}
    failed = 0
    for payload in campaign_spec(workload, seed).expand()[:TRACED_CELLS]:
        calibrations.append(calibrate())
        start = time.process_time()
        try:
            with recorder.span("bench.op") if recorder else nullcontext():
                message = execute_run(payload)
        except Exception:
            traceback.print_exc()
            message = None
        op_s.append(time.process_time() - start)
        if message is None:
            failed += 1
            classes["crash"] += 1
            rows.append(None)
            continue
        run_class = classify_result(message)[0].value
        classes[run_class] += 1
        rows.append(cell_row(payload["run_id"], run_class, message))
    return {
        "op_s": op_s,
        "timed_s": sum(reference_seconds(op_s, calibrations)),
        "failed": failed,
        "classes": classes,
        "digest": digest(rows),
    }


# ---------------------------------------------------------------- traced --


def resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """(owner, attribute) for ``Class.attr`` or a module-level ``attr``."""
    import importlib

    owner: Any = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


#: Layers called only by the parent of a campaign's fan-out.
PARENT_LAYERS = ("store.record_run", "parallel.run_fanout")
ENGINE_LAYERS = [name for name in LAYERS if name not in PARENT_LAYERS] + list(
    POOL_WORK
)


def install_layers(
    recorder: SpanRecorder, names: Sequence[str], engine_results: List[Any]
) -> None:
    table = {**LAYERS, **POOL_WORK}
    for name in names:
        owner, attribute = resolve(*table[name])
        on_result = engine_results.append if name == "core.engine.run" else None
        recorder.install(name, owner, attribute, on_result=on_result)


def traced_metrics(
    recorder: SpanRecorder, engine_results: List[Any], classes: Dict[str, int]
) -> Dict[str, float]:
    totals = recorder.layer_totals()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, _inclusive, own = totals.get(layer, (0, 0, 0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = own / 1e9
    # Self time of the view calls is what the pool work (their child
    # spans) leaves: waiting at the turnstile for the other main's turn.
    wait_ns = sum(
        totals.get(f"scheduling.shared.{call}", (0, 0, 0))[2]
        for call in ("select", "dispatch", "abort")
    )
    metrics["scheduling.shared.wait_s"] = wait_ns / 1e9
    executed = sum(r.instructions_executed for r in engine_results)
    engine_ns = totals.get("core.engine.run", (0, 0, 0))[1] - wait_ns
    metrics["core.host_ns_per_executed_instr"] = engine_ns / max(1, executed)
    for name, field in SIM_COUNTS.items():
        values = [getattr(r, field) for r in engine_results]
        metrics[name] = sum(len(v) if isinstance(v, list) else v for v in values)
    for run_class in RUN_CLASSES:
        metrics[f"sim.class.{run_class}"] = classes.get(run_class, 0)
    return metrics


def run_traced(workload: str, seed: int, t0_ns: int, out_dir: str) -> Dict[str, Any]:
    wrapper_ns = wrapper_ns_per_call()
    recorder = SpanRecorder()
    engine_results: List[Any] = []
    campaign: Optional[Dict[str, Any]] = None
    if workload == "spec-suite":
        install_layers(recorder, ENGINE_LAYERS, engine_results)
        result = run_suite(seed, t0_ns, recorder)
    else:
        # Parent-side layers only while the real campaign forks its
        # workers: the children inherit the patched classes, and an
        # engine wrapper in a child would slow it without returning spans.
        install_layers(recorder, PARENT_LAYERS, engine_results)
        campaign = run_store_campaign(workload, seed, t0_ns, out_dir)
        install_layers(recorder, ENGINE_LAYERS, engine_results)
        try:
            result = run_cells_in_process(workload, seed, recorder)
        finally:
            recorder.restore()
    metrics = traced_metrics(recorder, engine_results, result.get("classes", {}))
    metrics["parallel.fanout.overhead_s"] = campaign["fanout_overhead_s"] if campaign else 0.0
    metrics["store.bytes_per_op"] = campaign["store_bytes_per_op"] if campaign else 0.0
    metrics["trace.wrapper_ns_per_call"] = wrapper_ns
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    recorder.save(spans_path)
    out = {
        "timed_s": result["timed_s"],
        "ops": len(result["op_s"]),
        "failed": result["failed"],
        "digest": result["digest"],
        "metrics": metrics,
        "spans": os.path.relpath(spans_path),
    }
    if campaign is not None:
        out["ops"] += len(campaign["op_s"])
        out["failed"] += campaign["failed"]
        out["campaign_digest"] = campaign["traced_cells_digest"]
        out["timed_digest"] = campaign["digest"]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("timed", "check", "reference", "traced"), required=True
    )
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    suite = args.workload == "spec-suite"
    if args.mode == "traced":
        out = run_traced(args.workload, args.seed, args.t0_ns, args.out_dir)
    elif suite:
        out = run_suite(args.seed, args.t0_ns, None)
    elif args.mode == "timed":
        out = run_store_campaign(args.workload, args.seed, args.t0_ns, args.out_dir)
    elif args.mode == "check":
        out = run_store_campaign(
            args.workload, args.seed, args.t0_ns, args.out_dir, CHECK_CELLS
        )
    else:
        out = run_cells_in_process(args.workload, args.seed, None)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
