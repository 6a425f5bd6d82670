#!/usr/bin/env python
"""Hot-path benchmark harness.

Measures the three numbers the performance work is steered by and writes
them to a ``BENCH_*.json`` file (see ``docs/PERFORMANCE.md`` for how to
read one):

* ``executor`` — functional-execution throughput (instructions/second of
  the bare :class:`repro.isa.executor.Executor` step loop, via a golden
  run);
* ``engine`` — full protected-simulation throughput (useful
  instructions/second of a ParaDox run, which exercises the executor,
  the main-core timing model, the log and the checker pool together);
* ``suite`` — wall-clock of the SPEC-proxy suite, serial versus
  ``--jobs N`` process fan-out, and the resulting speedup;
* ``tracing`` — engine throughput with telemetry off vs on, so the
  disabled-tracer guarantee ("tracing off costs nothing") is a measured
  number, not a claim;
* ``jit`` — interpreter versus compiled-superblock throughput for the
  bare executor and for the full engine, with bit-identity checked in
  the same breath (see ``src/repro/jit/``).

The suite fan-out defaults to ``min(4, cpu_count)`` workers: on a
single-CPU host a forced ``--jobs 4`` merely measures process-spawn
overhead and reports an honest but meaningless "speedup" below 1.0
(BENCH_PR2.json recorded 0.719x that way).  Pass ``--jobs`` explicitly
to override; the report's ``suite`` section records both the width used
and the host's ``cpu_count`` so readers can judge the number.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_PR3.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick   # CI smoke

Always pass an explicit ``--out`` when recording a milestone: committed
``BENCH_PR<N>.json`` files are the performance trajectory of the repo,
and the default (``BENCH_HOTPATH.json``, gitignored territory) must
never silently overwrite one.

The harness deliberately uses only public entry points so the same file
can benchmark any revision of the simulator (the ``--jobs`` fan-out is
skipped gracefully on revisions that predate it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence


def _clear_process_caches() -> None:
    """Drop the process-wide workload and compiled-code caches.

    A leg timed after another leg in the same process would otherwise
    reuse the workloads and superblocks the first one built, and read
    faster for it (BENCH_PR7 recorded a 2.7x suite "speedup" at
    ``--jobs 1`` that way).  Caches a revision lacks are skipped.
    """
    import importlib

    for module_name, names in (
        ("repro.experiments.spec_runs", ("_WORKLOAD_CACHE",)),
        ("repro.jit.tier", ("_SHARED_CODE", "_SHARED_LEADERS")),
    ):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        for name in names:
            cache = getattr(module, name, None)
            if cache is not None:
                cache.clear()


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_executor(iterations: int, repeats: int, jit: bool = True) -> Dict[str, Any]:
    """Bare functional-execution throughput (no timing model, no checkers).

    ``jit=True`` (the simulator's default execution path since the
    compiled superblock tier landed) measures ``golden_run(jit=True)``;
    ``--no-jit`` reproduces the historical pure-interpreter number.
    """
    from repro.workloads import build_spec_workload, golden_run

    workload = build_spec_workload("bzip2", iterations=iterations)
    try:
        golden = golden_run(workload, jit=jit)  # warm-up + instruction count
        run = lambda: golden_run(workload, jit=jit)  # noqa: E731
    except TypeError:  # revision without the compiled superblock tier
        jit = False
        golden = golden_run(workload)
        run = lambda: golden_run(workload)  # noqa: E731
    seconds = _best_of(run, repeats)
    return {
        "workload": "bzip2",
        "iterations": iterations,
        "instructions": golden.instructions,
        "seconds": round(seconds, 4),
        "instr_per_sec": round(golden.instructions / seconds, 1),
        "jit": jit,
    }


def _system_kwargs(jit: bool) -> Dict[str, Any]:
    """Constructor kwargs honouring ``--no-jit``.

    An empty dict on the default path keeps this harness runnable
    against revisions that predate the ``jit`` field.
    """
    return {} if jit else {"jit": False}


def bench_engine(iterations: int, repeats: int, jit: bool = True) -> Dict[str, Any]:
    """Full protected run: executor + OoO timing + log + checker pool."""
    from repro.core import ParaDoxSystem
    from repro.workloads import build_spec_workload

    workload = build_spec_workload("milc", iterations=iterations)
    system = ParaDoxSystem(**_system_kwargs(jit))
    result = system.run(workload, seed=12345)  # warm-up + instruction count
    seconds = _best_of(lambda: system.run(workload, seed=12345), repeats)
    return {
        "workload": "milc",
        "iterations": iterations,
        "instructions": result.instructions,
        "seconds": round(seconds, 4),
        "instr_per_sec": round(result.instructions / seconds, 1),
        "jit": jit,
    }


def bench_tracing_overhead(
    iterations: int, repeats: int, jit: bool = True
) -> Dict[str, Any]:
    """Engine throughput with telemetry disabled vs enabled.

    The disabled number is the one guarded against regressions: with
    ``tracing=False`` no tracer object exists and every emission site is
    a single ``is not None`` test at segment granularity, so the two
    disabled/enabled runs bound the subsystem's cost from both sides.
    """
    from repro.core import ParaDoxSystem
    from repro.workloads import build_spec_workload

    workload = build_spec_workload("milc", iterations=iterations)
    plain = ParaDoxSystem(**_system_kwargs(jit))
    traced = ParaDoxSystem(tracing=True, **_system_kwargs(jit))
    result = plain.run(workload, seed=12345)  # warm-up
    disabled_s = _best_of(lambda: plain.run(workload, seed=12345), repeats)
    enabled_s = _best_of(lambda: traced.run(workload, seed=12345), repeats)
    events = traced.run(workload, seed=12345).trace
    return {
        "workload": "milc",
        "iterations": iterations,
        "instructions": result.instructions,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "disabled_instr_per_sec": round(result.instructions / disabled_s, 1),
        "enabled_instr_per_sec": round(result.instructions / enabled_s, 1),
        "enabled_overhead_pct": round(100.0 * (enabled_s / disabled_s - 1.0), 2),
        "events": len(events or []),
    }


def bench_jit(iterations: int, repeats: int, engine_iterations: int) -> Dict[str, Any]:
    """Interpreter vs compiled-superblock tier, executor and engine level.

    Equivalence is asserted alongside the timing: the two executor runs
    must agree on final registers/memory/output and the two engine runs
    on wall_ns/instructions, so a speedup number can never be recorded
    for a tier that drifted.  ``engine_dispatches`` counts the blocks the
    compiled engine run actually dispatched, so ``engine_identical``
    cannot hold merely because no block ran.  Every timed run follows a
    warm-up in the same process, so compiled code is already cached
    (``cache_state: warm``).
    """
    from repro.core import ParaDoxSystem
    from repro.workloads import build_spec_workload, golden_run

    workload = build_spec_workload("bzip2", iterations=iterations)
    interp = golden_run(workload)  # warm-up + reference
    jitted = golden_run(workload, jit=True)
    identical = (
        interp.state.regs.x == jitted.state.regs.x
        and interp.state.regs.f == jitted.state.regs.f
        and interp.instructions == jitted.instructions
        and interp.output == jitted.output
        and interp.memory.words == jitted.memory.words
    )
    interp_s = _best_of(lambda: golden_run(workload), repeats)
    jit_s = _best_of(lambda: golden_run(workload, jit=True), repeats)

    engine_workload = build_spec_workload("milc", iterations=engine_iterations)
    plain = ParaDoxSystem(jit=False)
    tiered = ParaDoxSystem()
    interp_result = plain.run(engine_workload, seed=12345)  # warm-up
    engine = tiered.engine(engine_workload, seed=12345)
    jit_result = engine.run(engine_workload.max_instructions)
    engine_identical = (
        interp_result.wall_ns == jit_result.wall_ns
        and interp_result.instructions == jit_result.instructions
    )
    engine_interp_s = _best_of(lambda: plain.run(engine_workload, seed=12345), repeats)
    engine_jit_s = _best_of(lambda: tiered.run(engine_workload, seed=12345), repeats)
    return {
        "workload": "bzip2",
        "iterations": iterations,
        "instructions": interp.instructions,
        "interp_s": round(interp_s, 4),
        "jit_s": round(jit_s, 4),
        "interp_instr_per_sec": round(interp.instructions / interp_s, 1),
        "jit_instr_per_sec": round(interp.instructions / jit_s, 1),
        "executor_speedup": round(interp_s / jit_s, 3),
        "identical": identical,
        "engine_workload": "milc",
        "engine_iterations": engine_iterations,
        "engine_instructions": interp_result.instructions,
        "engine_interp_s": round(engine_interp_s, 4),
        "engine_jit_s": round(engine_jit_s, 4),
        "engine_interp_instr_per_sec": round(
            interp_result.instructions / engine_interp_s, 1
        ),
        "engine_jit_instr_per_sec": round(
            jit_result.instructions / engine_jit_s, 1
        ),
        "engine_speedup": round(engine_interp_s / engine_jit_s, 3),
        "engine_identical": engine_identical,
        "engine_dispatches": engine.jit.stats.dispatches,
        "cache_state": "warm",
    }


def bench_suite(
    iterations: int, names: Optional[Sequence[str]], jobs: int
) -> Dict[str, Any]:
    """SPEC-proxy suite wall-clock: serial vs ``jobs``-way process fan-out."""
    from repro.experiments.spec_runs import run_spec_suite

    # Warm-up: module imports and allocator growth are one-time costs
    # that would otherwise land entirely on the serial leg (which runs
    # first) and flatter the fan-out.  Each leg then starts from empty
    # workload and code caches, as a fresh `repro suite` process does.
    run_spec_suite(iterations=1, names=names)
    _clear_process_caches()
    started = time.perf_counter()
    serial = run_spec_suite(iterations=iterations, names=names)
    serial_s = time.perf_counter() - started

    cpus = os.cpu_count() or 1
    entry: Dict[str, Any] = {
        "iterations": iterations,
        "workloads": len(serial.baseline),
        "systems": 4,
        "serial_s": round(serial_s, 3),
        "cpu_count": cpus,
        "oversubscribed": jobs > cpus,
        "cache_state": "cold",
    }
    _clear_process_caches()
    try:
        started = time.perf_counter()
        parallel = run_spec_suite(iterations=iterations, names=names, jobs=jobs)
        parallel_s = time.perf_counter() - started
    except TypeError:  # revision without the parallel execution layer
        entry["parallel_s"] = None
        entry["jobs"] = jobs
        return entry
    identical = all(
        serial.paradox[name].wall_ns == parallel.paradox[name].wall_ns
        and serial.paradox[name].instructions == parallel.paradox[name].instructions
        and len(serial.paradox[name].recoveries)
        == len(parallel.paradox[name].recoveries)
        for name in serial.names()
    )
    entry.update(
        {
            "jobs": jobs,
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3),
            "identical": identical,
        }
    )
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_HOTPATH.json",
        help="output JSON path (pass BENCH_PR<N>.json explicitly when "
        "recording a milestone; the default never collides with one)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="fan-out width for the suite benchmark (default: "
        "min(4, cpu_count) — oversubscribing a small host only "
        "measures spawn overhead)",
    )
    parser.add_argument("--iterations", type=int, default=12, help="workload iterations per run")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--no-jit",
        action="store_true",
        help="run the engine/tracing sections with the compiled "
        "superblock tier disabled (the jit section is skipped)",
    )
    parser.add_argument(
        "--suite-names",
        default="bzip2,gcc,milc,gobmk,sjeng,lbm",
        help="comma list of SPEC proxies for the suite benchmark ('all' = full 19)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing: tiny workloads, one repeat",
    )
    parser.add_argument(
        "--label", default="", help="free-form label recorded in the JSON"
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.iterations = min(args.iterations, 4)
        args.repeats = 1
        args.suite_names = "bzip2,milc"
    if args.jobs is None:
        args.jobs = min(4, os.cpu_count() or 1)

    names: Optional[List[str]]
    if args.suite_names == "all":
        names = None
    else:
        names = [name.strip() for name in args.suite_names.split(",") if name.strip()]

    report: Dict[str, Any] = {
        "label": args.label,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
    }
    print("benchmarking executor ...", flush=True)
    # The compiled tier amortises per-run block binding over run length,
    # so the jit-on executor number is taken at a steady-state size.
    report["executor"] = bench_executor(
        args.iterations if args.no_jit else max(args.iterations, 400),
        args.repeats,
        jit=not args.no_jit,
    )
    print(f"  {report['executor']['instr_per_sec']:.0f} instr/s", flush=True)
    print("benchmarking engine ...", flush=True)
    report["engine"] = bench_engine(args.iterations, args.repeats, jit=not args.no_jit)
    print(f"  {report['engine']['instr_per_sec']:.0f} instr/s", flush=True)
    if args.no_jit:
        report["jit"] = None
        print("jit section skipped (--no-jit)", flush=True)
    else:
        print("benchmarking jit tier (interp vs compiled) ...", flush=True)
        try:
            # The tier amortises compile cost over run length; bench it at
            # a steady-state size even when --quick shrinks everything else.
            report["jit"] = bench_jit(
                max(args.iterations, 400), args.repeats, max(args.iterations, 400)
            )
            print(
                f"  executor {report['jit']['interp_instr_per_sec']:.0f} -> "
                f"{report['jit']['jit_instr_per_sec']:.0f} instr/s "
                f"({report['jit']['executor_speedup']:.2f}x, "
                f"identical={report['jit']['identical']}); engine "
                f"{report['jit']['engine_interp_instr_per_sec']:.0f} -> "
                f"{report['jit']['engine_jit_instr_per_sec']:.0f} instr/s "
                f"({report['jit']['engine_speedup']:.2f}x, "
                f"identical={report['jit']['engine_identical']})",
                flush=True,
            )
        except TypeError:  # revision without the compiled superblock tier
            report["jit"] = None
            print("  (jit tier not available in this revision)", flush=True)
    print("benchmarking tracing overhead ...", flush=True)
    try:
        report["tracing"] = bench_tracing_overhead(
            args.iterations, args.repeats, jit=not args.no_jit
        )
        print(
            f"  disabled {report['tracing']['disabled_instr_per_sec']:.0f} "
            f"instr/s, enabled {report['tracing']['enabled_instr_per_sec']:.0f} "
            f"instr/s ({report['tracing']['enabled_overhead_pct']:+.1f}%)",
            flush=True,
        )
    except TypeError:  # revision without the telemetry subsystem
        report["tracing"] = None
        print("  (telemetry not available in this revision)", flush=True)
    print(f"benchmarking suite (serial vs --jobs {args.jobs}) ...", flush=True)
    report["suite"] = bench_suite(args.iterations, names, args.jobs)
    suite = report["suite"]
    print(f"  serial {suite['serial_s']:.2f}s", flush=True)
    if suite.get("parallel_s"):
        print(
            f"  --jobs {suite['jobs']} {suite['parallel_s']:.2f}s "
            f"(speedup {suite['speedup']:.2f}x, "
            f"identical={suite['identical']})",
            flush=True,
        )

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
