"""Benchmark of the ParaDox simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``spec-suite`` — SPEC proxies on baseline, detection-only, ParaMedic
  and ParaDox, run inline as ``repro suite --jobs 1`` runs them.
* ``fault-campaign`` — store-backed single-core ``run_campaign`` over
  transient, burst, stuck-at and SRAM mixes, DVS warm-started below the
  safe voltage, telemetry on.
* ``shared-pool`` — the same campaign with two main cores sharing one
  checker pool (``steal`` policy), telemetry off.

``--trace 0`` runs repetitions of the workload, each in a fresh process
(cold caches), and prints the end-to-end metrics.  The repetition count
is the one that fills ``--seconds`` on the reference host (2 x86 cores),
so every run of a workload measures the same operation mix: three of the
suite, one of each campaign plus a short check repetition that runs its
first cells again.  Every process of the run shares one CPU.  Times are
CPU seconds, and operation times are scaled to a reference host speed
(:mod:`speed`): the repetition samples the host's speed with a fixed
calibration next to every operation, so load from other guests of a
shared host does not show as a change of the simulator.
``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics; every span is saved under ``.perfbench/``.

Operations are checked (program output against the golden run, every
campaign cell classified with no crash or watchdog kill, identical
simulated digests across repetitions).  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summary import (  # noqa: E402
    END_TO_END,
    FANOUT_WIDTH,
    per_layer_units,
    tail,
)

WORKLOADS = ("spec-suite", "fault-campaign", "shared-pool")

#: Seconds one timed repetition takes on the reference host.
REP_SECONDS = {"spec-suite": 10.0, "fault-campaign": 24.0, "shared-pool": 28.0}

CACHE_STATE = {
    "spec-suite": "cold per process: a fresh process per repetition; "
    "workload builds and superblock compiles fall inside the timed tasks",
    "fault-campaign": "cold per forked cell: each cell's worker builds its "
    "workload and compiles its superblocks afresh",
    "shared-pool": "cold per forked cell: each cell's worker builds its "
    "workload and compiles its superblocks afresh",
}

#: Wall-clock budget for the whole command, below the 180 s limit.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_rep(workload: str, seed: int, mode: str, out_dir: str, deadline: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    command = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--out-dir", out_dir,
        "--t0-ns", str(time.monotonic_ns()),
    ]
    # Its own process group, so a timeout also stops the campaign
    # workers it forked.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as expired:
        raise BenchError(f"{mode} repetition exceeded {timeout:.0f} s") from expired
    finally:
        # On a timeout, an interrupt or SIGTERM: stop the group, reap it.
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    if process.returncode != 0:
        raise BenchError(f"{mode} repetition exited {process.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def host() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def repetitions(workload: str, seconds: int) -> int:
    # The suite compares digests across its timed repetitions, so it
    # needs two; a campaign has its check repetition for that.
    least = 2 if workload == "spec-suite" else 1
    return max(least, round(seconds / REP_SECONDS[workload]))


def measure(workload: str, seed: int, seconds: int, out_dir: str, deadline: float) -> Dict[str, Any]:
    """``--trace 0``: timed repetitions and the end-to-end metrics."""
    reps = [
        run_rep(workload, seed, "timed", out_dir, deadline)
        for _ in range(repetitions(workload, seconds))
    ]
    op_s = [t for rep in reps for t in rep["op_s"]]
    timed_s = sum(rep["timed_s"] for rep in reps)
    # A repetition whose simulated results differ from the first's is
    # wrong somewhere: all of its operations count as failed.
    compared = [(rep, rep["digest"], reps[0]["digest"]) for rep in reps]
    if workload != "spec-suite":
        # A fresh process runs the campaign's first cells again.
        check = run_rep(workload, seed, "check", out_dir, deadline)
        compared.append((check, check["digest"], reps[0]["check_digest"]))
    attempted = failed = 0
    for rep, got, expected in compared:
        attempted += len(rep["op_s"])
        failed += len(rep["op_s"]) if got != expected else rep["failed"]
    rank = tail(op_s)
    if rank is None:
        raise BenchError(f"{len(op_s)} operations are too few for a tail percentile")
    wall_s = sum(rep["wall_s"] for rep in reps)
    metrics = {
        "setup_s": statistics.median([rep["setup_s"] for rep, _, _ in compared]),
        "ops_per_cpu_s": len(op_s) / timed_s,
        "op_cpu_s_p50": statistics.median(op_s),
        "op_cpu_s_tail": rank[1],
        "sim_instr_per_cpu_s": sum(rep["instructions"] for rep in reps) / timed_s,
        "peak_rss_mb": statistics.median([rep["peak_rss_mb"] for rep in reps]),
    }
    report = {
        "repetitions": len(reps),
        "operations": len(op_s),
        "checked_operations": attempted - len(op_s),
        "failed_frac": failed / attempted,
        "op_cpu_s_tail_percentile": rank[0],
        "op_cpu_s_tail_samples": len(op_s),
        # Unscaled figures, for reading the metrics against: CPU seconds
        # at the speed the host gave, and wall-clock seconds, which also
        # count the time other guests held the CPUs.
        "ops_per_unscaled_cpu_s": len(op_s) / sum(rep["cpu_s"] for rep in reps),
        "ops_per_wall_s": len(op_s) / wall_s,
        "setup_cpu_s": statistics.median([rep["setup_cpu_s"] for rep, _, _ in compared]),
        "setup_wall_s": statistics.median([rep["setup_wall_s"] for rep, _, _ in compared]),
        "digests": sorted({rep["digest"] for rep in reps}),
    }
    if workload != "spec-suite":
        report["check_digest"] = check["digest"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "report": report}


def trace(workload: str, seed: int, out_dir: str, deadline: float) -> Dict[str, Any]:
    """``--trace 1``: an untraced and a traced repetition of the same operations."""
    reference = run_rep(workload, seed, "reference", out_dir, deadline)
    traced = run_rep(workload, seed, "traced", out_dir, deadline)
    digests = {reference["digest"], traced["digest"]}
    if "campaign_digest" in traced:
        digests.add(traced["campaign_digest"])
    failed = traced["failed"] + reference["failed"]
    if len(digests) != 1:
        failed = traced["ops"]
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["timed_s"] / reference["timed_s"] - 1.0
    )
    report = {
        "traced_pass": (
            "the suite tasks in one fresh process"
            if workload == "spec-suite"
            else "the store-backed campaign (parent-side layers traced), then "
            "its first cells through execute_run in process, one after another"
        ),
        "operations": traced["ops"],
        "failed_frac": failed / traced["ops"],
        "digests": sorted(digests),
        "timed_digest": traced.get("timed_digest", traced["digest"]),
        "spans": traced["spans"],
    }
    return {"metrics": metrics, "attempted": traced["ops"], "failed": failed, "report": report}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running repetitions are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Every process of the run (repetitions and campaign workers inherit
    # this) on one CPU: the host-speed samples are then taken on the CPU
    # that does the work, and nothing of the run waits for a CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no simulator sources under src/repro", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, out_dir, deadline)
            units = per_layer_units()
        else:
            result = measure(args.workload, args.seed, args.seconds, out_dir, deadline)
            units = END_TO_END
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host(),
        "fanout_width": FANOUT_WIDTH,
        "main_cores": 2 if args.workload == "shared-pool" else 1,
        "cache_state": CACHE_STATE[args.workload],
        **result["report"],
    }
    print("report " + json.dumps(report, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {result['metrics'][name]!r:>24} {unit}")
    failed = result["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
