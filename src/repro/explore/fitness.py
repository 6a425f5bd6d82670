"""Multi-objective fitness: campaign records → an objective vector.

Three objectives, all **minimised** (see ``docs/EXPLORE.md`` for the
derivation and worked numbers):

``energy``
    Relative energy of the protected, undervolted system against the
    margined baseline: ``(P_main(V_mean) + P_checkers(wake rates)) *
    slowdown``, averaged over the runs that completed correctly.
    ``P_main`` follows the paper's section VI-E model (V^2 f dynamic
    plus static leakage, frequency scaling as ``V - V_th``); the
    checker pool adds its gated wake-rate-scaled share of the "never
    more than 5%" bound.  1.0 is the margined baseline; below 1.0 the
    genome is saving energy net of its slowdown.

``slowdown``
    Simulated wall time relative to the fault-free, checker-less
    baseline run of the same workload (cached per workload × scale —
    the baseline does not depend on the genome).

``failure_rate``
    Fraction of the campaign's runs that lost forward progress or
    correctness: the ``sdc`` + ``hang`` + ``crash`` share of the
    six-outcome taxonomy.

Runs that failed are excluded from the energy/slowdown means (their
wall clock is a watchdog artefact, not a measurement); a genome whose
every run failed gets the explicit :data:`PENALTY` vector so dominance
comparisons still order it behind anything that worked at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..power.model import (
    OperatingPoint,
    checker_pool_power,
    frequency_for_voltage,
    main_core_power,
)
from ..resilience.campaign import RunClass, RunRecord

#: Objective vector order (and the JSON report's key order).
OBJECTIVE_NAMES: Tuple[str, str, str] = ("energy", "slowdown", "failure_rate")

#: Assigned when a genome has no successful run to measure: strictly
#: worse than any physical measurement, so wholly-failing genomes are
#: dominated by anything that completes.
PENALTY: Dict[str, float] = {"energy": 8.0, "slowdown": 16.0, "failure_rate": 1.0}

#: Hypervolume reference point, in OBJECTIVE_NAMES order.  Slightly
#: beyond the penalty vector so even an all-penalty front has volume
#: and the generation trend is monotone non-decreasing from zero.
HYPERVOLUME_REFERENCE: Tuple[float, float, float] = (10.0, 20.0, 1.25)

_FAILED = frozenset({RunClass.SDC, RunClass.HANG, RunClass.CRASH})

_baseline_cache: Dict[Tuple[str, float], float] = {}


def baseline_wall_ns(workload_name: str, scale: float) -> float:
    """Fault-free baseline wall time for one workload, cached per process.

    The baseline is genome-independent (no checkers, no injection, no
    DVS), so one run per (workload, scale) serves the whole search.
    """
    key = (workload_name, float(scale))
    if key not in _baseline_cache:
        from ..core import BaselineSystem
        from ..workloads import resolve_workload

        workload = resolve_workload(workload_name, float(scale))
        result = BaselineSystem().run(workload, seed=0)
        _baseline_cache[key] = float(result.wall_ns)
    return _baseline_cache[key]


def objectives_from_records(
    records: Iterable[RunRecord], *, scale: float, nominal_voltage: float = 1.1
) -> Dict[str, float]:
    """Fold one genome's campaign records into its objective dict."""
    records = list(records)
    if not records:
        return dict(PENALTY)
    baseline = baseline_wall_ns(records[0].workload, float(scale))
    completed = [r for r in records if r.run_class not in _FAILED]
    failure_rate = 1.0 - len(completed) / len(records)
    if not completed:
        return {
            "energy": PENALTY["energy"],
            "slowdown": PENALTY["slowdown"],
            "failure_rate": round(failure_rate, 9),
        }
    slowdowns: List[float] = []
    energies: List[float] = []
    for record in completed:
        slowdown = record.wall_ns / baseline
        slowdowns.append(slowdown)
        voltage = float(record.mean_voltage)
        if voltage <= 0.0:
            # Pre-overrides records (or non-DVS runs) carry no voltage;
            # charge the nominal point, i.e. no undervolt saving.
            voltage = nominal_voltage
        nominal = OperatingPoint(nominal_voltage, 1.0)
        point = OperatingPoint(
            voltage, frequency_for_voltage(voltage, nominal_voltage, 1.0)
        )
        power = main_core_power(point, nominal) + checker_pool_power(
            record.wake_rates, gated=True
        )
        energies.append(power * slowdown)
    # round() pins the JSON text: the means are sums of platform-stable
    # float reprs in deterministic (run-id) order, but 9 digits is both
    # far beyond measurement meaning and immune to repr jitter.
    return {
        "energy": round(sum(energies) / len(energies), 9),
        "slowdown": round(sum(slowdowns) / len(slowdowns), 9),
        "failure_rate": round(failure_rate, 9),
    }


def objective_vector(objectives: Dict[str, float]) -> Tuple[float, ...]:
    """The dict as a tuple in :data:`OBJECTIVE_NAMES` order."""
    return tuple(float(objectives[name]) for name in OBJECTIVE_NAMES)
