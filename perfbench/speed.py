"""Host speed, sampled between operations, for timings that stay steady.

The benchmark shares its host with other guests, whose load changes how
fast the same Python code runs by a fifth or more within seconds.  A
fixed piece of code, :func:`calibrate`, run between the operations of a
repetition on the same CPU, slows with the host much as the simulator
does: the time of an operation divided by the time of the calibrations
next to it varies less from run to run than the time itself.
:func:`reference_seconds` turns an operation's CPU seconds into seconds
at the host speed at which one calibration takes :data:`CALIBRATION_S`.

The calibration is the benchmark's own code, so a change to the
simulator never changes it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

#: CPU seconds one calibration takes on a quiet 2-core x86 host.
CALIBRATION_S = 0.015
#: Calibrations on each side of an operation whose mean sets its scale.
WINDOW = 2


class _Node:
    __slots__ = ("mix", "link")

    def __init__(self, mix: int, link: int) -> None:
        self.mix = mix
        self.link = link

    def step(self, x: int) -> int:
        return (x ^ self.mix) * 0x9E3779B1 & 0xFFFFFFFF


def calibrate(nodes: int = 4096, steps: int = 32000) -> float:
    """CPU seconds of a fixed mix of allocation, calls, list and dict work.

    It builds the objects it walks rather than reusing module-level
    ones, and holds the cyclic collector off, so its time does not
    depend on the calling process's heap: a collection would walk that
    heap, and after a fork touching objects shared with the child would
    copy pages.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        chain = [_Node(i * 2654435761 & 0xFFFFFFFF, i * 7919 % nodes) for i in range(nodes)]
        table = {}
        x = 1
        k = 0
        for _ in range(steps):
            node = chain[k]
            x = node.step(x)
            # Both terms are below ``nodes``, a power of two: k stays in range.
            k = node.link ^ (x & (nodes - 1))
            table[x & 0x3FFFF] = node
        return time.process_time() - start
    finally:
        if collecting:
            gc.enable()


def reference_seconds(op_s: Sequence[float], calibrations: Sequence[float]) -> List[float]:
    """Each operation's seconds at the reference host speed.

    ``calibrations[i]`` was taken next to operation ``i``; operation
    ``i`` is scaled by the mean of the calibrations within :data:`WINDOW`
    places of it.  The host flips between faster and slower states many
    times a second, so single calibrations scatter between two levels;
    their mean follows the share of time spent in each, which a median
    of a few would not.
    """
    if len(op_s) != len(calibrations):
        raise ValueError("one calibration per operation")
    return [
        seconds
        * CALIBRATION_S
        / statistics.fmean(calibrations[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, seconds in enumerate(op_s)
    ]


def setup_seconds(seconds: float, calibrations: Sequence[float]) -> float:
    """Set-up seconds at the reference speed, by the first operations' calibrations."""
    return seconds * CALIBRATION_S / statistics.fmean(calibrations[: 2 * WINDOW + 1])
