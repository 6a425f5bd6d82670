"""Workload names: resolve a CLI/campaign name plus a scale to a workload."""

from __future__ import annotations

from typing import Callable, Dict

from .base import Workload
from .bitcount import build_bitcount
from .kernels import build_crc32, build_matmul, build_quicksort
from .spec import SPEC_ORDER, build_spec_workload
from .stream import build_stream

#: Workload-name -> builder; SPEC proxies resolve through their own table.
WORKLOAD_BUILDERS: Dict[str, Callable[..., Workload]] = {
    "bitcount": lambda scale: build_bitcount(values=int(100 * scale)),
    "stream": lambda scale: build_stream(elements=256, passes=max(1, int(scale))),
    "matmul": lambda scale: build_matmul(n=max(4, int(10 * scale))),
    "quicksort": lambda scale: build_quicksort(elements=int(96 * scale)),
    "crc32": lambda scale: build_crc32(length_words=int(24 * scale)),
}


def resolve_workload(name: str, scale: float) -> Workload:
    if name in WORKLOAD_BUILDERS:
        return WORKLOAD_BUILDERS[name](scale)
    if name in SPEC_ORDER:
        return build_spec_workload(name, iterations=max(2, int(20 * scale)))
    known = ", ".join(list(WORKLOAD_BUILDERS) + SPEC_ORDER)
    raise SystemExit(f"unknown workload {name!r}; choose from: {known}")
