"""Workloads: bitcount, STREAM, and SPEC CPU2006 proxies."""

from .base import GoldenResult, Workload, golden_run
from .bitcount import build_bitcount, expected_popcount_total
from .kernels import (
    build_crc32,
    build_matmul,
    build_quicksort,
    crc32_reference,
    matmul_reference,
    quicksort_reference,
)
from .registry import WORKLOAD_BUILDERS, resolve_workload
from .spec import SPEC_ORDER, SPEC_PROFILES, build_spec_suite, build_spec_workload
from .stream import build_stream, expected_stream
from .synthetic import WorkloadProfile, build_synthetic

__all__ = [
    "GoldenResult",
    "SPEC_ORDER",
    "SPEC_PROFILES",
    "WORKLOAD_BUILDERS",
    "Workload",
    "WorkloadProfile",
    "build_bitcount",
    "build_crc32",
    "build_matmul",
    "build_quicksort",
    "build_spec_suite",
    "build_spec_workload",
    "build_stream",
    "build_synthetic",
    "crc32_reference",
    "expected_popcount_total",
    "expected_stream",
    "golden_run",
    "matmul_reference",
    "quicksort_reference",
    "resolve_workload",
]
