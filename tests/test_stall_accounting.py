"""Regression tests for stall accounting and main-trap edge cases.

Covers two engine bugs fixed together:

* ``_stall_to_wall`` took free-form bucket strings and silently dropped
  time for unknown ones — the end-of-run drain stall (``"drain"``)
  vanished from ``StallBreakdown.total_ns``.  Buckets are now the
  :class:`repro.stats.StallBucket` enum and the accounting is total by
  construction.
* ``_handle_main_trap`` dereferenced ``self._segment.store_count`` with
  no guard; between a segment close and the next open the attribute is
  None and a main-core trap there crashed the simulator instead of
  recovering.
"""

from __future__ import annotations

import pytest

from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.core.engine import EngineOptions, SimulationEngine
from repro.isa.errors import InvalidPcTrap
from repro.lslog.detection import DetectionChannel
from repro.stats import StallBreakdown, StallBucket
from repro.workloads import build_bitcount


class TestStallBreakdown:
    def test_every_bucket_lands_in_total(self):
        stalls = StallBreakdown()
        for offset, bucket in enumerate(StallBucket):
            stalls.add(bucket, float(offset + 1))
        expected = sum(range(1, len(StallBucket) + 1))
        assert stalls.total_ns == pytest.approx(float(expected))

    def test_named_fields_match_buckets(self):
        stalls = StallBreakdown()
        stalls.add(StallBucket.DRAIN, 7.0)
        stalls.add(StallBucket.CHECKER_WAIT, 3.0)
        assert stalls.drain_ns == 7.0
        assert stalls.checker_wait_ns == 3.0
        assert stalls.total_ns == 10.0

    def test_unknown_bucket_fails_loudly(self):
        stalls = StallBreakdown()
        with pytest.raises(ValueError, match="stall bucket"):
            stalls.add("drain", 1.0)  # a string is not a bucket any more


def _engine(error_rate: float = 0.0, seed: int = 3) -> SimulationEngine:
    workload = build_bitcount(values=40)
    config = table1_config().with_error_rate(error_rate, seed=seed)
    system = ParaDoxSystem(config=config)
    return system.engine(workload, seed=seed)


class TestEngineStallAccounting:
    def test_stall_to_wall_fills_named_buckets(self):
        engine = _engine()
        engine._open_segment(engine.state.snapshot())
        for bucket in StallBucket:
            if bucket is StallBucket.CHECKPOINT:
                continue  # injected via block_commit, not _stall_to_wall
            engine._stall_to_wall(engine.wall_ns + 5.0, bucket)
        stalls = engine.stalls
        assert stalls.checker_wait_ns == pytest.approx(5.0)
        assert stalls.conflict_ns == pytest.approx(5.0)
        assert stalls.rollback_ns == pytest.approx(5.0)
        assert stalls.drain_ns == pytest.approx(5.0)
        assert stalls.total_ns == pytest.approx(20.0)

    def test_drain_stall_is_accounted_under_errors(self):
        # With a heavy error rate some detections resolve during the
        # final drain; that time must appear in the breakdown rather
        # than silently extending wall_ns.
        result = ParaDoxSystem(
            config=table1_config().with_error_rate(2e-3, seed=11)
        ).run(build_bitcount(values=200))
        assert result.errors_detected > 0
        assert result.stalls.total_ns >= result.stalls.drain_ns >= 0.0

    def test_summary_reports_drain(self):
        result = ParaDoxSystem().run(build_bitcount(values=40))
        assert "drain" in result.summary()


class TestMainTrapWithoutSegment:
    def test_trap_between_segments_recovers(self):
        engine = _engine()
        engine._open_segment(engine.state.snapshot())
        # Simulate the close/reopen window: no filling segment exists.
        engine._segment = None
        engine._pending.clear()
        engine._pending_detected = 0
        for _ in engine._handle_main_trap(InvalidPcTrap(10_000)):
            pass
        # Recovery recorded, nothing rolled back, and filling resumed.
        assert engine._segment is not None
        event = engine.recoveries[-1]
        assert event.channel is DetectionChannel.MAIN_TRAP
        assert event.rollback_entries == 0
        assert event.segments_rolled_back == 0
        assert event.rollback_ns == 0.0

    def test_unprotected_trap_still_raises(self):
        workload = build_bitcount(values=40)
        engine = SimulationEngine(
            workload.program,
            table1_config(),
            EngineOptions(checking=False),
        )
        with pytest.raises(RuntimeError, match="unprotected"):
            for _ in engine._handle_main_trap(InvalidPcTrap(10_000)):
                pass
