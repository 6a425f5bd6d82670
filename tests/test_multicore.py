"""Multi-main-core shared checker pool: invariants, determinism, fairness."""

import hashlib
import json
import threading
from dataclasses import asdict, replace

import pytest

from repro.config import table1_config
from repro.core import ParaDoxSystem, run_multicore
from repro.core.multicore import CoreSpec, MulticoreEngine
from repro.core.systems import BaselineSystem
from repro.resilience import CampaignSpec, run_campaign
from repro.resilience.campaign import execute_run
from repro.scheduling import POOL_POLICIES, PoolPolicy, SharedCheckerPool
from repro.stats.fairness import FairnessReport, gini, shares
from repro.store import run_key
from repro.store.runkey import canonical_cell
from repro.workloads import build_bitcount, build_crc32


def small_mix(seed=7):
    return [build_bitcount(values=48, seed=seed), build_crc32(length_words=24, seed=seed)]


def run_mix(policy, pool_size=4, seed=11, tracing=False):
    return run_multicore(
        small_mix(), policy=policy, pool_size=pool_size, seed=seed, tracing=tracing
    )


class TestSharedPoolInvariants:
    @pytest.mark.parametrize("policy", list(PoolPolicy))
    def test_no_two_mains_overlap_on_one_checker(self, policy):
        specs = [CoreSpec(workload=w) for w in small_mix()]
        harness = MulticoreEngine(specs, policy=policy, pool_size=2, seed=3)
        harness.run()
        by_core = {}
        for record in harness.pool.dispatches:
            by_core.setdefault(record.core_id, []).append(record)
        assert harness.pool.dispatches, "the mix must actually dispatch"
        for records in by_core.values():
            records.sort(key=lambda r: (r.start_ns, r.end_ns))
            for earlier, later in zip(records, records[1:]):
                assert earlier.end_ns <= later.start_ns + 1e-9

    def test_static_partition_never_crosses_the_fence(self):
        specs = [CoreSpec(workload=w) for w in small_mix()]
        harness = MulticoreEngine(
            specs, policy=PoolPolicy.STATIC, pool_size=4, seed=3
        )
        harness.run()
        for main_id in range(len(specs)):
            allowed = set(harness.pool._candidates[main_id])
            used = {
                r.core_id for r in harness.pool.dispatches if r.main_id == main_id
            }
            assert used <= allowed
            assert len(allowed) == 2  # 4 checkers split two ways

    def test_reservation_keeps_a_private_stripe(self):
        pool = SharedCheckerPool(2, 8, policy=PoolPolicy.RESERVATION)
        assert pool.reserved_per_main() == 2
        stripes = [
            set(pool._candidates[m][: pool.reserved_per_main()]) for m in range(2)
        ]
        assert stripes[0].isdisjoint(stripes[1])

    def test_boot_offset_rotates_every_policy(self):
        for policy in PoolPolicy:
            pool = SharedCheckerPool(2, 6, policy=policy, boot_offset=4)
            flat = [c for m in range(2) for c in pool._candidates[m]]
            assert set(flat) <= set(range(6))
            # Logical ID 0 is physical core 4 after rotation.
            assert pool._candidates[0][0] == 4

    def test_undersized_pool_rejected(self):
        with pytest.raises(ValueError):
            SharedCheckerPool(4, 2)

    def test_non_checking_system_rejected(self):
        specs = [CoreSpec(workload=w, system=BaselineSystem()) for w in small_mix()]
        with pytest.raises(ValueError):
            MulticoreEngine(specs, pool_size=4, seed=1)


class TestFairnessMetrics:
    def test_shares_sum_to_one(self):
        result = run_mix(PoolPolicy.WORK_STEALING)
        assert sum(result.fairness.dispatch_share) == pytest.approx(1.0)
        assert sum(result.fairness.busy_share) == pytest.approx(1.0)

    def test_gini_bounds_and_edge_cases(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0
        assert gini([5.0, 5.0, 5.0]) == pytest.approx(0.0)
        # All waiting concentrated on one of N mains approaches (N-1)/N.
        assert gini([10.0, 0.0]) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            gini([-1.0])

    def test_shares_of_nothing_stay_zero(self):
        assert shares([0.0, 0.0]) == [0.0, 0.0]

    def test_report_round_trips(self):
        result = run_mix(PoolPolicy.RESERVATION)
        data = result.fairness.to_dict()
        again = FairnessReport.from_dict(data)
        assert again.to_dict() == data


class TestDeterminism:
    @pytest.mark.parametrize("policy", list(PoolPolicy))
    def test_bit_identical_across_repeats(self, policy):
        first = run_mix(policy, pool_size=2)
        second = run_mix(policy, pool_size=2)
        assert first.to_dict() == second.to_dict()

    def test_contention_shows_up_as_checker_wait(self):
        # A pool of one checker per main under static split is the
        # single-core case; the shared timeline only diverges once the
        # mains actually compete for the same silicon.
        contended = run_mix(PoolPolicy.WORK_STEALING, pool_size=2)
        roomy = run_mix(PoolPolicy.WORK_STEALING, pool_size=16)
        assert sum(contended.fairness.wait_ns) >= sum(roomy.fairness.wait_ns)

    def test_every_core_completes(self):
        result = run_mix(PoolPolicy.WORK_STEALING)
        assert [r.outcome.value for r in result.results] == ["completed"] * 2


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def faulty_harness(policy, pool_size):
    """Two resilient cores at a fault rate that forces rollbacks and aborts."""
    config = table1_config()
    config = replace(config, fault=replace(config.fault, error_rate=1e-3))
    return MulticoreEngine(
        [CoreSpec(workload=w) for w in small_mix()],
        policy=policy,
        pool_size=pool_size,
        seed=11,
        tracing=True,
        default_system=ParaDoxSystem(config=config, resilient=True),
    )


CAMPAIGN_CELL = {
    "run_id": 0,
    "workload": "bitcount",
    "scale": 0.2,
    "seed": 1,
    "rate": 1e-3,
    "model": "transient",
    "dvs": True,
    "initial_margin": 0.05,
    "chip_seed": 0,
    "tracing": False,
}


class TestPinnedDigests:
    """Byte-identity of multicore results, pinned as SHA-256 digests.

    Repeat runs agreeing with each other cannot catch a change that
    reorders shared-pool calls; these digests were recorded from the
    thread-and-turnstile driver and every later driver must reproduce
    them exactly.
    """

    HARNESS = {
        ("static", 2): "274f7071ca4553f41f91070485631ecb1c1637fa3b8de8a8c4c4e7ae4abe1c9c",
        ("static", 4): "9135ee71d322fb7b285f1abd89721e6110ae72778dec48e774ba41cc01815448",
        ("steal", 2): "02981d61bff97ed2ed3fbb64b2d6f9c9855742920808c345b53a147daee8756c",
        ("steal", 4): "eaf1c3d44ff46f6d6d330f2782b6307edc8b45d1d53a684379d45e258af7a276",
        ("reserve", 2): "a0fe7e005d5693b36a6867bd4cd64307eb526edb8c13c875c884a8ca473a8885",
        ("reserve", 4): "edfcfccc94d7dfaa7089783814ec3be433815bcc45b2a4b19ebe3a86b5919094",
    }

    CAMPAIGN = {
        None: "8f42830fb466881edd4716dbb4e03922fb68e847e3dc1d3c90f96d0ca866a0df",
        "static": "c392b6a200baa72de35a0b5a52a0e9553508dd05120204b57d5fa9e13cac5672",
        "steal": "1619f96278c84920e7958e5551e44b9c1c5dcd107e2c1a3fa875617b27e6575d",
        "reserve": "172882820094f07d41125a75eea9b8027bba4be26d39ac4c4c1a75966eacc4db",
    }

    @staticmethod
    def harness_digest(policy, pool_size):
        harness = faulty_harness(policy, pool_size)
        result = harness.run()
        assert any(r.recoveries for r in result.results)
        return digest(
            {
                "result": result.to_dict(),
                "trace": result.trace,
                "dispatches": [asdict(d) for d in harness.pool.dispatches],
                "stalls": [asdict(r.stalls) for r in result.results],
            }
        )

    @staticmethod
    def campaign_digest(policy):
        cell = dict(CAMPAIGN_CELL)
        if policy is not None:
            cell.update(main_cores=2, pool_policy=policy)
        result = execute_run(cell)
        assert result["recoveries"] > 0
        del result["duration_s"]
        return digest(result)

    @pytest.mark.parametrize("pool_size", [2, 4])
    @pytest.mark.parametrize("policy", list(PoolPolicy))
    def test_harness_results(self, policy, pool_size):
        expected = self.HARNESS[(policy.value, pool_size)]
        assert self.harness_digest(policy, pool_size) == expected

    @pytest.mark.parametrize("policy", [None] + sorted(POOL_POLICIES))
    def test_campaign_cells(self, policy):
        assert self.campaign_digest(policy) == self.CAMPAIGN[policy]


class TestDriver:
    def test_runs_without_os_threads(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the multicore driver must not start threads")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = run_mix(PoolPolicy.WORK_STEALING, pool_size=2)
        assert [r.outcome.value for r in result.results] == ["completed"] * 2

    def test_engine_error_is_reraised_after_the_others_finish(self):
        harness = MulticoreEngine(
            [CoreSpec(workload=w) for w in small_mix()],
            policy=PoolPolicy.WORK_STEALING,
            pool_size=2,
            seed=11,
        )
        failing = harness.engines[1]
        real_check = failing._check
        calls = []

        def check(core, segment):
            calls.append(segment.seq)
            if len(calls) == 3:
                raise RuntimeError("checker exploded")
            return real_check(core, segment)

        failing._check = check
        with pytest.raises(RuntimeError, match="checker exploded"):
            harness.run()
        assert len(calls) == 3
        survivor = harness.engines[0]
        assert survivor.state.halted
        assert not survivor._pending
        assert all(r.main_id == 0 for r in harness.pool.dispatches[-3:])


class TestTelemetry:
    def test_multicore_events_emitted(self):
        result = run_mix(PoolPolicy.WORK_STEALING, tracing=True)
        assert result.trace
        assert all(event["src"] == "multicore" for event in result.trace)
        kinds = {event["kind"] for event in result.trace}
        assert {"core_done", "dispatch_share", "busy_share", "wait_ns", "wait_gini"} <= kinds
        # Events are JSONL-ready.
        json.dumps(result.trace)


class TestRunKeyStability:
    BASE = {
        "workload": "bitcount",
        "scale": 0.2,
        "seed": 1,
        "rate": 1e-4,
        "model": "transient",
        "dvs": True,
        "initial_margin": 0.05,
        "chip_seed": 0,
        "voltage": None,
        "tracing": False,
        "hook": None,
    }

    def test_single_core_cells_keep_their_keys(self):
        """main_cores=1 must hash exactly like a pre-multicore payload."""
        implicit = run_key(self.BASE)
        explicit = run_key({**self.BASE, "main_cores": 1})
        assert implicit == explicit
        assert "main_cores" not in canonical_cell(self.BASE)

    def test_multicore_cells_fork_the_key(self):
        multi = {**self.BASE, "main_cores": 2, "pool_policy": "static"}
        assert run_key(multi) != run_key(self.BASE)
        assert run_key(multi) != run_key({**multi, "pool_policy": "steal"})
        cell = canonical_cell(multi)
        assert cell["main_cores"] == 2 and cell["pool_policy"] == "static"


def multicore_spec(workers, policy="steal"):
    return CampaignSpec(
        seeds=1,
        scale=0.2,
        rates=(1e-4,),
        models=("transient",),
        timeout_s=120.0,
        workers=workers,
        main_cores=2,
        pool_policy=policy,
    )


class TestMulticoreCampaign:
    @pytest.mark.parametrize("policy", sorted(POOL_POLICIES))
    def test_campaign_runs_every_policy(self, policy):
        report = run_campaign(multicore_spec(workers=1, policy=policy))
        assert len(report.records) == 1
        record = report.records[0]
        assert record.run_class.value != "crash", record.detail
        assert record.fairness is not None
        assert sum(record.fairness["dispatch_share"]) == pytest.approx(1.0)
        assert len(record.fairness["wait_ns"]) == 2

    def test_bit_identical_at_any_workers_width(self):
        def rows(workers):
            report = run_campaign(multicore_spec(workers))
            return [
                (
                    r.run_id,
                    r.run_class,
                    r.outcome,
                    r.recoveries,
                    r.faults_injected,
                    r.instructions,
                    r.fairness,
                )
                for r in report.records
            ]

        assert rows(1) == rows(2)

    def test_record_round_trips_fairness(self):
        from repro.resilience.campaign import RunRecord

        report = run_campaign(multicore_spec(workers=1))
        record = report.records[0]
        again = RunRecord.from_dict(record.to_dict())
        assert again.fairness == record.fairness
        # Single-core records keep their golden dict shape.
        single = run_campaign(
            CampaignSpec(
                seeds=1, scale=0.2, rates=(1e-4,), models=("transient",), workers=1
            )
        ).records[0]
        assert "fairness" not in single.to_dict()

    def test_spec_dict_omits_multicore_fields_when_single(self):
        single = CampaignSpec(seeds=1, rates=(1e-4,), models=("transient",))
        assert "main_cores" not in single.to_dict()
        multi = multicore_spec(workers=1)
        assert multi.to_dict()["main_cores"] == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            multicore_spec(workers=1, policy="anarchy").expand()


class TestDiffcheckPerCore:
    def test_diffcheck_clean_for_each_mix_member(self):
        """Each main core replays its own program; the differential
        oracle must stay clean for every workload of the mix."""
        from repro.cli import main

        for name in ("bitcount", "crc32"):
            assert main(["diffcheck", name, "--scale", "0.2"]) == 0


class TestCliMulticore:
    def test_run_multicore_summary(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run", "bitcount,crc32", "--main-cores", "2",
                "--pool-policy", "static", "--scale", "0.2", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=static" in out
        assert "main0" in out and "main1" in out

    def test_timeline_rejected_multicore(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "bitcount", "--main-cores", "2", "--timeline"])
