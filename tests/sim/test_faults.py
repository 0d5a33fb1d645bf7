"""The fault-injection subsystem: schedule generation, the fault phase,
the reject-and-repair validator, the DP search budget's greedy fallback,
and the faults-disabled golden-parity guarantee."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import EMPTY_ALLOCATION, Allocation
from repro.cluster.cluster import Cluster, simulated_cluster
from repro.cluster.node import Node
from repro.cluster.state import ClusterState
from repro.analysis.sanitizer import InvariantSanitizer
from repro.core import HadarScheduler
from repro.core.dp import DPConfig
from repro.core.scheduler import HadarConfig
from repro.faults import (
    DEGRADE,
    DEGRADE_END,
    FAIL,
    PARTITION,
    PARTITION_HEAL,
    RECOVER,
    STORAGE,
    DecisionRejected,
    DecisionValidator,
    FaultEvent,
    FaultModel,
    FaultPhase,
    FaultSchedule,
)
from repro.sim.engine import simulate
from repro.sim.interface import SchedulerProtocolError
from repro.sim.progress import JobRuntime, JobState, ProgressLedger
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace

from tests._hostile_env import hostile_environment
from tests.conftest import make_job
from tests.core._hotpath_fingerprint import (
    SCHEDULER_NAMES,
    SEEDS,
    digest,
    fingerprint,
    run_scenario,
)

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "core" / "golden_hotpath.json").read_text()
)


def two_node_cluster() -> Cluster:
    return Cluster([Node(0, {"V100": 4, "K80": 2}), Node(1, {"V100": 2})])


def running(job_id: int, alloc: Allocation, *, done: float = 500.0,
            checkpoint: float = 300.0, rate: float = 10.0) -> JobRuntime:
    rt = JobRuntime(job=make_job(job_id, epochs=1, iters_per_epoch=1000))
    rt.state = JobState.RUNNING
    rt.allocation = alloc
    rt.iterations_done = done
    rt.checkpoint_iterations = checkpoint
    rt.rate = rate
    return rt


# -- the model: seeded, order-independent schedule generation -----------------


class TestFaultModel:
    def test_same_seed_same_schedule(self):
        model = FaultModel(node_mtbf_h=8.0, gpu_mtbf_h=100.0, mttr_s=300.0, seed=7)
        cluster = simulated_cluster()
        assert model.build_schedule(cluster) == model.build_schedule(cluster)

    def test_different_seed_different_schedule(self):
        cluster = simulated_cluster()
        a = FaultModel(node_mtbf_h=8.0, seed=7).build_schedule(cluster)
        b = FaultModel(node_mtbf_h=8.0, seed=8).build_schedule(cluster)
        assert a != b

    def test_all_rates_zero_empty_schedule(self):
        model = FaultModel()
        assert not model.enabled
        assert len(model.build_schedule(simulated_cluster())) == 0

    def test_events_sorted_fail_before_recover(self):
        model = FaultModel(node_mtbf_h=4.0, gpu_mtbf_h=50.0, mttr_s=600.0, seed=3)
        events = model.build_schedule(simulated_cluster()).events
        keys = [
            (ev.time, 0 if ev.kind == FAIL else 1, ev.node_id, ev.fault_id)
            for ev in events
        ]
        assert keys == sorted(keys)

    def test_recovery_pairs_with_its_failure(self):
        schedule = FaultModel(
            gpu_mtbf_h=30.0, mttr_s=600.0, seed=5
        ).build_schedule(simulated_cluster())
        failures = {ev.fault_id: ev for ev in schedule.failures}
        for rec in schedule.recoveries:
            fail = failures[rec.fault_id]
            assert rec.time > fail.time
            assert (rec.node_id, rec.gpu_type) == (fail.node_id, fail.gpu_type)
            assert not fail.permanent

    def test_max_time_caps_horizon(self):
        model = FaultModel(node_mtbf_h=2.0, seed=1)
        capped = model.build_schedule(simulated_cluster(), max_time=24 * 3600.0)
        assert all(ev.time < 24 * 3600.0 for ev in capped)


class TestFromSpec:
    def test_full_spec(self):
        model = FaultModel.from_spec(
            "node_mtbf_h=24, gpu_mtbf_h=100, mttr_min=10, permanent=0.05, seed=7"
        )
        assert model == FaultModel(
            node_mtbf_h=24.0, gpu_mtbf_h=100.0, mttr_s=600.0,
            permanent_fraction=0.05, seed=7,
        )

    def test_horizon_hours(self):
        assert FaultModel.from_spec("gpu_mtbf_h=10,horizon_h=2").horizon_s == 7200.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultModel.from_spec("mtbf=3")

    def test_not_key_value_rejected(self):
        with pytest.raises(ValueError, match="not key=value"):
            FaultModel.from_spec("node_mtbf_h")

    def test_model_validation_applies(self):
        with pytest.raises(ValueError, match="mttr_s must be positive"):
            FaultModel.from_spec("node_mtbf_h=8,mttr_s=0")
        with pytest.raises(ValueError, match="non-negative"):
            FaultModel(node_mtbf_h=-1.0)
        with pytest.raises(ValueError, match="permanent_fraction"):
            FaultModel(permanent_fraction=1.5)

    def test_domain_and_degrade_keys(self):
        model = FaultModel.from_spec(
            "partition_mtbf_h=6,partition_duration_min=20,failure_domains=3,"
            "partition_policy=preempt,degraded_mtbf_h=12,degraded_factor=0.4,"
            "healing_window_s=600,healing_factor=0.8,"
            "storage_mtbf_h=48,storage_tiers=2,seed=3"
        )
        assert model == FaultModel(
            partition_mtbf_h=6.0, partition_duration_s=1200.0,
            failure_domains=3, partition_policy="preempt",
            degraded_mtbf_h=12.0, degraded_factor=0.4,
            healing_window_s=600.0, healing_factor=0.8,
            storage_mtbf_h=48.0, storage_tiers=2, seed=3,
        )

    def test_partitions_need_domains(self):
        with pytest.raises(ValueError, match="failure_domains >= 2"):
            FaultModel.from_spec("partition_mtbf_h=6")
        with pytest.raises(ValueError, match="partition_policy"):
            FaultModel(partition_policy="panic")
        with pytest.raises(ValueError, match="degraded_factor"):
            FaultModel(degraded_factor=1.5)


# -- the phase: capacity, preemption, rollback, recovery ----------------------


def make_phase(cluster: Cluster, events: tuple[FaultEvent, ...],
               **kwargs) -> FaultPhase:
    phase = FaultPhase(FaultModel(), cluster, **kwargs)
    phase.schedule = FaultSchedule(events=events)
    return phase


class TestFaultPhase:
    def test_node_failure_takes_every_slot_on_the_node(self):
        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type=None, kind=FAIL, fault_id=0),
        ))
        phase.apply(0, ProgressLedger({}), state, 10.0)
        assert state.capacity(0, "V100") == 0
        assert state.capacity(0, "K80") == 0
        assert state.capacity(1, "V100") == 2  # other node untouched
        assert phase.failed == {(0, "V100"): 4, (0, "K80"): 2}
        assert phase.capacity_lost == 6
        assert phase.stats["node_faults"] == 1

    def test_gangs_on_failed_devices_roll_back_to_checkpoint(self):
        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        victim = running(1, Allocation.single(0, "V100", 2))
        bystander = running(2, Allocation.single(1, "V100", 2))
        state.allocate(victim.allocation)
        state.allocate(bystander.allocation)
        ledger = ProgressLedger({1: victim, 2: bystander})
        phase = make_phase(cluster, (
            FaultEvent(time=50.0, node_id=0, gpu_type=None, kind=FAIL, fault_id=0),
        ))
        preempted = phase.apply(0, ledger, state, 50.0)
        assert preempted
        assert victim.state is JobState.QUEUED
        assert victim.allocation is EMPTY_ALLOCATION
        assert victim.iterations_done == victim.checkpoint_iterations == 300.0
        assert victim.rollbacks == 1 and victim.failures == 1
        assert victim.rollback_iterations == pytest.approx(200.0)
        assert victim.rollback_seconds == pytest.approx(20.0)  # 200 iters @ 10/s
        assert bystander.state is JobState.RUNNING  # not touched
        assert phase.rollback_seconds == pytest.approx(20.0)
        assert phase.stats["rollbacks"] == 1

    def test_rollback_bumps_both_staleness_counters(self):
        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        victim = running(1, Allocation.single(0, "K80", 1))
        state.allocate(victim.allocation)
        gen, epoch = victim.generation, victim.alloc_epoch
        phase = make_phase(cluster, (
            FaultEvent(time=5.0, node_id=0, gpu_type="K80", kind=FAIL,
                       fault_id=0, count=2),
        ))
        phase.apply(0, ProgressLedger({1: victim}), state, 5.0)
        assert victim.generation == gen + 1
        assert victim.alloc_epoch == epoch + 1

    def test_overlapping_windows_never_over_restore(self):
        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type="V100", kind=FAIL,
                       fault_id=0, count=2),
            FaultEvent(time=20.0, node_id=0, gpu_type=None, kind=FAIL, fault_id=1),
            FaultEvent(time=30.0, node_id=0, gpu_type="V100", kind=RECOVER,
                       fault_id=0),
            FaultEvent(time=40.0, node_id=0, gpu_type=None, kind=RECOVER,
                       fault_id=1),
        ))
        ledger = ProgressLedger({})
        phase.apply(0, ledger, state, 10.0)
        assert state.capacity(0, "V100") == 2
        phase.apply(1, ledger, state, 20.0)  # node loss takes the 2 survivors
        assert state.capacity(0, "V100") == 0
        assert state.capacity(0, "K80") == 0
        phase.apply(2, ledger, state, 30.0)  # restores exactly fault 0's 2
        assert state.capacity(0, "V100") == 2
        phase.apply(3, ledger, state, 40.0)
        assert state.capacity(0, "V100") == 4
        assert state.capacity(0, "K80") == 2
        assert phase.failed == {}
        assert phase.stats["recoveries"] == 2

    def test_permanent_failure_never_restores(self):
        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=1, gpu_type="V100", kind=FAIL,
                       fault_id=0, permanent=True, count=1),
        ))
        phase.apply(0, ProgressLedger({}), state, 10.0)
        assert state.capacity(1, "V100") == 1
        assert phase.stats["permanent_faults"] == 1
        assert phase._taken == {}  # nothing recorded, nothing to restore

    def test_emit_records_conform_to_schema(self):
        from repro.obs.schema import TRACE_SCHEMA_VERSION, validate_record

        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        victim = running(3, Allocation.single(0, "V100", 1))
        state.allocate(victim.allocation)
        records: list[dict] = []
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type=None, kind=FAIL, fault_id=0),
            FaultEvent(time=20.0, node_id=0, gpu_type=None, kind=RECOVER,
                       fault_id=0),
        ), emit=records.append)
        ledger = ProgressLedger({3: victim})
        phase.apply(0, ledger, state, 10.0)
        phase.apply(1, ledger, state, 20.0)
        assert [r["kind"] for r in records] == [
            "job_rollback", "gpu_failed", "gpu_recovered",
        ]
        for record in records:
            validate_record({"schema": TRACE_SCHEMA_VERSION, **record})
        assert records[1]["preempted"] == [3]


# -- sanitizer hooks ----------------------------------------------------------


class TestSanitizerHooks:
    def test_clean_rollback_passes(self):
        cluster = two_node_cluster()
        state = ClusterState.from_cluster(cluster)
        victim = running(1, Allocation.single(0, "V100", 1))
        state.allocate(victim.allocation)
        sanitizer = InvariantSanitizer()
        phase = make_phase(cluster, (
            FaultEvent(time=5.0, node_id=0, gpu_type="V100", kind=FAIL,
                       fault_id=0, count=4),
        ), sanitizer=sanitizer)
        phase.apply(0, ProgressLedger({1: victim}), state, 5.0)
        assert phase.stats["rollbacks"] == 1  # check_rollback actually ran
        assert sanitizer.ok

    def test_availability_catches_gang_on_failed_device(self):
        ghost = running(1, Allocation.single(0, "V100", 3))
        fine = ClusterState({(0, "V100"): 3})  # 3 held, 3 survive
        sanitizer = InvariantSanitizer(mode="collect")
        sanitizer.check_availability(fine, [ghost], {(0, "V100"): 1})
        assert sanitizer.ok
        shrunk = ClusterState({(0, "V100"): 2})  # capacity fell under the gang
        sanitizer.check_availability(shrunk, [ghost], {(0, "V100"): 2})
        assert not sanitizer.ok
        assert sanitizer.violations[0].rule == "availability"

    def test_availability_checks_nominal_bookkeeping(self):
        state = ClusterState.from_cluster(two_node_cluster())
        nominal = {slot: state.capacity(*slot) for slot in state.slots}
        sanitizer = InvariantSanitizer(mode="collect")
        sanitizer.check_availability(state, [], {}, nominal=nominal)
        assert sanitizer.ok
        # Claim a device failed without removing it from capacity.
        sanitizer.check_availability(state, [], {(0, "K80"): 1}, nominal=nominal)
        assert not sanitizer.ok

    def test_rollback_check_rejects_invented_progress(self):
        rt = running(1, EMPTY_ALLOCATION, done=300.0, checkpoint=300.0)
        sanitizer = InvariantSanitizer(mode="collect")
        sanitizer.check_rollback(rt, remaining_before=700.0)
        assert sanitizer.ok
        # remaining_before says 900 were left; sitting at 300 done means
        # only 700 remain now — the "rollback" created 200 iterations.
        sanitizer.check_rollback(rt, remaining_before=900.0)
        assert [v.rule for v in sanitizer.violations] == ["rollback"]

    def test_rollback_check_rejects_progress_behind_checkpoint(self):
        rt = running(1, EMPTY_ALLOCATION, done=100.0, checkpoint=300.0)
        sanitizer = InvariantSanitizer(mode="collect")
        sanitizer.check_rollback(rt, remaining_before=900.0)
        assert any(
            "behind the checkpoint" in str(v) for v in sanitizer.violations
        )

    def test_degraded_rate_must_stay_in_zero_nominal(self):
        rt = running(1, Allocation.single(0, "V100", 1), rate=5.0)
        sanitizer = InvariantSanitizer(mode="collect")
        sanitizer.check_degraded_rate(rt, cap_rate=10.0)
        assert sanitizer.ok  # throttled below nominal: fine
        rt.rate = 12.0  # "degradation" sped the gang up
        sanitizer.check_degraded_rate(rt, cap_rate=10.0)
        rt.rate = 0.0  # throttled all the way to a stall
        sanitizer.check_degraded_rate(rt, cap_rate=10.0)
        assert [v.rule for v in sanitizer.violations] == [
            "degraded-rate", "degraded-rate",
        ]

    def test_partition_stall_check_catches_progress_across_the_cut(self):
        stalled = running(1, Allocation.single(0, "V100", 1), rate=0.0)
        leaky = running(2, Allocation.single(0, "V100", 1), rate=3.0)
        sanitizer = InvariantSanitizer(mode="collect")
        sanitizer.check_partition_stall([1], {1: stalled, 2: leaky})
        assert sanitizer.ok
        sanitizer.check_partition_stall([1, 2], {1: stalled, 2: leaky})
        assert [v.rule for v in sanitizer.violations] == ["partition-stall"]
        assert sanitizer.violations[0].job_id == 2


# -- failure domains, degraded mode, storage, live reload ---------------------


def spanning_and_inside(cluster):
    """A gang spanning nodes 0-1 and a gang fully inside node 0."""
    spanning = running(1, Allocation({(0, "V100"): 2, (1, "V100"): 2}))
    inside = running(2, Allocation.single(0, "V100", 2))
    state = ClusterState.from_cluster(cluster)
    state.allocate(spanning.allocation)
    state.allocate(inside.allocation)
    return spanning, inside, state


PARTITION_EVENTS = (
    FaultEvent(time=10.0, node_id=-1, gpu_type=None, kind=PARTITION,
               fault_id=0, domain=0, nodes=(0,)),
    FaultEvent(time=50.0, node_id=-1, gpu_type=None, kind=PARTITION_HEAL,
               fault_id=0, domain=0, nodes=(0,)),
)


class TestPartitions:
    def test_spanning_gang_stalls_inside_gang_keeps_running(self, matrix):
        cluster = two_node_cluster()
        spanning, inside, state = spanning_and_inside(cluster)
        ledger = ProgressLedger({1: spanning, 2: inside})
        phase = make_phase(cluster, PARTITION_EVENTS, matrix=matrix)
        changed = phase.apply(0, ledger, state, 10.0)
        assert not changed  # nothing preempted under the stall policy
        assert spanning.rate == 0.0
        assert spanning.state is JobState.RUNNING  # kept, not evicted
        assert inside.rate == 10.0  # fully inside the cut: unaffected
        assert phase.stalled_jobs == frozenset({1})
        assert phase.unreachable_nodes == frozenset({0})
        assert phase.stats["partitions"] == 1
        assert phase.stats["gangs_stalled"] == 1

    def test_heal_resumes_the_stalled_gang(self, matrix):
        from repro.sim.interface import realized_rate

        cluster = two_node_cluster()
        spanning, inside, state = spanning_and_inside(cluster)
        ledger = ProgressLedger({1: spanning, 2: inside})
        phase = make_phase(cluster, PARTITION_EVENTS, matrix=matrix)
        phase.apply(0, ledger, state, 10.0)
        phase.apply(1, ledger, state, 50.0)
        expected = realized_rate(
            spanning.job, spanning.allocation, matrix, cluster
        )
        assert spanning.rate == pytest.approx(expected)
        assert phase.stalled_jobs == frozenset()
        assert phase.unreachable_nodes == frozenset()
        assert phase.stats["partition_heals"] == 1

    def test_preempt_policy_rolls_the_spanning_gang_back(self, matrix):
        cluster = two_node_cluster()
        spanning, inside, state = spanning_and_inside(cluster)
        ledger = ProgressLedger({1: spanning, 2: inside})
        phase = FaultPhase(
            FaultModel(partition_policy="preempt"), cluster, matrix=matrix
        )
        phase.schedule = FaultSchedule(events=PARTITION_EVENTS)
        changed = phase.apply(0, ledger, state, 10.0)
        assert changed
        assert spanning.state is JobState.QUEUED
        assert spanning.allocation is EMPTY_ALLOCATION
        assert spanning.iterations_done == spanning.checkpoint_iterations
        assert inside.state is JobState.RUNNING

    def test_partition_records_conform_to_schema(self, matrix):
        from repro.obs.schema import TRACE_SCHEMA_VERSION, validate_record

        cluster = two_node_cluster()
        spanning, inside, state = spanning_and_inside(cluster)
        ledger = ProgressLedger({1: spanning, 2: inside})
        records: list[dict] = []
        phase = make_phase(
            cluster, PARTITION_EVENTS, matrix=matrix, emit=records.append
        )
        phase.apply(0, ledger, state, 10.0)
        phase.apply(1, ledger, state, 50.0)
        assert [r["kind"] for r in records] == [
            "network_partition", "partition_healed",
        ]
        assert records[0]["stalled"] == [1] and records[0]["preempted"] == []
        assert records[1]["resumed"] == [1]
        for record in records:
            validate_record({"schema": TRACE_SCHEMA_VERSION, **record})

    def test_domains_are_seeded_and_cover_the_cluster(self):
        cluster = simulated_cluster()
        model = FaultModel(
            partition_mtbf_h=6.0, failure_domains=3, seed=11
        )
        domains = model.domains(cluster)
        assert domains == model.domains(cluster)  # pure function of seed
        assert len(domains) == 3
        members = sorted(n for group in domains for n in group)
        assert members == sorted(node.node_id for node in cluster.nodes)


class TestDegradedMode:
    def test_degrade_throttles_without_evicting(self, matrix):
        from repro.sim.interface import realized_rate

        cluster = two_node_cluster()
        spanning, inside, state = spanning_and_inside(cluster)
        ledger = ProgressLedger({1: spanning, 2: inside})
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type=None, kind=DEGRADE,
                       fault_id=0, rate_factor=0.5),
            FaultEvent(time=40.0, node_id=0, gpu_type=None, kind=DEGRADE_END,
                       fault_id=0, rate_factor=1.0),
        ), matrix=matrix)
        phase.apply(0, ledger, state, 10.0)
        for rt in (spanning, inside):  # both have a worker on node 0
            base = realized_rate(rt.job, rt.allocation, matrix, cluster)
            assert rt.rate == pytest.approx(base * 0.5)
            assert rt.state is JobState.RUNNING
            assert rt.allocation is not EMPTY_ALLOCATION
        assert phase.node_factor(0) == 0.5
        assert phase.stats["degraded_windows"] == 1
        phase.apply(1, ledger, state, 40.0)
        assert phase.node_factor(0) == 1.0
        base = realized_rate(inside.job, inside.allocation, matrix, cluster)
        assert inside.rate == pytest.approx(base)

    def test_gang_runs_at_its_slowest_worker(self, matrix):
        cluster = two_node_cluster()
        spanning, _, state = spanning_and_inside(cluster)
        ledger = ProgressLedger({1: spanning})
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type=None, kind=DEGRADE,
                       fault_id=0, rate_factor=0.8),
            FaultEvent(time=20.0, node_id=1, gpu_type=None, kind=DEGRADE,
                       fault_id=1, rate_factor=0.4),
        ), matrix=matrix)
        phase.apply(0, ledger, state, 10.0)
        phase.apply(1, ledger, state, 20.0)
        assert phase.gang_factor(spanning) == 0.4  # min across its nodes

    def test_recovery_healing_window_throttles_the_repaired_node(self, matrix):
        cluster = two_node_cluster()
        victim = running(1, Allocation.single(0, "V100", 2))
        state = ClusterState.from_cluster(cluster)
        state.allocate(victim.allocation)
        ledger = ProgressLedger({1: victim})
        records: list[dict] = []
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type=None, kind=FAIL,
                       fault_id=0),
            FaultEvent(time=30.0, node_id=0, gpu_type=None, kind=RECOVER,
                       fault_id=0, rate_factor=0.7, heal_s=600.0),
            FaultEvent(time=630.0, node_id=0, gpu_type=None, kind=DEGRADE_END,
                       fault_id=0, rate_factor=1.0),
        ), matrix=matrix, emit=records.append)
        phase.apply(0, ledger, state, 10.0)
        phase.apply(1, ledger, state, 30.0)
        assert phase.node_factor(0) == 0.7  # repaired but still healing
        healing = [r for r in records if r.get("healing")]
        assert healing and healing[0]["factor"] == 0.7
        phase.apply(2, ledger, state, 630.0)
        assert phase.node_factor(0) == 1.0

    def test_healing_windows_are_generated_with_recoveries(self):
        model = FaultModel(
            node_mtbf_h=4.0, mttr_s=600.0, healing_window_s=900.0,
            healing_factor=0.7, seed=3,
        )
        events = model.build_schedule(simulated_cluster()).events
        healing = [
            ev for ev in events
            if ev.kind == RECOVER and ev.rate_factor < 1.0
        ]
        assert healing
        closers = {
            ev.fault_id for ev in events if ev.kind == DEGRADE_END
        }
        for rec in healing:
            assert 0.7 <= rec.rate_factor < 1.0
            assert rec.heal_s > 0
            assert rec.fault_id in closers


class TestStorageLoss:
    def test_running_gang_rolls_back_to_zero(self, matrix):
        cluster = two_node_cluster()
        victim = running(1, Allocation.single(0, "V100", 2))
        state = ClusterState.from_cluster(cluster)
        state.allocate(victim.allocation)
        ledger = ProgressLedger({1: victim})
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=-1, gpu_type=None, kind=STORAGE,
                       fault_id=0, tier=0),
        ), matrix=matrix)
        changed = phase.apply(0, ledger, state, 10.0)
        assert changed
        assert victim.state is JobState.QUEUED
        assert victim.checkpoint_iterations == 0.0
        assert victim.iterations_done == 0.0  # no checkpoint left to keep
        assert phase.stats["storage_losses"] == 1

    def test_queued_job_loses_its_resume_point(self):
        cluster = two_node_cluster()
        rt = running(1, EMPTY_ALLOCATION)
        rt.state = JobState.QUEUED
        rt.allocation = EMPTY_ALLOCATION
        state = ClusterState.from_cluster(cluster)
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=-1, gpu_type=None, kind=STORAGE,
                       fault_id=0, tier=0),
        ))
        phase.apply(0, ProgressLedger({1: rt}), state, 10.0)
        assert rt.iterations_done == rt.checkpoint_iterations == 0.0
        assert rt.rollbacks == 1

    def test_other_tiers_are_untouched(self):
        cluster = two_node_cluster()
        hit = running(2, EMPTY_ALLOCATION)    # 2 % 2 == tier 0
        spared = running(1, EMPTY_ALLOCATION)  # 1 % 2 == tier 1
        for rt in (hit, spared):
            rt.state = JobState.QUEUED
            rt.allocation = EMPTY_ALLOCATION
        phase = FaultPhase(FaultModel(storage_tiers=2), cluster)
        phase.schedule = FaultSchedule(events=(
            FaultEvent(time=10.0, node_id=-1, gpu_type=None, kind=STORAGE,
                       fault_id=0, tier=0),
        ))
        state = ClusterState.from_cluster(cluster)
        phase.apply(0, ProgressLedger({1: spared, 2: hit}), state, 10.0)
        assert hit.iterations_done == 0.0
        assert spared.iterations_done == 500.0


class TestLiveReload:
    def reload_phase(self, matrix):
        cluster = two_node_cluster()
        phase = make_phase(cluster, (
            FaultEvent(time=10.0, node_id=0, gpu_type="V100", kind=FAIL,
                       fault_id=0, count=2),
            FaultEvent(time=100.0, node_id=0, gpu_type=None, kind=FAIL,
                       fault_id=1),
            FaultEvent(time=200.0, node_id=0, gpu_type="V100", kind=RECOVER,
                       fault_id=0),
        ), matrix=matrix)
        return cluster, phase

    def test_reload_splices_a_future_epoch(self, matrix):
        from repro.sim.kernel import EventKernel

        cluster, phase = self.reload_phase(matrix)
        kernel = EventKernel()
        info = phase.reload("node_mtbf_h=8,mttr_min=10,seed=9", kernel, 50.0)
        assert info["epoch"] == phase.epoch == 1
        assert info["events"] > 0
        # Only strictly-future events of the new epoch entered the kernel.
        assert all(
            ev.time > 50.0
            for ev in phase._schedules[1].events[: info["events"]]
        )
        # New epoch's fault ids never collide with the old epoch's.
        old_ids = {ev.fault_id for ev in phase._schedules[0].events}
        new_ids = {ev.fault_id for ev in phase._schedules[1].events}
        assert not old_ids & new_ids

    def test_superseded_openers_drop_open_windows_still_close(self, matrix):
        from repro.sim.kernel import EventKernel

        cluster, phase = self.reload_phase(matrix)
        state = ClusterState.from_cluster(cluster)
        ledger = ProgressLedger({})
        phase.apply(0, ledger, state, 10.0)  # fault 0 opens pre-reload
        assert state.capacity(0, "V100") == 2
        phase.reload("gpu_mtbf_h=100,seed=9", EventKernel(), 50.0)
        # The old epoch's future opener is stale; its open window is not.
        assert phase.apply(1, ledger, state, 100.0) is False
        assert phase.stats["stale_fault_events"] == 1
        assert state.capacity(0, "V100") == 2  # the stale FAIL took nothing
        phase.apply(2, ledger, state, 200.0)
        assert state.capacity(0, "V100") == 4  # fault 0's RECOVER applied
        assert phase.stats["recoveries"] == 1

    def test_reload_replays_through_state_dict(self, matrix):
        from repro.sim.kernel import EventKernel

        cluster, phase = self.reload_phase(matrix)
        phase.reload("node_mtbf_h=8,seed=9", EventKernel(), 50.0)
        twin = make_phase(cluster, tuple(phase._schedules[0].events),
                          matrix=matrix)
        twin.load_state_dict(phase.state_dict())
        assert twin.epoch == phase.epoch
        assert twin._schedules[1].events == phase._schedules[1].events


# -- the validator: strict raises, repair drops -------------------------------


class TestDecisionValidator:
    def setup_method(self):
        self.cluster = two_node_cluster()
        self.rt = JobRuntime(job=make_job(1, workers=2))
        self.rt.state = JobState.QUEUED
        self.runtimes = {1: self.rt}

    def probe(self) -> ClusterState:
        return ClusterState.from_cluster(self.cluster)

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="strict.*repair"):
            DecisionValidator("lenient")

    def test_strict_raises_legacy_protocol_error(self):
        validator = DecisionValidator("strict")
        with pytest.raises(SchedulerProtocolError, match="unknown job id 99"):
            validator.check({99: EMPTY_ALLOCATION}, self.runtimes, self.probe())

    def test_repair_drops_and_classifies(self):
        validator = DecisionValidator("repair")
        done = JobRuntime(job=make_job(2, workers=1))
        done.state = JobState.COMPLETE
        pending = JobRuntime(job=make_job(3, workers=1))
        runtimes = {1: self.rt, 2: done, 3: pending}
        nominal = {slot: 4 if slot == (0, "V100") else 2
                   for slot in self.probe().slots}
        target = {
            99: EMPTY_ALLOCATION,                       # unknown_job
            2: Allocation.single(1, "V100", 1),         # completed_job
            3: Allocation.single(1, "V100", 1),         # not_arrived
            1: Allocation.single(0, "V100", 1),         # bad_gang (W_j = 2)
        }
        repaired = validator.check(target, runtimes, self.probe(), nominal=nominal)
        assert repaired == {}
        assert sorted(r.reason for r in validator.rejections) == [
            "bad_gang", "completed_job", "not_arrived", "unknown_job",
        ]
        assert all(r.repaired for r in validator.rejections)

    def test_capacity_reasons(self):
        nominal = {(0, "V100"): 4, (0, "K80"): 2, (1, "V100"): 2}
        cases = [
            (Allocation.single(7, "V100", 2), "nonexistent_gpu", None),
            (Allocation.single(0, "V100", 6), "overcommit", None),
            (Allocation.single(0, "V100", 4), "failed_gpu",
             lambda p: p.fail(0, "V100", 1)),
            (Allocation.single(0, "V100", 4), "occupied_gpu",
             lambda p: p.allocate(Allocation.single(0, "V100", 1))),
        ]
        for alloc, expected, prep in cases:
            validator = DecisionValidator("repair")
            rt = JobRuntime(job=make_job(1, workers=alloc.total_workers))
            rt.state = JobState.QUEUED
            probe = self.probe()
            if prep is not None:
                prep(probe)
            repaired = validator.check({1: alloc}, {1: rt}, probe, nominal=nominal)
            assert repaired == {}, expected
            assert [r.reason for r in validator.last_rejections] == [expected]

    def test_good_decision_passes_through_unchanged(self):
        validator = DecisionValidator("repair")
        alloc = Allocation.single(0, "V100", 2)
        assert validator.check({1: alloc}, self.runtimes, self.probe()) == {1: alloc}
        assert validator.rejections == []

    def test_rejection_record_shape(self):
        rec = DecisionRejected(
            job_id=5, reason="failed_gpu", detail="d", repaired=True
        ).as_record()
        assert rec == {
            "job_id": 5, "reason": "failed_gpu", "detail": "d", "repaired": True,
        }


# -- search budget ------------------------------------------------------------


class TestStateLimitFallback:
    """``DPConfig.state_limit`` bounds the exact DP in memo entries: an
    overflow falls back to the greedy, deterministically."""

    @staticmethod
    def bounded():
        return HadarScheduler(HadarConfig(dp=DPConfig(state_limit=1)))

    def test_overflow_falls_back_to_greedy(self, no_comm_cluster, matrix,
                                           philly_trace_small):
        result = simulate(
            no_comm_cluster, philly_trace_small, self.bounded(), matrix=matrix
        )
        assert result.hotpath_stats["state_limit_hits"] > 0
        assert len(result.completed) == len(philly_trace_small.jobs)

    def test_bounded_run_replays_under_hostile_clocks(
        self, monkeypatch, no_comm_cluster, matrix, philly_trace_small
    ):
        runs = []
        for seed in (1, 2):
            hostile_environment(monkeypatch, seed)
            runs.append(simulate(
                no_comm_cluster, philly_trace_small, self.bounded(), matrix=matrix
            ))
        assert runs[0].hotpath_stats["state_limit_hits"] > 0
        assert fingerprint(runs[0]) == fingerprint(runs[1])
        # Exact and greedy agree on this trace, so the schedule alone
        # would not show a fallback taken at a different point.
        assert runs[0].hotpath_stats == runs[1].hotpath_stats


# -- integration: chaos runs and golden parity --------------------------------


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_chaos_run_completes_every_job(name):
    """Seeded chaos: every scheduler survives the same fault sequence with
    the sanitizer attached and zero unrepaired rejections."""
    cluster = simulated_cluster()
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=14, seed=1))
    sanitizer = InvariantSanitizer()
    from tests.core._hotpath_fingerprint import make_scheduler

    result = simulate(
        cluster, trace, make_scheduler(name),
        faults=FaultModel(node_mtbf_h=8.0, mttr_s=300.0, seed=7),
        sanitizer=sanitizer,
    )
    assert len(result.completed) == 14
    assert sanitizer.ok
    assert result.fault_stats["node_faults"] > 0
    assert all(r.repaired for r in result.rejections)


def test_gavel_lp_plans_on_surviving_capacity():
    """Regression: Gavel's allocation LP must be solved against surviving
    (fault-reduced) capacity, or its promised time fractions overcommit
    the cluster and the sanitizer's feasibility residual trips (caught
    with this exact workload/fault seed pair)."""
    from repro.baselines import GavelScheduler

    cluster = simulated_cluster()
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=12, seed=2))
    sanitizer = InvariantSanitizer()
    result = simulate(
        cluster, trace, GavelScheduler(),
        faults=FaultModel(node_mtbf_h=8.0, mttr_s=300.0, seed=7),
        sanitizer=sanitizer,
    )
    assert len(result.completed) == 12
    assert sanitizer.ok


def test_same_seed_same_fault_stats_across_schedulers():
    """The fault sequence is a pure function of (model, cluster): every
    scheduler sees the identical failure timeline."""
    model = FaultModel(node_mtbf_h=8.0, gpu_mtbf_h=60.0, mttr_s=300.0, seed=7)
    cluster = simulated_cluster()
    schedules = [model.build_schedule(cluster) for _ in range(2)]
    assert schedules[0] == schedules[1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_disabled_faults_byte_identical_to_golden(name, seed):
    """An attached all-zero FaultModel must not perturb a single decision:
    the fingerprint matches the pre-fault-subsystem golden digest."""
    result = run_scenario(
        name, seed, engine_kwargs={"faults": FaultModel(seed=seed)}
    )
    assert digest(fingerprint(result)) == GOLDEN[f"{name}/{seed}"]["sha256"]


# -- property test: schedule invariants under arbitrary parameters ------------


@settings(max_examples=25, deadline=None)
@given(
    node_mtbf_h=st.floats(min_value=0.5, max_value=64.0),
    gpu_mtbf_h=st.one_of(st.just(0.0), st.floats(min_value=10.0, max_value=400.0)),
    mttr_s=st.floats(min_value=1.0, max_value=7200.0),
    permanent=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_schedule_replay_keeps_capacity_consistent(
    node_mtbf_h, gpu_mtbf_h, mttr_s, permanent, seed
):
    """For arbitrary model parameters, applying the full schedule to an
    idle cluster keeps every slot's capacity within [0, nominal], restores
    exactly what failed, and ends with failed-mask == nominal - surviving."""
    cluster = two_node_cluster()
    model = FaultModel(
        node_mtbf_h=node_mtbf_h, gpu_mtbf_h=gpu_mtbf_h, mttr_s=mttr_s,
        permanent_fraction=permanent, seed=seed,
        horizon_s=3 * 24 * 3600.0,
    )
    phase = FaultPhase(model, cluster)
    state = ClusterState.from_cluster(cluster)
    nominal = {slot: state.capacity(*slot) for slot in state.slots}
    ledger = ProgressLedger({})
    for index, event in enumerate(phase.schedule.events):
        phase.apply(index, ledger, state, event.time)
        for slot, cap in nominal.items():
            surviving = state.capacity(*slot)
            assert 0 <= surviving <= cap
            assert surviving + phase.failed.get(slot, 0) == cap
    assert phase.capacity_lost == sum(
        cap - state.capacity(*slot) for slot, cap in nominal.items()
    )
