"""Unit tests for the scheduler-facing API (rate model, gang validation)."""

import pytest

from repro.cluster.allocation import EMPTY_ALLOCATION, Allocation
from repro.sim.interface import SchedulerContext, realized_rate, validate_gang
from repro.sim.progress import JobRuntime, JobState

from tests.conftest import make_job


class TestRealizedRate:
    def test_empty_allocation_is_zero(self, small_cluster, matrix):
        assert realized_rate(make_job(), EMPTY_ALLOCATION, matrix, small_cluster) == 0.0

    def test_homogeneous_gang(self, no_comm_cluster, matrix):
        job = make_job(model="resnet18", workers=2)
        alloc = Allocation({(0, "V100"): 2})
        # 16 it/s per worker × 2 workers.
        assert realized_rate(job, alloc, matrix, no_comm_cluster) == pytest.approx(32.0)

    def test_bottleneck_rule(self, no_comm_cluster, matrix):
        """Constraint (1b): mixed gangs run at the slowest member's rate."""
        job = make_job(model="resnet18", workers=3)
        alloc = Allocation({(0, "V100"): 2, (0, "K80"): 1})
        # min(16, 2.9) × 3 workers.
        assert realized_rate(job, alloc, matrix, no_comm_cluster) == pytest.approx(8.7)

    def test_cross_server_penalty(self, small_cluster, matrix):
        job = make_job(model="resnet50", workers=4)
        packed = Allocation({(0, "V100"): 2, (0, "K80"): 2})
        spread = Allocation({(0, "V100"): 2, (1, "V100"): 2})
        r_spread = realized_rate(job, spread, matrix, small_cluster)
        # Spread V100 gang: faster types but pays allreduce; still beats
        # the packed mixed gang bottlenecked at K80.
        r_packed = realized_rate(job, packed, matrix, small_cluster)
        assert 0 < r_spread < 4 * matrix.rate("resnet50", "V100")
        assert r_packed == pytest.approx(4 * matrix.rate("resnet50", "K80"))

    def test_unusable_type_raises(self, small_cluster):
        from repro.workload.throughput import ThroughputMatrix

        limited = ThroughputMatrix({"resnet18": {"V100": 16.0}})
        job = make_job(model="resnet18", workers=1)
        with pytest.raises(ValueError, match="cannot run"):
            realized_rate(job, Allocation({(0, "K80"): 1}), limited, small_cluster)


class TestPhaseGangMemos:
    """``SchedulerPhase`` memoizes the rate and bottleneck of each gang per
    model; the memos must return exactly what a fresh computation does."""

    @staticmethod
    def phase(cluster, matrix):
        from repro.baselines import TiresiasScheduler
        from repro.sim.checkpoint import NoOverheadCheckpoint
        from repro.sim.phases import SchedulerPhase

        return SchedulerPhase(
            TiresiasScheduler(), cluster, matrix, 360.0, NoOverheadCheckpoint()
        )

    def test_rate_memo_is_keyed_by_model_and_gang(self, small_cluster, matrix):
        phase = self.phase(small_cluster, matrix)
        gangs = (
            Allocation({(0, "V100"): 2}),
            Allocation({(0, "V100"): 2, (1, "V100"): 2}),
            Allocation({(0, "V100"): 1, (0, "K80"): 1}),
        )
        for _ in range(2):
            for model in ("resnet18", "resnet50", "transformer"):
                for gang in gangs:
                    job = make_job(model=model, workers=gang.total_workers)
                    expected = realized_rate(job, gang, matrix, small_cluster)
                    assert phase._realized_rate(job, gang).hex() == expected.hex()

    def test_failed_rate_is_not_stored(self, small_cluster):
        from repro.workload.throughput import ThroughputMatrix

        limited = ThroughputMatrix({"resnet18": {"V100": 16.0}})
        phase = self.phase(small_cluster, limited)
        job = make_job(model="resnet18", workers=1)
        for _ in range(2):
            with pytest.raises(ValueError, match="cannot run"):
                phase._realized_rate(job, Allocation({(0, "K80"): 1}))

    def test_bottleneck_memo_is_keyed_by_model_and_gang(self, small_cluster):
        from repro.workload.throughput import ThroughputMatrix

        matrix = ThroughputMatrix({
            "resnet18": {"V100": 16.0, "K80": 2.9, "P100": 8.0},
            "a3c": {"V100": 1.0, "K80": 2.0, "P100": 3.0},
        })
        phase = self.phase(small_cluster, matrix)
        gang = Allocation({(0, "V100"): 1, (0, "K80"): 1, (1, "P100"): 1})
        for model, bottleneck in (("resnet18", "K80"), ("a3c", "V100"),
                                  ("resnet18", "K80")):
            rt = JobRuntime(job=make_job(model=model, workers=3))
            rt.allocation = gang
            phase.bookkeep_round(rt)
            assert rt.rounds_by_type == {bottleneck: 1}


class TestGangValidation:
    def test_full_gang_ok(self):
        validate_gang(make_job(workers=3), Allocation({(0, "V100"): 3}))

    def test_empty_ok(self):
        validate_gang(make_job(workers=3), EMPTY_ALLOCATION)

    def test_partial_gang_rejected(self):
        with pytest.raises(ValueError, match="requires 0 or 3"):
            validate_gang(make_job(workers=3), Allocation({(0, "V100"): 2}))


class TestContext:
    def _rt(self, job_id, arrival, state):
        rt = JobRuntime(job=make_job(job_id, arrival=arrival))
        rt.state = state
        return rt

    def test_active_merges_and_sorts(self, small_cluster, matrix):
        waiting = (self._rt(2, 10.0, JobState.QUEUED),)
        running = (self._rt(1, 5.0, JobState.RUNNING),)
        ctx = SchedulerContext(
            now=20.0,
            cluster=small_cluster,
            matrix=matrix,
            round_length=360.0,
            waiting=waiting,
            running=running,
        )
        assert [rt.job_id for rt in ctx.active] == [1, 2]
        assert ctx.runtime(2).job_id == 2
        with pytest.raises(KeyError):
            ctx.runtime(99)

    def test_active_interleaves_queued_and_running_by_arrival(
        self, small_cluster, matrix
    ):
        """Not queued-then-running: one arrival order, ties by job id,
        built once per context."""
        waiting = (
            self._rt(3, 5.0, JobState.QUEUED),
            self._rt(4, 20.0, JobState.QUEUED),
        )
        running = (
            self._rt(1, 5.0, JobState.RUNNING),
            self._rt(2, 10.0, JobState.RUNNING),
        )
        ctx = SchedulerContext(
            now=30.0,
            cluster=small_cluster,
            matrix=matrix,
            round_length=360.0,
            waiting=waiting,
            running=running,
        )
        assert [rt.job_id for rt in ctx.active] == [1, 3, 2, 4]
        assert ctx.active is ctx.active
        assert ctx.runtime(4) is waiting[1]

    def test_occupied_state_claims_running(self, small_cluster, matrix):
        rt = self._rt(0, 0.0, JobState.RUNNING)
        rt.allocation = Allocation({(0, "V100"): 2})
        ctx = SchedulerContext(
            now=0.0,
            cluster=small_cluster,
            matrix=matrix,
            round_length=360.0,
            waiting=(),
            running=(rt,),
        )
        assert ctx.occupied_state().free(0, "V100") == 0
        assert ctx.fresh_state().free(0, "V100") == 2
