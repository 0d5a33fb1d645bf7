"""Engine hardening: boundary and coincidence scenarios.

Each test builds a situation where naive event handling goes wrong —
completions landing exactly on round boundaries, arrivals during pause
windows, simultaneous completions, sub-round jobs — and checks the exact
arithmetic the continuous-rate design promises.
"""

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.topology import CommunicationModel
from repro.sim.checkpoint import FixedDelayCheckpoint, NoOverheadCheckpoint
from repro.sim.engine import simulate
from repro.sim.interface import Scheduler
from repro.workload.throughput import ThroughputMatrix
from repro.workload.trace import Trace

from tests.conftest import make_job

L = 360.0


@pytest.fixture
def cluster():
    return Cluster(
        [Node(0, {"V100": 2}), Node(1, {"V100": 2})],
        comm=CommunicationModel.disabled(),
    )


@pytest.fixture
def matrix():
    return ThroughputMatrix({"resnet18": {"V100": 1.0}})


class Greedy(Scheduler):
    round_based = True
    reacts_to_events = False

    @property
    def name(self):
        return "greedy"

    def schedule(self, ctx):
        state = ctx.fresh_state()
        target = {}
        for rt in ctx.active:
            picks, need = [], rt.job.num_workers
            for (node, t), free in state.free_slots():
                take = min(free, need)
                picks.append((node, t, take))
                need -= take
                if need == 0:
                    break
            if need == 0:
                alloc = Allocation.from_pairs(picks)
                state.allocate(alloc)
                target[rt.job_id] = alloc
        return target


class TestBoundaryCoincidences:
    def test_completion_exactly_on_round_boundary(self, cluster, matrix):
        """A job finishing exactly at t=L frees its devices for the job
        scheduled at that same boundary."""
        jobs = [
            make_job(0, "resnet18", workers=4, epochs=1, iters_per_epoch=1440),
            make_job(1, "resnet18", workers=4, epochs=1, iters_per_epoch=1440),
        ]
        result = simulate(cluster, Trace(jobs), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=NoOverheadCheckpoint())
        assert result.runtimes[0].finish_time == pytest.approx(L)
        assert result.runtimes[1].first_start_time == pytest.approx(L)
        assert result.runtimes[1].finish_time == pytest.approx(2 * L)

    def test_arrival_exactly_on_round_boundary(self, cluster, matrix):
        """A job arriving exactly at a boundary is schedulable in that
        round (arrivals order before boundaries at equal time)."""
        job = make_job(0, "resnet18", arrival=L, workers=1, epochs=1,
                       iters_per_epoch=360)
        result = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=NoOverheadCheckpoint())
        assert result.runtimes[0].first_start_time == pytest.approx(L)

    def test_simultaneous_completions(self, cluster, matrix):
        """Two identical jobs finish at the same instant; both finalize."""
        jobs = [
            make_job(i, "resnet18", workers=2, epochs=1, iters_per_epoch=720)
            for i in range(2)
        ]
        result = simulate(cluster, Trace(jobs), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=NoOverheadCheckpoint())
        assert result.runtimes[0].finish_time == pytest.approx(360.0)
        assert result.runtimes[1].finish_time == pytest.approx(360.0)

    def test_sub_round_job(self, cluster, matrix):
        """A job much shorter than a round finishes mid-round at the exact
        fractional time."""
        job = make_job(0, "resnet18", workers=1, epochs=1, iters_per_epoch=10)
        result = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=NoOverheadCheckpoint())
        assert result.runtimes[0].finish_time == pytest.approx(10.0)

    def test_many_jobs_one_round(self, cluster, matrix):
        """Four 1-GPU jobs share the 4-GPU cluster in a single round."""
        jobs = [
            make_job(i, "resnet18", workers=1, epochs=1, iters_per_epoch=100 + i)
            for i in range(4)
        ]
        result = simulate(cluster, Trace(jobs), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=NoOverheadCheckpoint())
        for i in range(4):
            assert result.runtimes[i].finish_time == pytest.approx(100.0 + i)


class TestPauseWindows:
    def test_completion_prediction_during_pause(self, cluster, matrix):
        """With a checkpoint pause longer than the remaining work's time,
        the completion still lands after the pause ends."""
        job = make_job(0, "resnet18", workers=4, epochs=1, iters_per_epoch=40)
        result = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=FixedDelayCheckpoint(30.0))
        # 30 s pause + 40 iters / (1 × 4 workers) = 40 s.
        assert result.runtimes[0].finish_time == pytest.approx(40.0)

    def test_no_progress_during_pause(self, cluster, matrix):
        job = make_job(0, "resnet18", workers=4, epochs=1, iters_per_epoch=1440)
        paused = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=FixedDelayCheckpoint(60.0))
        free = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                        round_length=L, checkpoint=NoOverheadCheckpoint())
        assert paused.runtimes[0].finish_time == pytest.approx(
            free.runtimes[0].finish_time + 60.0
        )


class TestDegenerateWorkloads:
    def test_empty_trace(self, cluster, matrix):
        result = simulate(cluster, Trace([]), Greedy(), matrix=matrix)
        assert result.all_completed
        assert result.makespan() == 0.0
        assert result.scheduling_invocations == 0

    def test_single_iteration_job(self, cluster, matrix):
        job = make_job(0, "resnet18", workers=1, epochs=1, iters_per_epoch=1)
        result = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                          checkpoint=NoOverheadCheckpoint())
        assert result.runtimes[0].finish_time == pytest.approx(1.0)

    def test_whole_cluster_job(self, cluster, matrix):
        job = make_job(0, "resnet18", workers=4, epochs=1, iters_per_epoch=1440)
        result = simulate(cluster, Trace([job]), Greedy(), matrix=matrix,
                          checkpoint=NoOverheadCheckpoint())
        assert result.gpu_utilization() == pytest.approx(1.0)

    def test_far_staggered_arrivals(self, cluster, matrix):
        """Jobs separated by days of idle time all run correctly."""
        jobs = [
            make_job(i, "resnet18", arrival=i * 86400.0, workers=1, epochs=1,
                     iters_per_epoch=360)
            for i in range(3)
        ]
        result = simulate(cluster, Trace(jobs), Greedy(), matrix=matrix,
                          round_length=L, checkpoint=NoOverheadCheckpoint())
        for i in range(3):
            start = result.runtimes[i].first_start_time
            assert start == pytest.approx(i * 86400.0, abs=L)


class TestRepeatedRuns:
    def test_engine_instance_reusable(self, cluster, matrix, tiny_trace):
        """Calling run() twice on one engine yields identical results."""
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(
            cluster=cluster, trace=Trace([make_job(0, "resnet18", epochs=1)]),
            scheduler=Greedy(), matrix=matrix,
        )
        a = engine.run()
        b = engine.run()
        assert a.jcts() == b.jcts()

    def test_rerun_observes_decisions_from_zero(self):
        """A re-run's event-observed families (decision latency, churn,
        queue waits) count its own decisions only, like the derived ones."""
        from repro.obs import MetricsRegistry

        from tests.core._hotpath_fingerprint import scenario_engine

        engine = scenario_engine("hadar", 1, metrics=MetricsRegistry())

        def observed(result):
            families = result.metrics
            return (
                result.scheduling_invocations,
                families["repro_engine_rounds_total"]["series"][0]["value"],
                [s["count"] for s in families["repro_decision_seconds"]["series"]],
                [s["count"] for s in families["repro_queue_wait_seconds"]["series"]],
                families["repro_allocation_churn_total"]["series"],
            )

        first = observed(engine.run())
        second = observed(engine.run())
        assert first == second
        assert first[2] == [first[0]]
