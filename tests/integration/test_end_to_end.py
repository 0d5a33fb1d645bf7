"""Integration: every scheduler over shared workloads, cross-checked."""

import pytest

from repro.baselines import (
    GavelScheduler,
    RandomScheduler,
    TiresiasScheduler,
    YarnCapacityScheduler,
)
from repro.cluster.cluster import simulated_cluster
from repro.core import HadarScheduler
from repro.sim.engine import simulate
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace

ALL_SCHEDULERS = [
    HadarScheduler,
    GavelScheduler,
    TiresiasScheduler,
    YarnCapacityScheduler,
    RandomScheduler,
]


@pytest.fixture(scope="module")
def cluster():
    return simulated_cluster()


@pytest.fixture(scope="module")
def static_trace():
    return generate_philly_trace(
        PhillyTraceConfig(num_jobs=16, arrival_pattern="static", seed=11)
    )


@pytest.fixture(scope="module")
def continuous_trace():
    return generate_philly_trace(
        PhillyTraceConfig(
            num_jobs=16, arrival_pattern="continuous", jobs_per_hour=40, seed=11
        )
    )


_STATIC_RESULTS: dict = {}


def static_run(factory, cluster, static_trace):
    """One static-trace run per scheduler, shared by the read-only checks."""
    if factory not in _STATIC_RESULTS:
        _STATIC_RESULTS[factory] = simulate(cluster, static_trace, factory())
    return _STATIC_RESULTS[factory]


@pytest.mark.parametrize("factory", ALL_SCHEDULERS, ids=lambda f: f.__name__)
class TestAllSchedulers:
    def test_static_trace_completes_with_conserved_work(
        self, factory, cluster, static_trace
    ):
        result = static_run(factory, cluster, static_trace)
        assert result.all_completed
        for rt in result.runtimes.values():
            assert rt.iterations_done == pytest.approx(
                rt.job.total_iterations, rel=1e-6
            )

    def test_continuous_trace_completes(self, factory, cluster, continuous_trace):
        result = simulate(cluster, continuous_trace, factory())
        assert result.all_completed
        for rt in result.runtimes.values():
            assert rt.first_start_time is not None
            assert rt.first_start_time >= rt.job.arrival_time

    def test_jct_bounded_below_by_ideal(self, factory, cluster, static_trace):
        from repro.workload.throughput import default_throughput_matrix

        matrix = default_throughput_matrix()
        result = static_run(factory, cluster, static_trace)
        for rt in result.completed:
            ideal = rt.job.total_iterations / (
                rt.job.num_workers * matrix.max_rate(rt.job.model.name)
            )
            assert rt.completion_time >= ideal * (1 - 1e-9)


class TestDeterminismAcrossRuns:
    @pytest.mark.parametrize("factory", ALL_SCHEDULERS, ids=lambda f: f.__name__)
    def test_same_seed_same_results(self, factory, cluster, static_trace):
        a = static_run(factory, cluster, static_trace)
        b = simulate(cluster, static_trace, factory())
        assert a.jcts() == b.jcts()
        assert a.makespan() == b.makespan()
