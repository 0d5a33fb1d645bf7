"""Micro-benchmarks of the hot paths (proper pytest-benchmark loops).

These guard the latency of the pieces Fig. 7 depends on: FIND_ALLOC, the
price calibration, one DP round, the Gavel LP, and the engine event loop.
"""

import pytest

from repro.baselines.gavel.policy import max_min_allocation_matrix
from repro.cluster.cluster import simulated_cluster
from repro.core import HadarScheduler
from repro.core.dp import DPAllocator, DPConfig
from repro.core.find_alloc import find_alloc
from repro.core.pricing import PriceBook
from repro.core.round_context import RoundContext
from repro.core.utility import NormalizedThroughputUtility
from repro.sim.engine import simulate
from repro.sim.interface import SchedulerContext
from repro.sim.progress import JobRuntime, JobState
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace
from repro.workload.throughput import default_throughput_matrix

CLUSTER = simulated_cluster()
MATRIX = default_throughput_matrix()
UTILITY = NormalizedThroughputUtility()
NO_DELAY = lambda rt: 0.0  # noqa: E731


def _queued_jobs(n: int):
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=n, seed=3))
    out = []
    for job in trace:
        rt = JobRuntime(job=job)
        rt.state = JobState.QUEUED
        out.append(rt)
    return out


@pytest.mark.benchmark(group="micro")
def test_micro_price_calibration(benchmark):
    jobs = _queued_jobs(64)
    benchmark(
        PriceBook.calibrate,
        jobs,
        MATRIX,
        UTILITY,
        CLUSTER.fresh_state(),
        0.0,
    )


@pytest.mark.benchmark(group="micro")
def test_micro_find_alloc(benchmark):
    jobs = _queued_jobs(8)
    prices = PriceBook.calibrate(jobs, MATRIX, UTILITY, CLUSTER.fresh_state(), 0.0)
    state = CLUSTER.fresh_state()
    benchmark(
        find_alloc, jobs[0], state, prices, MATRIX, CLUSTER, UTILITY, 0.0, NO_DELAY
    )


def _dp_round(jobs, prices, config):
    """One cold DP round: a fresh round context, as the scheduler builds it."""
    state = CLUSTER.fresh_state()
    context = RoundContext(
        prices=prices, matrix=MATRIX, cluster=CLUSTER, utility=UTILITY,
        now=0.0, delay_estimator=NO_DELAY, state=state,
    )
    return DPAllocator(context, config).allocate(jobs, state)


@pytest.mark.benchmark(group="micro")
def test_micro_dp_round_exact(benchmark):
    jobs = _queued_jobs(8)
    prices = PriceBook.calibrate(jobs, MATRIX, UTILITY, CLUSTER.fresh_state(), 0.0)
    benchmark(_dp_round, jobs, prices, DPConfig(queue_limit=10))


@pytest.mark.benchmark(group="micro")
def test_micro_dp_round_greedy(benchmark):
    jobs = _queued_jobs(64)
    prices = PriceBook.calibrate(jobs, MATRIX, UTILITY, CLUSTER.fresh_state(), 0.0)
    benchmark(_dp_round, jobs, prices, DPConfig(queue_limit=0))


@pytest.mark.benchmark(group="micro")
def test_micro_gavel_lp(benchmark):
    jobs = _queued_jobs(64)
    benchmark(
        max_min_allocation_matrix,
        jobs,
        CLUSTER.gpu_types,
        CLUSTER.capacity_by_type(),
        MATRIX,
    )


@pytest.mark.benchmark(group="micro")
def test_micro_full_hadar_simulation_small(benchmark):
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=8, seed=3))
    benchmark.pedantic(
        lambda: simulate(CLUSTER, trace, HadarScheduler()), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="micro")
def test_micro_engine_event_loop(benchmark):
    """The kernel + phase pipeline in isolation: drive a full run with the
    cheap Tiresias policy so event dispatch, rate integration, and dirty-set
    re-prediction dominate the wall-clock instead of the DP search."""
    from repro.baselines import TiresiasScheduler

    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=24, seed=3))
    benchmark.pedantic(
        lambda: simulate(CLUSTER, trace, TiresiasScheduler()), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="micro")
def test_micro_scheduler_context_build(benchmark):
    jobs = _queued_jobs(128)

    def build():
        return SchedulerContext(
            now=0.0,
            cluster=CLUSTER,
            matrix=MATRIX,
            round_length=360.0,
            waiting=tuple(jobs),
            running=(),
        ).occupied_state()

    benchmark(build)
