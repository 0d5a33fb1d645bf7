"""Property-based tests: end-to-end engine invariants under random
workloads and random-but-valid scheduling decisions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TiresiasScheduler
from repro.baselines.random_sched import RandomScheduler
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.topology import CommunicationModel
from repro.faults import FaultModel
from repro.sim.checkpoint import FixedDelayCheckpoint
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.progress import JobState
from repro.sim.snapshot import SnapshotCodec
from repro.sim.stragglers import StragglerModel
from repro.workload.arrivals import SubmissionSource
from repro.workload.job import Job
from repro.workload.models import model_spec
from repro.workload.philly import PhillyTraceConfig
from repro.workload.throughput import default_throughput_matrix
from repro.workload.trace import Trace

from tests.core._hotpath_fingerprint import mixed_engine

MODELS = ("resnet18", "cyclegan", "transformer", "a3c")


@st.composite
def traces(draw):
    jobs = []
    for job_id in range(draw(st.integers(1, 6))):
        jobs.append(
            Job(
                job_id=job_id,
                model=model_spec(draw(st.sampled_from(MODELS))),
                arrival_time=draw(st.floats(0.0, 2000.0)),
                num_workers=draw(st.sampled_from([1, 2, 4])),
                epochs=draw(st.integers(1, 3)),
                iters_per_epoch=draw(st.integers(50, 2000)),
            )
        )
    return Trace(jobs)


CLUSTER = Cluster(
    [Node(0, {"V100": 2, "K80": 2}), Node(1, {"P100": 4})],
    comm=CommunicationModel.disabled(),
)
MATRIX = default_throughput_matrix()


@given(trace=traces(), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_engine_invariants_under_random_scheduling(trace, seed):
    result = simulate(
        CLUSTER,
        trace,
        RandomScheduler(seed=seed),
        matrix=MATRIX,
        round_length=360.0,
        checkpoint=FixedDelayCheckpoint(10.0),
    )
    assert result.all_completed
    for rt in result.runtimes.values():
        job = rt.job
        # Work conservation: exactly E·N iterations were executed.
        assert rt.iterations_done == pytest.approx(job.total_iterations, rel=1e-6)
        # Causality: a_j ≤ first start ≤ finish.
        assert rt.finish_time is not None and rt.first_start_time is not None
        assert job.arrival_time <= rt.first_start_time <= rt.finish_time
        # JCT lower bound: the job cannot beat its ideal gang speed.
        ideal = job.total_iterations / (
            job.num_workers * MATRIX.max_rate(job.model.name)
        )
        assert rt.completion_time >= ideal * (1 - 1e-9)
        # Overheads and waiting are consistent with the timeline.
        assert rt.waiting_seconds >= -1e-9
        assert rt.overhead_seconds >= 10.0 * (rt.allocation_changes > 0) - 1e-9


@given(trace=traces(), seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_busy_gpu_seconds_equals_sum_of_held_time(trace, seed):
    """Telemetry integral == Σ per-job (held GPUs × held time).

    Attained service excludes pause windows, so busy-time must be at
    least the attained service and at most attained + overhead·W.
    """
    result = simulate(
        CLUSTER,
        trace,
        RandomScheduler(seed=seed),
        matrix=MATRIX,
        round_length=360.0,
        checkpoint=FixedDelayCheckpoint(10.0),
    )
    busy = result.telemetry.busy_gpu_seconds(0.0, result.end_time)
    lo = sum(rt.attained_service for rt in result.runtimes.values())
    hi = sum(
        rt.attained_service + rt.overhead_seconds * rt.job.num_workers
        for rt in result.runtimes.values()
    )
    assert lo - 1e-6 <= busy <= hi + 1e-6


# -- the progress ledger's live set ---------------------------------------------

FAULTS = {
    "crash": dict(node_mtbf_h=3.0, mttr_s=900.0),
    "partition-preempt": dict(
        partition_mtbf_h=2.0, failure_domains=2, partition_policy="preempt"
    ),
    "partition-stall": dict(
        partition_mtbf_h=2.0, failure_domains=2, partition_policy="stall"
    ),
    "degraded": dict(degraded_mtbf_h=2.0, degraded_factor=0.6),
    "storage": dict(storage_mtbf_h=2.0, storage_tiers=2),
}
"""One fault family per entry: crashes, partitions under both policies,
degraded nodes and checkpoint-storage losses."""

LIVE_CLUSTER = Cluster(
    [
        Node(0, {"V100": 2, "K80": 2}),
        Node(1, {"P100": 4}),
        Node(2, {"V100": 2, "P100": 2}),
        Node(3, {"K80": 4}),
    ],
)
SMALL_STREAM = PhillyTraceConfig(category_weights={"S": 1.0}, max_workers=4)
"""Streamed jobs of at most a GPU-hour and four workers keep runs short."""


def assert_live_is_table_filtered(engine: SimulationEngine) -> None:
    ledger = engine._ledger
    expected = [
        job_id
        for job_id, rt in ledger.runtimes.items()
        if rt.state in (JobState.QUEUED, JobState.RUNNING)
    ]
    assert list(ledger.live) == expected
    assert all(ledger.live[job_id] is ledger.runtimes[job_id] for job_id in expected)
    # The kept queued count equals a walk of the set.
    assert ledger.queued == sum(
        1 for rt in ledger.live.values() if rt.state is JobState.QUEUED
    )


@st.composite
def live_scenarios(draw):
    """A builder of identically configured engines, plus where to restore."""
    trace = draw(traces())
    scheduler = draw(st.sampled_from(["random", "tiresias"]))
    seed = draw(st.integers(0, 100))
    fault = draw(st.sampled_from([None, *FAULTS]))
    stragglers = draw(st.booleans())
    streamed = draw(st.integers(0, 4))
    rate = draw(st.sampled_from([2.0, 10.0, 30.0]))
    restore_at = draw(st.one_of(st.none(), st.integers(1, 30)))

    def build() -> SimulationEngine:
        return SimulationEngine(
            cluster=LIVE_CLUSTER,
            trace=trace,
            scheduler=(
                RandomScheduler(seed=seed)
                if scheduler == "random"
                else TiresiasScheduler()
            ),
            matrix=MATRIX,
            checkpoint=FixedDelayCheckpoint(10.0),
            max_time=4 * 24 * 3600.0,
            faults=FaultModel(**FAULTS[fault], seed=seed) if fault else None,
            stragglers=(
                StragglerModel(incidence_per_hour=1.0, seed=seed)
                if stragglers
                else None
            ),
            source=(
                SubmissionSource(
                    rate, seed=seed, max_jobs=streamed, first_job_id=100,
                    template=SMALL_STREAM,
                )
                if streamed
                else None
            ),
        )

    return build, restore_at


def step_checking_live(engine: SimulationEngine, steps: int | None = None) -> None:
    """Step (at most ``steps`` times), checking the live set after each."""
    assert_live_is_table_filtered(engine)
    taken = 0
    while (steps is None or taken < steps) and engine.step():
        taken += 1
        assert_live_is_table_filtered(engine)


@given(scenario=live_scenarios())
@settings(max_examples=60, deadline=None)
def test_live_set_is_the_table_filtered_to_queued_and_running(scenario):
    """After every step, ``ledger.live`` lists exactly the QUEUED and
    RUNNING runtimes, in the runtimes table's order, and ``ledger.queued``
    counts the QUEUED ones: under every fault
    family, stragglers, a streamed source interleaving with the trace,
    and across a mid-run snapshot and restore."""
    build, restore_at = scenario
    engine = build()
    engine.start()
    if restore_at is not None:
        step_checking_live(engine, restore_at)
        blob = SnapshotCodec().dumps(engine.snapshot())
        engine = build()
        engine.restore(SnapshotCodec().loads(blob))
    step_checking_live(engine)
    engine.stop()


@pytest.mark.parametrize("name", ["hadar", "tiresias"])
def test_live_set_keeps_table_order_when_arrivals_interleave(name):
    """Trace jobs arriving after streamed ones were admitted still sit
    before them in the live set, as they do in the table."""
    engine = mixed_engine(name)
    engine.start()
    step_checking_live(engine)
    assert engine.stop().all_completed
