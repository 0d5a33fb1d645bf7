"""Unit tests for progress integration (``ProgressLedger.integrate_to``)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.faults import FaultModel
from repro.sim.progress import JobRuntime, JobState, ProgressLedger
from repro.sim.stragglers import StragglerModel
from repro.workload.job import Job
from repro.workload.models import model_spec

from tests.conftest import make_job
from tests.core._hotpath_fingerprint import mixed_engine


def running_runtime(
    rate: float = 10.0, total_iters: int = 1000, workers: int = 1
) -> JobRuntime:
    rt = JobRuntime(job=make_job(workers=workers, epochs=1, iters_per_epoch=total_iters))
    rt.state = JobState.RUNNING
    rt.allocation = Allocation.single(0, "V100", workers)
    rt.rate = rate
    return rt


def advance(rt: JobRuntime, now: float) -> None:
    """Integrate one runtime through a ledger holding only it."""
    ProgressLedger({rt.job_id: rt}).integrate_to(now)


class TestIntegration:
    def test_constant_rate(self):
        rt = running_runtime(rate=10.0)
        advance(rt, 5.0)
        assert rt.iterations_done == pytest.approx(50.0)
        assert rt.remaining_iterations == pytest.approx(950.0)

    def test_pause_window_respected(self):
        rt = running_runtime(rate=10.0)
        rt.resume_time = 3.0
        advance(rt, 5.0)
        assert rt.iterations_done == pytest.approx(20.0)  # only 2 s active

    def test_progress_clamped_at_total(self):
        rt = running_runtime(rate=10.0, total_iters=30)
        advance(rt, 100.0)
        assert rt.iterations_done == 30.0
        assert rt.is_done

    def test_queued_job_accrues_waiting(self):
        rt = JobRuntime(job=make_job())
        rt.state = JobState.QUEUED
        advance(rt, 7.0)
        assert rt.waiting_seconds == pytest.approx(7.0)
        assert rt.iterations_done == 0.0

    def test_attained_service_counts_gang(self):
        rt = running_runtime(rate=1.0, workers=4)
        advance(rt, 10.0)
        assert rt.attained_service == pytest.approx(40.0)

    def test_time_backwards_rejected(self):
        rt = running_runtime()
        ledger = ProgressLedger({rt.job_id: rt})
        ledger.integrate_to(5.0)
        with pytest.raises(ValueError, match="backwards"):
            ledger.integrate_to(4.0)

    def test_idempotent_at_same_time(self):
        rt = running_runtime(rate=10.0)
        ledger = ProgressLedger({rt.job_id: rt})
        ledger.integrate_to(5.0)
        ledger.integrate_to(5.0)
        assert rt.iterations_done == pytest.approx(50.0)


# -- specification: the ledger loop against the per-runtime formulation ------

def reference_advance(rt: JobRuntime, now: float) -> None:
    """The integration rule as a per-runtime method with ``max``/``min``.

    This is the formulation the ledger's loop replaced; the loop must
    reproduce it bit for bit, the backwards-time error included.
    """
    if now < rt.last_integrated - 1e-9:
        raise ValueError(
            f"time went backwards for job {rt.job_id}: "
            f"{now} < {rt.last_integrated}"
        )
    if rt.state is JobState.RUNNING and rt.rate > 0.0:
        active = max(0.0, now - max(rt.last_integrated, rt.resume_time))
        rt.iterations_done = min(
            float(rt.job.total_iterations),
            rt.iterations_done + rt.rate * active,
        )
        rt.attained_service += active * rt.allocation.total_workers
    elif rt.state is JobState.QUEUED:
        rt.waiting_seconds += max(0.0, now - rt.last_integrated)
    rt.last_integrated = max(rt.last_integrated, now)


_STEPS = st.one_of(
    st.just(0.0),  # equal times
    st.sampled_from([1e-12, 5e-10, 1e-6]),  # tiny steps, some inside the slack
    st.floats(0.0, 500.0),
    st.sampled_from([-5e-10, -1e-3]),  # backwards: within the slack, then not
)


@st.composite
def live_runtimes(draw):
    """Queued and running runtimes; running ones hold full gangs, some
    stalled (rate 0), some paused past the first steps, some close to
    their iteration cap."""
    runtimes = {}
    for job_id in range(draw(st.integers(1, 5))):
        workers = draw(st.sampled_from([1, 2, 3, 4]))
        job = Job(
            job_id=job_id,
            model=model_spec("resnet18"),
            arrival_time=0.0,
            num_workers=workers,
            epochs=1,
            iters_per_epoch=draw(st.integers(1, 400)),
        )
        rt = JobRuntime(job=job)
        rt.last_integrated = draw(st.floats(0.0, 50.0))
        rt.waiting_seconds = draw(st.floats(0.0, 100.0))
        rt.attained_service = draw(st.floats(0.0, 100.0))
        if draw(st.booleans()):
            rt.state = JobState.RUNNING
            on_first = draw(st.integers(1, workers))
            placements = {(0, "V100"): on_first}
            if workers > on_first:
                placements[(1, "K80")] = workers - on_first
            rt.allocation = Allocation(placements)
            rt.rate = draw(st.one_of(
                st.just(0.0), st.floats(1e-9, 1e-3), st.floats(0.1, 50.0)
            ))
            rt.resume_time = rt.last_integrated + draw(st.one_of(
                st.just(0.0), st.floats(-10.0, 200.0)
            ))
            rt.iterations_done = draw(st.floats(0.0, float(job.total_iterations)))
        else:
            rt.state = JobState.QUEUED
        runtimes[job_id] = rt
    return runtimes


def _bits(rt: JobRuntime) -> tuple[str, ...]:
    return tuple(
        float.hex(float(getattr(rt, name)))
        for name in ("iterations_done", "attained_service", "waiting_seconds",
                     "last_integrated")
    )


@given(runtimes=live_runtimes(), steps=st.lists(_STEPS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_ledger_integration_matches_reference_bit_for_bit(runtimes, steps):
    reference = copy.deepcopy(runtimes)
    ledger = ProgressLedger(runtimes)
    now = max(rt.last_integrated for rt in runtimes.values())
    for step in steps:
        now += step
        try:
            for rt in reference.values():
                reference_advance(rt, now)
        except ValueError as exc:
            expected = str(exc)
            with pytest.raises(ValueError, match="time went backwards") as raised:
                ledger.integrate_to(now)
            assert str(raised.value) == expected
        else:
            ledger.integrate_to(now)
        for job_id, rt in runtimes.items():
            assert _bits(rt) == _bits(reference[job_id]), job_id
            if rt.state is JobState.RUNNING:
                assert rt.allocation.total_workers == rt.job.num_workers
        now = max(rt.last_integrated for rt in runtimes.values())


@pytest.mark.parametrize("left", [-1.0, 0.0, 5e-7, 1e-6, 1.5e-6, 1.0])
@pytest.mark.parametrize("state", [JobState.RUNNING, JobState.QUEUED])
def test_finalize_completes_exactly_the_done_running_jobs(
    small_cluster, left, state
):
    """``finalize_completions`` finishes a job iff it is RUNNING and
    :attr:`JobRuntime.is_done` (at most ``_COMPLETION_EPS`` left)."""
    rt = running_runtime(total_iters=100)
    rt.state = state
    rt.iterations_done = 100 - left
    cluster_state = small_cluster.fresh_state()
    if state is JobState.RUNNING:
        cluster_state.allocate(rt.allocation)
    else:
        rt.allocation = Allocation({})
    expected = state is JobState.RUNNING and rt.is_done
    ledger = ProgressLedger({rt.job_id: rt})
    assert ledger.finalize_completions(cluster_state, 7.0) == int(expected)
    assert (rt.state is JobState.COMPLETE) is expected
    assert (rt.job_id in ledger.live) is not expected
    assert cluster_state.total_free() == small_cluster.total_gpus - (
        1 if state is JobState.RUNNING and not expected else 0
    )


@pytest.mark.parametrize("name", ["hadar", "gavel", "tiresias"])
def test_running_jobs_hold_full_gangs_at_every_event(name):
    """The ledger takes W from ``job.num_workers``: every RUNNING job the
    engine integrates holds exactly that many devices, under faults and
    stragglers too."""
    engine = mixed_engine(
        name,
        faults=FaultModel(node_mtbf_h=0.5, mttr_s=1800.0, seed=3),
        stragglers=StragglerModel(incidence_per_hour=1.0, seed=4),
    )
    engine.start()
    running_seen = 0
    while engine.step():
        for rt in engine._ledger.live.values():
            if rt.state is JobState.RUNNING:
                running_seen += 1
                assert rt.allocation.total_workers == rt.job.num_workers
    engine.stop()
    assert running_seen > 0


class TestPrediction:
    def test_predicted_completion(self):
        rt = running_runtime(rate=10.0, total_iters=100)
        assert rt.predicted_completion(0.0) == pytest.approx(10.0)

    def test_prediction_accounts_for_pause(self):
        rt = running_runtime(rate=10.0, total_iters=100)
        rt.resume_time = 4.0
        assert rt.predicted_completion(0.0) == pytest.approx(14.0)

    def test_no_prediction_when_stalled(self):
        rt = JobRuntime(job=make_job())
        assert rt.predicted_completion(0.0) is None
        rt.state = JobState.RUNNING
        rt.rate = 0.0
        assert rt.predicted_completion(0.0) is None


class TestMetricViews:
    def test_completion_time(self):
        rt = JobRuntime(job=make_job(arrival=100.0))
        assert rt.completion_time is None
        rt.finish_time = 400.0
        assert rt.completion_time == pytest.approx(300.0)

    def test_queuing_delay(self):
        rt = JobRuntime(job=make_job(arrival=50.0))
        assert rt.queuing_delay is None
        rt.first_start_time = 80.0
        assert rt.queuing_delay == pytest.approx(30.0)
