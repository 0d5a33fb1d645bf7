"""Property-based tests: the dual price function (Eq. 5) and its
calibration (Eqs. 6-8)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.state import ClusterState
from repro.core.pricing import PriceBook, PriceCalibrator, PricingConfig
from repro.core.utility import (
    EffectiveThroughputUtility,
    FinishTimeFairnessUtility,
    MakespanUtility,
    NormalizedThroughputUtility,
)
from repro.sim.progress import JobRuntime, JobState
from repro.workload.job import Job
from repro.workload.models import model_spec
from repro.workload.throughput import ThroughputMatrix

bounds = st.tuples(
    st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)
).map(lambda p: (min(p), max(p)))


@given(b=bounds, capacity=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_price_monotone_and_bounded(b, capacity):
    lo, hi = b
    assume(hi >= lo)
    book = PriceBook(u_min={"V100": lo}, u_max={"V100": hi}, eta=1.0)
    state = ClusterState({(0, "V100"): capacity})
    prices = []
    for _ in range(capacity + 1):
        prices.append(book.price(0, "V100", state))
        if state.free(0, "V100"):
            state.allocate(Allocation.single(0, "V100", 1))
    # Bounds: k(0) = U_min, k(c) = U_max; monotone in between.
    assert prices[0] == pytest.approx(lo)
    assert prices[-1] == pytest.approx(hi)
    assert all(a <= b_ * (1 + 1e-12) for a, b_ in zip(prices, prices[1:]))


@given(b=bounds, capacity=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_alpha_formula(b, capacity):
    lo, hi = b
    book = PriceBook(u_min={"V100": lo}, u_max={"V100": hi}, eta=1.0)
    expected = max(1.0, math.log(hi / lo)) if hi > lo > 0 else 1.0
    assert book.alpha() == pytest.approx(expected)


@given(
    b=bounds,
    capacity=st.integers(1, 8),
    counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_cost_of_is_linear_in_counts(b, capacity, counts):
    """cost_of sums price × count over slots at the *pre-allocation* price."""
    lo, hi = b
    slots = {(i, "V100"): capacity for i in range(len(counts))}
    book = PriceBook(
        u_min={"V100": lo}, u_max={"V100": hi}, eta=1.0
    )
    state = ClusterState(slots)
    alloc = Allocation(
        {(i, "V100"): min(c, capacity) for i, c in enumerate(counts)}
    )
    expected = sum(
        book.price(i, "V100", state) * min(c, capacity)
        for i, c in enumerate(counts)
    )
    assert book.cost_of(alloc, state) == pytest.approx(expected)



# -- the one-pass calibration against the per-type specification -------------

GPU_TYPES = ("V100", "P100", "K80")
MODELS = ("resnet18", "resnet50", "cyclegan", "transformer", "a3c")


def reference_calibrate(jobs, matrix, utility, state, now, config):
    """Eqs. (6)-(8) as a full rescan with one pass over the jobs per GPU
    type — the specification :meth:`PriceCalibrator.calibrate` folds into
    one pass."""
    types = sorted({t for (_, t) in state.slots})
    usable = [rt for rt in jobs if rt.remaining_iterations > 0]
    if not usable:
        zero = {t: 0.0 for t in types}
        return PriceBook(u_min=zero, u_max=dict(zero), eta=1.0)
    t_max, t_min = {}, {}
    for rt in usable:
        remaining = rt.remaining_iterations
        w = rt.job.num_workers
        rates = {t: matrix.rate(rt.job.model.name, t) for t in types}
        slowest = min(r for t, r in rates.items() if matrix.supports(rt.job.model.name, t))
        t_max[rt.job_id] = remaining / (w * slowest)
        t_min[rt.job_id] = {
            t: remaining / (w * rate) for t, rate in rates.items() if rate > 0.0
        }
    horizon = now + config.horizon_slack * sum(t_max.values())
    if config.eta is not None:
        eta = config.eta
    else:
        eta = max(
            (state.total_capacity() / (t_max[rt.job_id] * rt.job.num_workers)
             for rt in usable),
            default=1.0,
        )
        eta = max(eta, 1.0)
    u_max, u_min = {}, {}
    for r in types:
        hi, lo = 0.0, math.inf
        for rt in usable:
            job = rt.job
            t_min_r = t_min[rt.job_id].get(r)
            if t_min_r is None:
                continue
            jct_best = max(now - job.arrival_time, 0.0) + t_min_r
            hi = max(hi, utility.value_for(rt, jct_best, now) / job.num_workers)
            jct_worst = max(horizon - job.arrival_time, jct_best)
            lo = min(
                lo,
                utility.value_for(rt, jct_worst, now)
                / (t_max[job.job_id] * job.num_workers),
            )
        if hi <= 0.0 or not math.isfinite(lo):
            u_max[r] = u_min[r] = 0.0
            continue
        lo = lo / (4.0 * eta)
        lo = min(lo, hi / config.min_ratio)
        lo = max(lo, 1e-300)
        u_max[r], u_min[r] = hi, lo
    return PriceBook(u_min=u_min, u_max=u_max, eta=eta)


@st.composite
def calibration_rounds(draw):
    """A matrix where some models cannot use some types (every model keeps
    at least one), a cluster, and queues for consecutive rounds: jobs that
    are done, jobs that arrive after ``now``, jobs that progressed."""
    rates = {}
    for model in MODELS:
        usable = draw(
            st.lists(st.sampled_from(GPU_TYPES), min_size=1, max_size=3, unique=True)
        )
        rates[model] = {t: draw(st.floats(0.5, 8.0)) for t in usable}
    matrix = ThroughputMatrix(rates)
    cluster = Cluster(
        [Node(i, {t: draw(st.integers(1, 4))}) for i, t in enumerate(GPU_TYPES)]
    )
    jobs = []
    for i in range(draw(st.integers(0, 8))):
        job = Job(
            job_id=i,
            model=model_spec(draw(st.sampled_from(MODELS))),
            arrival_time=draw(st.floats(0.0, 7200.0)),
            num_workers=draw(st.sampled_from([1, 2, 4])),
            epochs=draw(st.integers(1, 5)),
            iters_per_epoch=draw(st.integers(100, 3000)),
        )
        rt = JobRuntime(job=job)
        rt.state = JobState.QUEUED
        jobs.append(rt)
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        for rt in jobs:
            rt.iterations_done = rt.job.total_iterations * draw(
                st.sampled_from([0.0, 0.5, 1.0, draw(st.floats(0.0, 1.0))])
            )
        now = draw(st.floats(0.0, 7200.0))
        rounds.append((now, [(rt, rt.iterations_done) for rt in jobs]))
    return matrix, cluster, rounds


@given(
    setup=calibration_rounds(),
    utility_kind=st.sampled_from(["normalized", "effective", "makespan", "ftf"]),
    eta=st.one_of(st.none(), st.floats(0.5, 50.0)),
)
@settings(max_examples=150, deadline=None)
def test_one_pass_calibration_matches_per_type_folds(setup, utility_kind, eta):
    """``u_min``, ``u_max`` and ``eta`` equal the per-type specification's
    as ``float.hex``, from a throwaway calibrator and from one calibrator
    reused across rounds (records carried over where work did not move)."""
    matrix, cluster, rounds = setup
    utility = {
        "normalized": NormalizedThroughputUtility(),
        "effective": EffectiveThroughputUtility(),
        "makespan": MakespanUtility(matrix=matrix),
        "ftf": FinishTimeFairnessUtility(matrix=matrix),
    }[utility_kind]
    config = PricingConfig(eta=eta)
    kept = PriceCalibrator(config)

    def hexed(book):
        return (
            {t: v.hex() for t, v in book.u_min.items()},
            {t: v.hex() for t, v in book.u_max.items()},
            book.eta.hex(),
        )

    for now, progress in rounds:
        for rt, done in progress:
            rt.iterations_done = done
        jobs = [rt for rt, _ in progress]
        state = cluster.fresh_state()
        want = hexed(reference_calibrate(jobs, matrix, utility, state, now, config))
        assert hexed(PriceBook.calibrate(jobs, matrix, utility, state, now, config)) == want
        assert hexed(kept.calibrate(jobs, matrix, utility, state, now)) == want
