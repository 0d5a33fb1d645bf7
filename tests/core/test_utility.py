"""Unit tests for the utility functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import (
    EffectiveThroughputUtility,
    FinishTimeFairnessUtility,
    MakespanUtility,
    NormalizedThroughputUtility,
)
from repro.sim.progress import JobRuntime
from repro.workload.models import MODEL_ZOO
from repro.workload.throughput import default_throughput_matrix

from tests.conftest import make_job


class TestEffectiveThroughput:
    def test_paper_definition(self):
        u = EffectiveThroughputUtility()
        job = make_job(epochs=2, iters_per_epoch=500)
        # E·N / jct.
        assert u(job, 100.0) == pytest.approx(10.0)

    def test_decreasing_in_jct(self):
        u = EffectiveThroughputUtility()
        job = make_job()
        assert u(job, 10.0) > u(job, 20.0)

    def test_weight(self):
        job = make_job(epochs=1, iters_per_epoch=100)
        assert EffectiveThroughputUtility(weight=2.0)(job, 10.0) == pytest.approx(20.0)

    def test_invalid_jct(self):
        with pytest.raises(ValueError):
            EffectiveThroughputUtility()(make_job(), 0.0)


class TestNormalizedThroughput:
    def test_w_over_jct(self):
        u = NormalizedThroughputUtility()
        job = make_job(workers=4)
        assert u(job, 8.0) == pytest.approx(0.5)

    def test_density_is_model_agnostic(self):
        """Payoff density 1/jct: equal-JCT jobs tie regardless of model."""
        u = NormalizedThroughputUtility()
        fast = make_job(0, "resnet18", workers=2)
        slow = make_job(1, "resnet50", workers=2)
        assert u(fast, 100.0) == pytest.approx(u(slow, 100.0))

    def test_density_prefers_shorter(self):
        u = NormalizedThroughputUtility()
        job = make_job(workers=1)
        assert u(job, 60.0) > u(job, 3600.0)


class TestMakespan:
    @pytest.fixture
    def utility(self, matrix):
        return MakespanUtility(matrix=matrix)

    def test_decreasing_in_jct_per_job(self, utility):
        job = make_job()
        assert utility(job, 10.0) > utility(job, 20.0)

    def test_longest_remaining_ranks_first(self, utility, matrix):
        """LPT: with equal JCT estimates, more remaining work → more utility
        per worker."""
        short = JobRuntime(job=make_job(0, "resnet18", epochs=1))
        long = JobRuntime(job=make_job(1, "resnet18", epochs=50))
        jct = 3600.0
        assert utility.value_for(long, jct, 0.0) > utility.value_for(short, jct, 0.0)

    def test_value_for_uses_remaining(self, utility):
        rt = JobRuntime(job=make_job(epochs=10))
        fresh = utility.value_for(rt, 100.0, 0.0)
        rt.iterations_done = rt.job.total_iterations * 0.9
        nearly_done = utility.value_for(rt, 100.0, 0.0)
        assert nearly_done < fresh


class TestFinishTimeFairness:
    @pytest.fixture
    def utility(self, matrix):
        return FinishTimeFairnessUtility(matrix=matrix)

    def test_isolated_duration_uses_best_type(self, utility, matrix):
        job = make_job(model="resnet50", workers=1, epochs=1, iters_per_epoch=100)
        expected = 100.0 / (1 * matrix.max_rate("resnet50"))
        assert utility.isolated_duration(job) == pytest.approx(expected)

    def test_share_validation(self, matrix):
        with pytest.raises(ValueError):
            FinishTimeFairnessUtility(matrix=matrix, isolated_share=0.0)

    def test_decreasing_in_jct_per_job(self, utility):
        job = make_job()
        assert utility(job, 10.0) > utility(job, 20.0)

    def test_drifted_job_gains_weight(self, utility):
        """The same job, evaluated later without progress, matters more."""
        rt = JobRuntime(job=make_job(epochs=5))
        early = utility.value_for(rt, 7200.0, now=0.0)
        late = utility.value_for(rt, 7200.0, now=36000.0)
        assert late > early


MATRIX = default_throughput_matrix()
SHIPPED = (
    EffectiveThroughputUtility(),
    NormalizedThroughputUtility(),
    MakespanUtility(matrix=MATRIX),
    FinishTimeFairnessUtility(matrix=MATRIX),
)
JCTS = st.floats(1e-6, 1e9, allow_nan=False)


@pytest.mark.parametrize("utility", SHIPPED, ids=lambda u: type(u).__name__)
@given(
    model=st.sampled_from(sorted(MODEL_ZOO)),
    workers=st.sampled_from([1, 2, 4, 8]),
    epochs=st.integers(1, 50),
    done=st.floats(0.0, 1.0),
    arrival=st.floats(0.0, 1e6),
    now=st.floats(0.0, 2e6),
    jcts=st.tuples(JCTS, JCTS).map(sorted),
)
@settings(max_examples=100, deadline=None)
def test_value_for_non_negative_and_non_increasing_in_jct(
    utility, model, workers, epochs, done, arrival, now, jcts
):
    """The exact DP's utility bound relies on this, as floats: for one job
    at one time, a shorter JCT is worth at least as much, and nothing is
    worth less than zero."""
    job = make_job(0, model, arrival=arrival, workers=workers, epochs=epochs)
    rt = JobRuntime(job=job)
    rt.iterations_done = job.total_iterations * done
    short, long = jcts
    assert utility.value_for(rt, short, now) >= utility.value_for(rt, long, now) >= 0.0


def test_every_shipped_utility_overrides_value_for():
    from repro.core.utility import Utility

    assert all(type(u).value_for is not Utility.value_for for u in SHIPPED)


PURE_ONLINE_FORMS = (
    (EffectiveThroughputUtility(), None),
    (NormalizedThroughputUtility(), None),
    (MakespanUtility(matrix=MATRIX), 0.0),
)
"""Each shipped utility whose online form has a pure case, with the
progress that case needs (``None``: any).  The fairness utility weights
by the job's drift since arrival, so its online form has none."""


@pytest.mark.parametrize(
    "utility, progress", PURE_ONLINE_FORMS, ids=lambda u: type(u).__name__
)
@given(
    model=st.sampled_from(sorted(MODEL_ZOO)),
    workers=st.sampled_from([1, 2, 4, 8]),
    epochs=st.integers(1, 50),
    done=st.floats(0.0, 1.0),
    arrival=st.floats(0.0, 1e6),
    now=st.floats(0.0, 2e6),
    jct=JCTS,
)
@settings(max_examples=100, deadline=None)
def test_value_for_is_value_bit_for_bit_where_the_online_form_is_pure(
    utility, progress, model, workers, epochs, done, arrival, now, jct
):
    """The throughput utilities override ``value_for`` with ``value``'s own
    expression: at any progress and time, the online form is the pure one
    bit for bit.  So is the makespan utility's before any progress, when
    the remaining work is the job's total."""
    job = make_job(0, model, arrival=arrival, workers=workers, epochs=epochs)
    rt = JobRuntime(job=job)
    rt.iterations_done = job.total_iterations * (done if progress is None else progress)
    assert utility.value_for(rt, jct, now).hex() == utility.value(job, jct).hex()
