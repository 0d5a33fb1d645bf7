"""Property-based tests: Gavel's allocation LP."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.gavel.solver import POLICIES, solve_allocation_lp

from tests.baselines._gavel_reference import (
    dense_max_min_lp,
    dense_max_sum_lp,
    min_scaled_throughput,
    water_filling_allocation,
)

DENSE = {"max-min": dense_max_min_lp, "max-sum": dense_max_sum_lp}


@st.composite
def instances(draw):
    jobs = draw(st.integers(1, 5))
    types = draw(st.integers(1, 4))
    speeds = draw(
        hnp.arrays(
            float,
            (jobs, types),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    # Every job must run somewhere; pin its best column to 1.
    for j in range(jobs):
        speeds[j, draw(st.integers(0, types - 1))] = 1.0
    workers = draw(
        hnp.arrays(float, (jobs,), elements=st.sampled_from([1.0, 2.0, 4.0]))
    )
    capacity = draw(
        hnp.arrays(float, (types,), elements=st.sampled_from([1.0, 2.0, 4.0, 8.0]))
    )
    return speeds, workers, capacity


def check_feasible(y, speeds, workers, capacity):
    assert np.all(y >= -1e-8)
    assert np.all(y.sum(axis=1) <= 1.0 + 1e-6)
    assert np.all((y * workers[:, None]).sum(axis=0) <= capacity + 1e-6)


@given(inst=instances())
@settings(max_examples=40, deadline=None)
def test_lp_feasible_and_bounded(inst):
    speeds, workers, capacity = inst
    y = solve_allocation_lp(speeds, workers, capacity)
    check_feasible(y, speeds, workers, capacity)
    # Normalized throughput can never exceed 1 (full time on the best type).
    assert min_scaled_throughput(y, speeds) <= 1.0 + 1e-6


@given(inst=instances())
@settings(max_examples=25, deadline=None)
def test_water_filling_feasible_and_dominated_by_lp(inst):
    speeds, workers, capacity = inst
    y_wf = water_filling_allocation(speeds, workers, capacity, step=0.05)
    check_feasible(y_wf, speeds, workers, capacity)
    m_lp = min_scaled_throughput(solve_allocation_lp(speeds, workers, capacity), speeds)
    m_wf = min_scaled_throughput(y_wf, speeds)
    assert m_wf <= m_lp + 1e-6


@st.composite
def sparse_instances(draw):
    """Instances with zero speeds and with types too small for a gang
    (capacity 0 or below some job's W)."""
    jobs = draw(st.integers(1, 6))
    types = draw(st.integers(1, 4))
    speeds = draw(
        hnp.arrays(
            float,
            (jobs, types),
            elements=st.one_of(
                st.just(0.0), st.floats(0.0, 1.0, allow_nan=False)
            ),
        )
    )
    for j in range(jobs):
        speeds[j, draw(st.integers(0, types - 1))] = 1.0
    workers = draw(
        hnp.arrays(float, (jobs,), elements=st.sampled_from([1.0, 2.0, 4.0, 8.0]))
    )
    capacity = draw(
        hnp.arrays(float, (types,), elements=st.sampled_from([0.0, 1.0, 2.0, 4.0]))
    )
    return speeds, workers, capacity


@given(inst=sparse_instances(), policy=st.sampled_from(POLICIES))
@settings(max_examples=60, deadline=None)
def test_sparse_build_solves_exactly_like_the_dense_specification(inst, policy):
    """The shipped builder stores only nonzeros; HiGHS must still return
    the dense specification's solution bit for bit."""
    speeds, workers, capacity = inst
    y = solve_allocation_lp(speeds, workers, capacity, policy=policy)
    assert np.array_equal(y, DENSE[policy](speeds, workers, capacity))
