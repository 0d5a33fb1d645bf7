"""Unit tests for Gavel's allocation LP, cross-checked against the
test-side water-filling approximation."""

import numpy as np
import pytest

from repro.baselines.gavel.solver import solve_allocation_lp

from tests.baselines._gavel_reference import (
    min_scaled_throughput,
    water_filling_allocation,
)


def check_feasible(y, workers, capacity):
    assert np.all(y >= -1e-9)
    assert np.all(y.sum(axis=1) <= 1.0 + 1e-6)
    assert np.all((y * workers[:, None]).sum(axis=0) <= capacity + 1e-6)


class TestLP:
    def test_single_job_gets_best_type(self):
        speeds = np.array([[1.0, 0.3]])
        y = solve_allocation_lp(speeds, np.array([1.0]), np.array([4.0, 4.0]))
        check_feasible(y, np.array([1.0]), np.array([4.0, 4.0]))
        assert min_scaled_throughput(y, speeds) == pytest.approx(1.0)

    def test_two_jobs_ample_capacity(self):
        speeds = np.array([[1.0, 0.5], [0.5, 1.0]])
        workers = np.array([1.0, 1.0])
        capacity = np.array([2.0, 2.0])
        y = solve_allocation_lp(speeds, workers, capacity)
        check_feasible(y, workers, capacity)
        assert min_scaled_throughput(y, speeds) == pytest.approx(1.0)

    def test_contended_capacity_shares_fairly(self):
        # Two identical jobs, one device of the only useful type.
        speeds = np.array([[1.0], [1.0]])
        workers = np.array([1.0, 1.0])
        capacity = np.array([1.0])
        y = solve_allocation_lp(speeds, workers, capacity)
        check_feasible(y, workers, capacity)
        assert min_scaled_throughput(y, speeds) == pytest.approx(0.5)

    def test_heterogeneous_example(self):
        """The classic Gavel intuition: the low-speedup job should take the
        slow type, freeing the fast type for the high-speedup job."""
        # Job 0: 10× faster on type 0.  Job 1: indifferent.
        speeds = np.array([[1.0, 0.1], [1.0, 1.0]])
        workers = np.array([1.0, 1.0])
        capacity = np.array([1.0, 1.0])
        y = solve_allocation_lp(speeds, workers, capacity)
        m = min_scaled_throughput(y, speeds)
        # Assigning job 0 → type 0, job 1 → type 1 achieves 1.0.
        assert m == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_allocation_lp(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            solve_allocation_lp(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            solve_allocation_lp(np.array([[1.0]]), np.array([1.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            solve_allocation_lp(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="unknown policy"):
            solve_allocation_lp(
                np.array([[1.0]]), np.array([1.0]), np.array([1.0]), policy="magic"
            )


class TestWaterFilling:
    @pytest.mark.parametrize(
        "speeds,workers,capacity",
        [
            (np.array([[1.0, 0.3]]), np.array([1.0]), np.array([4.0, 4.0])),
            (np.array([[1.0], [1.0]]), np.array([1.0, 1.0]), np.array([1.0])),
            (
                np.array([[1.0, 0.1], [1.0, 1.0]]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
            ),
            (
                np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.6], [0.9, 0.8, 1.0]]),
                np.array([2.0, 1.0, 4.0]),
                np.array([4.0, 2.0, 6.0]),
            ),
        ],
    )
    def test_tracks_lp_objective(self, speeds, workers, capacity):
        """The in-repo approximation stays within 10% + step of the LP."""
        y_lp = solve_allocation_lp(speeds, workers, capacity)
        y_wf = water_filling_allocation(speeds, workers, capacity, step=0.01)
        check_feasible(y_wf, workers, capacity)
        m_lp = min_scaled_throughput(y_lp, speeds)
        m_wf = min_scaled_throughput(y_wf, speeds)
        assert m_wf >= 0.9 * m_lp - 0.02

    def test_never_exceeds_lp(self):
        speeds = np.array([[1.0], [1.0]])
        workers = np.array([1.0, 1.0])
        capacity = np.array([1.0])
        m_lp = min_scaled_throughput(
            solve_allocation_lp(speeds, workers, capacity), speeds
        )
        m_wf = min_scaled_throughput(
            water_filling_allocation(speeds, workers, capacity), speeds
        )
        assert m_wf <= m_lp + 1e-6

    def test_step_validation(self):
        with pytest.raises(ValueError):
            water_filling_allocation(
                np.array([[1.0]]), np.array([1.0]), np.array([1.0]), step=0.0
            )

    def test_deterministic(self):
        speeds = np.array([[1.0, 0.4], [0.7, 1.0]])
        workers = np.array([1.0, 2.0])
        capacity = np.array([2.0, 2.0])
        a = water_filling_allocation(speeds, workers, capacity)
        b = water_filling_allocation(speeds, workers, capacity)
        np.testing.assert_array_equal(a, b)
