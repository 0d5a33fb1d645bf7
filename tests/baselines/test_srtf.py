"""Unit tests for the SRTF extension baseline."""

import pytest

from repro.baselines.srtf import SRTFScheduler
from repro.baselines.yarn import YarnCapacityScheduler
from repro.metrics.jct import jct_stats
from repro.sim.checkpoint import NoOverheadCheckpoint
from repro.sim.engine import simulate
from repro.workload.trace import Trace

from tests.conftest import make_job


class TestSRTF:
    def test_completes_trace(self, no_comm_cluster, matrix, tiny_trace):
        result = simulate(no_comm_cluster, tiny_trace, SRTFScheduler(), matrix=matrix)
        assert result.all_completed
        assert result.scheduler_name == "srtf"

    def test_shortest_first_under_contention(self, no_comm_cluster, matrix):
        """Both jobs want the whole cluster; the short one must finish first
        even though the long one arrived first."""
        long_job = make_job(0, "resnet18", workers=9, epochs=100)
        short_job = make_job(1, "resnet18", arrival=1.0, workers=9, epochs=2)
        result = simulate(
            no_comm_cluster, Trace([long_job, short_job]), SRTFScheduler(),
            matrix=matrix, checkpoint=NoOverheadCheckpoint(),
        )
        assert result.runtimes[1].finish_time < result.runtimes[0].finish_time

    def test_heterogeneity_aware_placement(self, no_comm_cluster, matrix):
        """A lone resnet50 lands on V100s (its 10×-faster type)."""
        trace = Trace([make_job(0, "resnet50", workers=2, epochs=1)])
        result = simulate(no_comm_cluster, trace, SRTFScheduler(), matrix=matrix,
                          checkpoint=NoOverheadCheckpoint())
        ideal = trace[0].total_iterations / (2 * matrix.rate("resnet50", "V100"))
        assert result.runtimes[0].finish_time == pytest.approx(ideal, rel=1e-6)

    def test_beats_fifo_on_mean_jct(self, no_comm_cluster, matrix, philly_trace_small):
        trace = Trace([j for j in philly_trace_small if j.num_workers <= 4])
        srtf = simulate(no_comm_cluster, trace, SRTFScheduler(), matrix=matrix)
        yarn = simulate(no_comm_cluster, trace, YarnCapacityScheduler(), matrix=matrix)
        assert jct_stats(srtf).mean < jct_stats(yarn).mean

    def test_mixes_types_when_needed(self, no_comm_cluster, matrix):
        """Like Hadar, SRTF packs across types when no type has W devices."""
        trace = Trace([make_job(0, "resnet18", workers=6, epochs=1)])
        result = simulate(no_comm_cluster, trace, SRTFScheduler(), matrix=matrix,
                          checkpoint=NoOverheadCheckpoint())
        assert result.all_completed


class TestGavelMaxSum:
    def test_policy_runs_and_differs_from_max_min(
        self, no_comm_cluster, matrix, philly_trace_small
    ):
        from repro.baselines.gavel import GavelConfig, GavelScheduler

        trace = Trace([j for j in philly_trace_small if j.num_workers <= 3])
        max_min = simulate(no_comm_cluster, trace, GavelScheduler(), matrix=matrix)
        max_sum = simulate(
            no_comm_cluster, trace,
            GavelScheduler(GavelConfig(policy="max-sum")), matrix=matrix,
        )
        assert max_min.all_completed and max_sum.all_completed

    def test_max_sum_lp_shape(self):
        import numpy as np

        from repro.baselines.gavel.solver import solve_allocation_lp

        # One fast-affine job, one indifferent: utilitarian optimum gives
        # the fast type to the job that exploits it.
        speeds = np.array([[1.0, 0.1], [1.0, 1.0]])
        y = solve_allocation_lp(
            speeds, np.array([1.0, 1.0]), np.array([1.0, 1.0]), policy="max-sum"
        )
        total = float((y * speeds).sum())
        assert total == pytest.approx(2.0, abs=1e-6)

    def test_policy_validation(self):
        from repro.baselines.gavel import GavelConfig

        with pytest.raises(ValueError):
            GavelConfig(policy="max-entropy")
