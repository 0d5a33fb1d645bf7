"""Unit tests for Gavel's policy layer and round-based scheduler."""

import json
from pathlib import Path

import pytest

from repro.baselines.gavel import GavelConfig, GavelScheduler
from repro.baselines.gavel.policy import max_min_allocation_matrix
from repro.sim.checkpoint import NoOverheadCheckpoint
from repro.sim.engine import simulate
from repro.sim.progress import JobRuntime, JobState
from repro.workload.trace import Trace

from tests.conftest import make_job
from tests.core._hotpath_fingerprint import SEEDS, digest, fingerprint, run_scheduler

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "core" / "golden_hotpath.json").read_text()
)


def queued(job):
    rt = JobRuntime(job=job)
    rt.state = JobState.QUEUED
    return rt


class TestPolicy:
    def test_matrix_shape_and_lookup(self, small_cluster, matrix):
        jobs = [queued(make_job(i, "resnet18", workers=1)) for i in range(3)]
        am = max_min_allocation_matrix(
            jobs, small_cluster.gpu_types, small_cluster.capacity_by_type(), matrix
        )
        assert am.values.shape == (3, 3)
        assert 0.0 <= am.fraction(0, "V100") <= 1.0
        assert am.fraction(99, "V100") == 0.0  # unknown id

    def test_row(self, small_cluster, matrix):
        jobs = [queued(make_job(0, "resnet18", workers=1))]
        am = max_min_allocation_matrix(
            jobs, small_cluster.gpu_types, small_cluster.capacity_by_type(), matrix
        )
        row = am.row(0)
        assert set(row) == {"K80", "P100", "V100"}

    def test_gang_infeasible_type_zeroed(self, small_cluster, matrix):
        """A type with fewer devices than W_j must get zero share."""
        jobs = [queued(make_job(0, "resnet18", workers=3))]  # K80 has only 2
        am = max_min_allocation_matrix(
            jobs, small_cluster.gpu_types, small_cluster.capacity_by_type(), matrix
        )
        assert am.fraction(0, "K80") == 0.0

    def test_fully_infeasible_job_raises(self, small_cluster, matrix):
        jobs = [queued(make_job(0, "resnet18", workers=5))]  # max type cap 4
        with pytest.raises(ValueError, match="single GPU type"):
            max_min_allocation_matrix(
                jobs, small_cluster.gpu_types, small_cluster.capacity_by_type(), matrix
            )

    def test_empty_jobs(self, small_cluster, matrix):
        am = max_min_allocation_matrix(
            [], small_cluster.gpu_types, small_cluster.capacity_by_type(), matrix
        )
        assert am.values.shape == (0, 3)


class TestScheduler:
    def test_homogeneous_gangs_always(self, no_comm_cluster, matrix, philly_trace_small):
        """Gavel's defining constraint: one GPU type per job per round."""
        seen_types: list[frozenset] = []

        class Spy(GavelScheduler):
            def schedule(self, ctx):
                target = super().schedule(ctx)
                seen_types.extend(a.gpu_types for a in target.values() if a)
                return target

        trace = Trace([j for j in philly_trace_small if j.num_workers <= 3])
        result = simulate(no_comm_cluster, trace, Spy(), matrix=matrix,
                          checkpoint=NoOverheadCheckpoint())
        assert result.all_completed
        assert seen_types and all(len(types) == 1 for types in seen_types)

    def test_completes_tiny_trace(self, no_comm_cluster, matrix, tiny_trace):
        result = simulate(no_comm_cluster, tiny_trace, GavelScheduler(), matrix=matrix)
        assert result.all_completed

    def test_matrix_cache_invalidated_on_job_change(self, no_comm_cluster, matrix):
        scheduler = GavelScheduler()
        trace = Trace(
            [
                make_job(0, "resnet18", workers=1, epochs=1),
                make_job(1, "resnet50", arrival=3600.0, workers=1, epochs=1),
            ]
        )
        result = simulate(no_comm_cluster, trace, scheduler, matrix=matrix)
        assert result.all_completed

    def test_reset_clears_cache(self):
        scheduler = GavelScheduler()
        scheduler._cached_key = (1, 2)
        scheduler.reset()
        assert scheduler._cached_key is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GavelConfig(min_fraction=-0.1)

    def test_one_scheduler_over_several_traces_matches_fresh_ones(self):
        """Job ids name jobs only within one trace: every seed reuses ids
        0-13 with other models, so an LP memo that outlived ``reset()``
        would hand one trace another trace's allocation matrix."""
        scheduler = GavelScheduler()
        for seed in (*SEEDS, SEEDS[0]):
            result = run_scheduler(scheduler, seed)
            assert digest(fingerprint(result)) == GOLDEN[f"gavel/{seed}"]["sha256"]

    def test_shares_time_across_jobs(self, no_comm_cluster, matrix):
        """Max-min: two contending identical jobs both make progress early."""
        jobs = [
            make_job(0, "resnet18", workers=4, epochs=30),
            make_job(1, "resnet18", workers=4, epochs=30),
        ]
        # Only 4 V100s: the jobs must alternate on them (or split types).
        result = simulate(
            no_comm_cluster, Trace(jobs), GavelScheduler(), matrix=matrix,
            checkpoint=NoOverheadCheckpoint(),
        )
        assert result.all_completed
        starts = [result.runtimes[i].first_start_time for i in (0, 1)]
        assert max(starts) < 3600.0  # neither starved at the start
