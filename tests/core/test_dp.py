"""Unit tests for the DP_allocation dual subroutine."""

import pytest

from repro.core.dp import DPAllocator, DPConfig
from repro.core.pricing import PriceBook
from repro.core.round_context import RoundContext
from repro.core.utility import NormalizedThroughputUtility
from repro.sim.progress import JobRuntime, JobState

from tests.conftest import make_job

NO_DELAY = lambda rt: 0.0  # noqa: E731


def queued(job):
    rt = JobRuntime(job=job)
    rt.state = JobState.QUEUED
    return rt


def allocator_for(jobs, cluster, matrix, config=None):
    utility = NormalizedThroughputUtility()
    prices = PriceBook.calibrate(
        jobs=jobs, matrix=matrix, utility=utility,
        state=cluster.fresh_state(), now=0.0,
    )
    context = RoundContext(
        prices=prices, matrix=matrix, cluster=cluster, utility=utility,
        now=0.0, delay_estimator=NO_DELAY, state=cluster.fresh_state(),
    )
    return DPAllocator(context, config or DPConfig())


class TestExactDP:
    def test_everything_fits_everything_admitted(self, no_comm_cluster, matrix):
        jobs = [queued(make_job(i, "resnet18", workers=1)) for i in range(3)]
        alloc = allocator_for(jobs, no_comm_cluster, matrix)
        chosen = alloc.allocate(jobs, no_comm_cluster.fresh_state())
        assert set(chosen) == {0, 1, 2}

    def test_capacity_respected_under_contention(self, no_comm_cluster, matrix):
        # 9 GPUs total; ask for 4 × 4 = 16.
        jobs = [queued(make_job(i, "resnet18", workers=4)) for i in range(4)]
        alloc = allocator_for(jobs, no_comm_cluster, matrix)
        state = no_comm_cluster.fresh_state()
        chosen = alloc.allocate(jobs, state)
        assert 1 <= len(chosen) <= 2
        assert state.total_used() == 4 * len(chosen)

    def test_state_mutated_with_result(self, no_comm_cluster, matrix):
        jobs = [queued(make_job(0, "resnet18", workers=2))]
        alloc = allocator_for(jobs, no_comm_cluster, matrix)
        state = no_comm_cluster.fresh_state()
        chosen = alloc.allocate(jobs, state)
        assert state.total_used() == sum(
            c.allocation.total_workers for c in chosen.values()
        )

    def test_empty_queue(self, no_comm_cluster, matrix):
        alloc = allocator_for(
            [queued(make_job(0))], no_comm_cluster, matrix
        )
        assert alloc.allocate([], no_comm_cluster.fresh_state()) == {}

    def test_disjoint_allocations(self, no_comm_cluster, matrix):
        jobs = [queued(make_job(i, "resnet18", workers=2)) for i in range(4)]
        alloc = allocator_for(jobs, no_comm_cluster, matrix)
        chosen = alloc.allocate(jobs, no_comm_cluster.fresh_state())
        probe = no_comm_cluster.fresh_state()
        for cand in chosen.values():
            probe.allocate(cand.allocation)  # raises on overlap


class TestUtilityBound:
    def test_uncontended_queue_counters(self, no_comm_cluster, matrix):
        """Eight one-GPU jobs on nine GPUs: every job fits, so the allocate
        branch wins everywhere and the bound cuts most skip branches.  The
        counters are deterministic, so they are pinned exactly: 20 exact-DP
        ``FIND_ALLOC`` calls (36 with every skip branch explored) plus 16
        from the payoff-density greedy's ranking and allocation walks."""
        models = ("resnet18", "resnet50", "cyclegan", "transformer", "a3c")
        jobs = [
            queued(make_job(i, models[i % len(models)], workers=1))
            for i in range(8)
        ]
        alloc = allocator_for(jobs, no_comm_cluster, matrix)
        chosen = alloc.allocate(jobs, no_comm_cluster.fresh_state())
        assert set(chosen) == set(range(8))
        stats = alloc.context.stats
        assert stats.find_alloc_calls == 20 + 16
        assert stats.dp_prunes == 12

    def test_cost_objective_never_prunes(self, no_comm_cluster, matrix):
        jobs = [queued(make_job(i, "resnet18", workers=1)) for i in range(8)]
        alloc = allocator_for(
            jobs, no_comm_cluster, matrix, DPConfig(branch_objective="cost")
        )
        alloc.allocate(jobs, no_comm_cluster.fresh_state())
        assert alloc.context.stats.dp_prunes == 0


class TestGreedyFallback:
    def test_large_queue_uses_greedy(self, no_comm_cluster, matrix):
        config = DPConfig(queue_limit=2)
        jobs = [queued(make_job(i, "resnet18", workers=1)) for i in range(6)]
        alloc = allocator_for(jobs, no_comm_cluster, matrix, config)
        chosen = alloc.allocate(jobs, no_comm_cluster.fresh_state())
        assert len(chosen) == 6  # all fit on 9 GPUs

    def test_greedy_only_mode(self, no_comm_cluster, matrix):
        config = DPConfig(queue_limit=0)
        jobs = [queued(make_job(i, "resnet18", workers=4)) for i in range(3)]
        alloc = allocator_for(jobs, no_comm_cluster, matrix, config)
        state = no_comm_cluster.fresh_state()
        chosen = alloc.allocate(jobs, state)
        assert len(chosen) >= 1
        assert state.total_used() == 4 * len(chosen)

    def test_greedy_matches_exact_on_easy_instance(self, no_comm_cluster, matrix):
        """When everything fits, DP and greedy admit identical job sets."""
        jobs = [queued(make_job(i, "cyclegan", workers=1)) for i in range(4)]
        exact = allocator_for(jobs, no_comm_cluster, matrix, DPConfig(queue_limit=10))
        greedy = allocator_for(jobs, no_comm_cluster, matrix, DPConfig(queue_limit=0))
        chosen_exact = exact.allocate(jobs, no_comm_cluster.fresh_state())
        chosen_greedy = greedy.allocate(jobs, no_comm_cluster.fresh_state())
        assert set(chosen_exact) == set(chosen_greedy)

    def test_exact_no_worse_than_greedy(self, no_comm_cluster, matrix):
        """The DP's total payoff must dominate the greedy's."""
        jobs = [
            queued(make_job(0, "resnet18", workers=4)),
            queued(make_job(1, "resnet50", workers=4)),
            queued(make_job(2, "transformer", workers=2)),
            queued(make_job(3, "cyclegan", workers=2)),
        ]
        exact = allocator_for(jobs, no_comm_cluster, matrix, DPConfig(queue_limit=10))
        greedy = allocator_for(jobs, no_comm_cluster, matrix, DPConfig(queue_limit=0))
        payoff_exact = sum(
            c.payoff
            for c in exact.allocate(jobs, no_comm_cluster.fresh_state()).values()
        )
        payoff_greedy = sum(
            c.payoff
            for c in greedy.allocate(jobs, no_comm_cluster.fresh_state()).values()
        )
        assert payoff_exact >= payoff_greedy - 1e-9


class TestCostBranchObjective:
    def test_cost_branch_runs(self, no_comm_cluster, matrix):
        config = DPConfig(branch_objective="cost")
        jobs = [queued(make_job(i, "resnet18", workers=2)) for i in range(3)]
        alloc = allocator_for(jobs, no_comm_cluster, matrix, config)
        chosen = alloc.allocate(jobs, no_comm_cluster.fresh_state())
        # The literal objective still returns a capacity-feasible plan.
        probe = no_comm_cluster.fresh_state()
        for cand in chosen.values():
            probe.allocate(cand.allocation)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            DPConfig(queue_limit=-1)
        with pytest.raises(ValueError):
            DPConfig(state_limit=0)
        with pytest.raises(ValueError):
            DPConfig(branch_objective="magic")
