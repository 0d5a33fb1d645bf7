"""InvariantSanitizer: each invariant's negative path fires the right rule,
and sanitized end-to-end runs of every scheduler stay violation-free."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.sanitizer import InvariantSanitizer, InvariantViolation
from repro.baselines.gavel.policy import AllocationMatrix
from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState
from repro.core import HadarScheduler, ProfilingScheduler
from repro.core.pricing import PriceBook
from repro.core.scheduler import HadarConfig, RoundAudit
from repro.sim.engine import simulate
from repro.sim.progress import JobRuntime, JobState
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace
from tests.conftest import make_job


def running(job_id, workers, placements):
    rt = JobRuntime(job=make_job(job_id, workers=workers))
    rt.state = JobState.RUNNING
    rt.allocation = Allocation(placements)
    return rt


class TestCapacityConservation:
    def test_gang_holding_unaccounted_devices_fires(self):
        state = ClusterState({(0, "V100"): 4})  # all free, yet a gang "runs"
        rt = running(0, 2, {(0, "V100"): 2})
        sanitizer = InvariantSanitizer()
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.check_capacity(state, [rt], round_index=3, now=720.0)
        assert exc.value.rule == "capacity"
        assert exc.value.round_index == 3
        assert exc.value.details["held_by_gangs"] == 2
        assert exc.value.details["state_used"] == 0

    def test_over_capacity_free_count_fires(self):
        state = ClusterState({(0, "V100"): 4})
        state._free[(0, "V100")] = 6  # simulated memory corruption
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_capacity(state)
        assert exc.value.rule == "capacity"

    def test_gang_on_unknown_slot_fires(self):
        state = ClusterState({(0, "V100"): 4})
        rt = running(0, 1, {(9, "K80"): 1})
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_capacity(state, [rt])
        assert exc.value.rule == "capacity"
        assert exc.value.details["slot"] == (9, "K80")

    def test_consistent_state_passes(self):
        state = ClusterState({(0, "V100"): 4, (1, "K80"): 2})
        rt = running(0, 3, {(0, "V100"): 3})
        state.allocate(rt.allocation)
        InvariantSanitizer().check_capacity(state, [rt])


class TestGangCompleteness:
    def test_short_gang_fires(self):
        rt = running(7, 4, {(0, "V100"): 2})  # needs 4, holds 2
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_gangs([rt], now=360.0)
        assert exc.value.rule == "gang"
        assert exc.value.job_id == 7
        assert exc.value.details == {"held": 2, "num_workers": 4}

    def test_queued_job_holding_devices_fires(self):
        rt = JobRuntime(job=make_job(1, workers=2))
        rt.state = JobState.QUEUED
        rt.allocation = Allocation.single(0, "V100", 2)
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_gangs([rt])
        assert exc.value.rule == "gang"

    def test_full_gang_passes(self):
        rt = running(0, 4, {(0, "V100"): 2, (1, "K80"): 2})
        InvariantSanitizer().check_gangs([rt])


class TestLiveSetWalks:
    """``on_round`` walks the engine's live set; the gang check still sees
    every job outside it once: on the first round over a table, and when
    a job leaves the set."""

    @staticmethod
    def sweep(sanitizer, runtimes, live, state):
        sanitizer.on_round(
            round_index=sanitizer.rounds_checked + 1, now=0.0, runtimes=runtimes,
            state=state, scheduler=None, live=live,
        )

    def test_job_leaving_the_live_set_still_holding_devices_fires(self):
        state = ClusterState({(0, "V100"): 4})
        rt = running(1, 2, {(0, "V100"): 2})
        state.allocate(rt.allocation)
        table = {1: rt}
        sanitizer = InvariantSanitizer()
        self.sweep(sanitizer, table, {1: rt}, state)
        rt.state = JobState.COMPLETE  # finalized without releasing its gang
        state.release(rt.allocation)
        with pytest.raises(InvariantViolation) as exc:
            self.sweep(sanitizer, table, {}, state)
        assert exc.value.rule == "gang" and exc.value.job_id == 1
        # Once reported, the finished job is not walked again.
        sanitizer.mode = "collect"
        self.sweep(sanitizer, table, {}, state)
        assert len(sanitizer.violations) == 1

    def test_first_round_over_a_table_walks_every_job(self):
        rt = JobRuntime(job=make_job(3, workers=1))  # PENDING
        rt.allocation = Allocation.single(0, "V100", 1)
        with pytest.raises(InvariantViolation) as exc:
            self.sweep(
                InvariantSanitizer(), {3: rt}, {}, ClusterState({(0, "V100"): 4})
            )
        assert exc.value.rule == "gang" and exc.value.job_id == 3


class TestPriceBounds:
    def test_out_of_bounds_price_fires(self):
        class BrokenPrices:
            u_min = {"V100": 1.0}
            u_max = {"V100": 2.0}

            def price(self, node_id, type_name, state):
                return 5.0  # escaped U_max

        state = ClusterState({(0, "V100"): 4})
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_price_bounds(BrokenPrices(), state)
        assert exc.value.rule == "price-bounds"
        assert exc.value.details["u_max"] == 2.0

    def test_corrupted_occupancy_escapes_bounds(self):
        # free > capacity means γ < 0, pushing Eq. 5 below U_min.
        prices = PriceBook(u_min={"V100": 1.0}, u_max={"V100": 8.0}, eta=1.0)
        state = ClusterState({(0, "V100"): 4})
        state._free[(0, "V100")] = 8
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_price_bounds(prices, state)
        assert exc.value.rule == "price-bounds"

    def test_calibrated_book_within_bounds_at_any_occupancy(self):
        prices = PriceBook(u_min={"V100": 1.0}, u_max={"V100": 8.0}, eta=1.0)
        state = ClusterState({(0, "V100"): 4})
        sanitizer = InvariantSanitizer()
        for _ in range(4):
            sanitizer.check_price_bounds(prices, state)
            state.allocate(Allocation.single(0, "V100", 1))
        sanitizer.check_price_bounds(prices, state)
        assert sanitizer.ok


class TestPayoffPositivity:
    def test_non_positive_payoff_fires(self):
        chosen = {3: SimpleNamespace(payoff=0.0, utility=1.0, cost=1.0)}
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_payoffs(chosen, round_index=1)
        assert exc.value.rule == "payoff"
        assert exc.value.job_id == 3

    def test_nan_payoff_fires(self):
        chosen = {0: SimpleNamespace(payoff=float("nan"), utility=1.0, cost=1.0)}
        with pytest.raises(InvariantViolation):
            InvariantSanitizer().check_payoffs(chosen)

    def test_positive_payoffs_pass(self):
        chosen = {
            0: SimpleNamespace(payoff=0.5, utility=1.0, cost=0.5),
            1: SimpleNamespace(payoff=2.0, utility=3.0, cost=1.0),
        }
        InvariantSanitizer().check_payoffs(chosen)


class TestPrimalDualIncrement:
    @staticmethod
    def record(primal, dual, alpha):
        return RoundAudit(
            now=0.0,
            primal_increment=primal,
            dual_increment=dual,
            alpha=alpha,
            jobs_admitted=1,
            total_payoff=primal,
            total_cost=0.0,
        )

    def test_lemma2_violation_fires(self):
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_round_audit(self.record(0.4, 2.0, 1.0))
        assert exc.value.rule == "primal-dual"
        assert exc.value.details["bound"] == pytest.approx(2.0)

    def test_alpha_scales_the_bound(self):
        # primal 0.5 ≥ dual 2.0 / α 4.0 = 0.5: satisfied exactly.
        InvariantSanitizer().check_round_audit(self.record(0.5, 2.0, 4.0))

    def test_tolerance_absorbs_float_noise(self):
        InvariantSanitizer().check_round_audit(
            self.record(1.0 - 1e-12, 1.0, 1.0)
        )


def matrix(job_ids, types, rows):
    return AllocationMatrix(
        job_ids=tuple(job_ids),
        types=tuple(types),
        values=np.array(rows, dtype=float),
    )


class TestGavelFeasibility:
    TYPES = ("V100", "K80")
    CAPACITY = {"V100": 4, "K80": 4}

    def test_entry_outside_unit_interval_fires(self):
        y = matrix([0], self.TYPES, [[1.5, 0.0]])
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_gavel_feasibility(
                y, {0: 1}, self.CAPACITY, round_index=2
            )
        assert exc.value.rule == "gavel-feasibility"
        assert exc.value.job_id == 0
        assert exc.value.details["fraction"] == 1.5

    def test_row_sum_past_one_fires(self):
        # Each entry is a legal fraction, but the job would spend 140%
        # of its time running.
        y = matrix([7], self.TYPES, [[0.8, 0.6]])
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_gavel_feasibility(
                y, {7: 2}, self.CAPACITY
            )
        assert exc.value.rule == "gavel-feasibility"
        assert exc.value.details["row_sum"] == pytest.approx(1.4)

    def test_capacity_overcommit_fires(self):
        # Rows are fine individually; together they promise 3 gangs of 4
        # workers full-time on 4 V100s.
        y = matrix([0, 1, 2], self.TYPES, [[1.0, 0.0]] * 3)
        workers = {0: 4, 1: 4, 2: 4}
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_gavel_feasibility(
                y, workers, self.CAPACITY
            )
        assert exc.value.rule == "gavel-feasibility"
        assert exc.value.details["type"] == "V100"
        assert exc.value.details["weighted_demand"] == pytest.approx(12.0)
        assert exc.value.details["capacity"] == 4.0

    def test_feasible_matrix_passes(self):
        # 2 workers × (0.5 + 0.5) + 4 workers × 0.5 on each type = 3 ≤ 4.
        y = matrix([0, 1], self.TYPES, [[0.5, 0.5], [0.5, 0.5]])
        sanitizer = InvariantSanitizer()
        sanitizer.check_gavel_feasibility(y, {0: 2, 1: 4}, self.CAPACITY)
        assert sanitizer.ok

    def test_tolerance_absorbs_lp_noise(self):
        y = matrix([0], self.TYPES, [[1.0 + 1e-9, 0.0]])
        sanitizer = InvariantSanitizer(rel_tol=1e-6)
        sanitizer.check_gavel_feasibility(y, {0: 4}, self.CAPACITY)
        assert sanitizer.ok


def las(job_id, attained, state=JobState.QUEUED):
    rt = JobRuntime(job=make_job(job_id, workers=1))
    rt.state = state
    rt.attained_service = attained
    return rt


class TestTiresiasMonotonicity:
    THRESHOLD = 3600.0

    def test_promotion_back_to_high_queue_fires(self):
        sanitizer = InvariantSanitizer()
        rt = las(4, 5000.0)
        sanitizer.check_tiresias_monotonicity({4}, {4: rt}, self.THRESHOLD)
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.check_tiresias_monotonicity(
                set(), {4: rt}, self.THRESHOLD, round_index=9
            )
        assert exc.value.rule == "queue-monotonicity"
        assert exc.value.job_id == 4

    def test_premature_demotion_fires(self):
        rt = las(1, 100.0)  # far below the threshold, yet demoted
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_tiresias_monotonicity(
                {1}, {1: rt}, self.THRESHOLD
            )
        assert exc.value.rule == "queue-monotonicity"
        assert exc.value.details["attained_service"] == 100.0

    def test_missed_demotion_fires(self):
        rt = las(2, 5000.0)  # past the threshold but still in queue 0
        with pytest.raises(InvariantViolation) as exc:
            InvariantSanitizer().check_tiresias_monotonicity(
                set(), {2: rt}, self.THRESHOLD
            )
        assert exc.value.rule == "queue-monotonicity"
        assert exc.value.job_id == 2

    def test_completed_job_is_exempt_from_demotion(self):
        # A job can cross the threshold in its final round, after the
        # last demotion sweep that would ever see it.
        rt = las(3, 5000.0, state=JobState.COMPLETE)
        sanitizer = InvariantSanitizer()
        sanitizer.check_tiresias_monotonicity(set(), {3: rt}, self.THRESHOLD)
        assert sanitizer.ok

    def test_consistent_rounds_pass(self):
        sanitizer = InvariantSanitizer()
        hot = las(0, 0.0)
        cold = las(1, 4000.0)
        for demoted in ({1}, {1}, {0, 1}):
            hot.attained_service += 1500.0
            sanitizer.check_tiresias_monotonicity(
                demoted, {0: hot, 1: cold}, self.THRESHOLD
            )
        assert sanitizer.ok


class TestCollectMode:
    def test_collects_instead_of_raising(self):
        sanitizer = InvariantSanitizer(mode="collect")
        rt = running(0, 4, {(0, "V100"): 2})
        sanitizer.check_gangs([rt])
        sanitizer.check_payoffs({1: SimpleNamespace(payoff=-1.0)})
        assert not sanitizer.ok
        assert [v.rule for v in sanitizer.violations] == ["gang", "payoff"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantSanitizer(mode="warn")


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_philly_trace(
            PhillyTraceConfig(num_jobs=12, arrival_pattern="static", seed=7)
        )

    def test_hadar_run_is_violation_free(self, paper_cluster_cls, trace):
        sanitizer = InvariantSanitizer()
        result = simulate(
            paper_cluster_cls,
            trace,
            HadarScheduler(HadarConfig(record_audit=True)),
            sanitizer=sanitizer,
        )
        assert result.all_completed
        assert sanitizer.ok
        assert sanitizer.rounds_checked == result.scheduling_invocations
        assert sanitizer.rounds_checked > 0

    @pytest.mark.parametrize("name", ["gavel", "tiresias"])
    def test_baselines_are_violation_free(self, name, paper_cluster_cls, trace):
        from repro.baselines import GavelScheduler, TiresiasScheduler

        factory = {"gavel": GavelScheduler, "tiresias": TiresiasScheduler}[name]
        sanitizer = InvariantSanitizer()
        result = simulate(paper_cluster_cls, trace, factory(), sanitizer=sanitizer)
        assert result.all_completed
        assert sanitizer.ok
        assert sanitizer.rounds_checked == result.scheduling_invocations

    def test_gavel_matrix_feasibility_checked_end_to_end(
        self, paper_cluster_cls, trace
    ):
        from repro.baselines import GavelScheduler

        scheduler = GavelScheduler()
        sanitizer = InvariantSanitizer()
        result = simulate(paper_cluster_cls, trace, scheduler, sanitizer=sanitizer)
        assert result.all_completed
        assert sanitizer.ok
        # The surface the feasibility check consumed every round.
        assert scheduler.last_allocation_matrix is not None

    def test_tiresias_demotions_stay_monotone_end_to_end(
        self, paper_cluster_cls, trace
    ):
        from repro.baselines import TiresiasScheduler
        from repro.baselines.tiresias import TiresiasConfig

        # Threshold low enough that demotions actually happen, so the
        # monotonicity check has a non-trivial set to validate.
        scheduler = TiresiasScheduler(TiresiasConfig(queue_threshold_gpu_s=600.0))
        sanitizer = InvariantSanitizer()
        result = simulate(paper_cluster_cls, trace, scheduler, sanitizer=sanitizer)
        assert result.all_completed
        assert sanitizer.ok
        assert scheduler.demoted_jobs  # the check saw real demotions

    def test_profiling_wrapper_still_reaches_hadar_internals(
        self, paper_cluster_cls, trace
    ):
        sanitizer = InvariantSanitizer()
        scheduler = ProfilingScheduler(HadarScheduler(HadarConfig(record_audit=True)))
        result = simulate(paper_cluster_cls, trace, scheduler, sanitizer=sanitizer)
        assert result.all_completed
        assert sanitizer.ok
        assert scheduler.inner.audit  # the audit trail the sanitizer consumed


@pytest.fixture(scope="class")
def paper_cluster_cls():
    from repro.cluster.cluster import simulated_cluster

    return simulated_cluster()


class TestViolationStructure:
    def test_message_carries_context(self):
        rt = running(5, 4, {(0, "V100"): 1})
        try:
            InvariantSanitizer().check_gangs([rt], round_index=12, now=4320.0)
        except InvariantViolation as exc:
            assert "[gang" in str(exc)
            assert "round 12" in str(exc)
            assert "job 5" in str(exc)
        else:  # pragma: no cover - the check must raise
            pytest.fail("expected InvariantViolation")
