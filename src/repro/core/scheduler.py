""":class:`HadarScheduler` — the online Algorithm 1.

Each round the scheduler

1. re-calibrates the dual price book (Eqs. 6-8) from the jobs currently
   in the system (their *remaining* work),
2. runs the ``DP_allocation`` dual subroutine over the queue, running
   jobs included, so a running job whose allocation the new
   plan changes is preempted and moved ("If the allocation of the running
   job changes by computation, the job will be preempted and the new
   allocation will be in effect", Sec. IV-A-5),
3. returns the target allocation map; the engine applies the diff and the
   checkpoint-model overheads.

The candidate evaluation already charges the expected reallocation pause
against moved jobs and none against kept placements, which is what keeps
most rounds change-free (the paper observes ~30% of rounds change an
average job's allocation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState
from repro.core.dp import DPAllocator, DPConfig
from repro.core.find_alloc import AllocationCandidate, explain_alloc
from repro.core.pricing import PriceBook, PriceCalibrator, PricingConfig
from repro.core.round_context import JobView, RoundContext
from repro.core.utility import NormalizedThroughputUtility, Utility
from repro.sim.checkpoint import CheckpointModel, FixedDelayCheckpoint
from repro.sim.interface import Scheduler, SchedulerContext

__all__ = ["HadarConfig", "HadarScheduler", "RoundAudit"]


@dataclass(frozen=True, slots=True)
class RoundAudit:
    """Primal/dual accounting of one scheduling round (Lemmas 1-2).

    ``primal_increment`` is the total utility of the jobs admitted this
    round (the primal objective's gain); ``dual_increment`` is the sum of
    their payoffs ``μ_j`` plus the capacity-weighted price rise — the
    dual objective's gain.  Lemma 2 guarantees
    ``primal_increment ≥ dual_increment / α`` whenever the price function
    satisfies the allocation-cost relationship; the theory test-suite
    verifies it on recorded runs.
    """

    now: float
    primal_increment: float
    dual_increment: float
    alpha: float
    jobs_admitted: int
    total_payoff: float
    total_cost: float


@dataclass(frozen=True)
class HadarConfig:
    """Everything tunable about Hadar."""

    utility: Utility = field(default_factory=NormalizedThroughputUtility)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    dp: DPConfig = field(default_factory=DPConfig)
    checkpoint: CheckpointModel = field(default_factory=FixedDelayCheckpoint)
    """Used to *estimate* reallocation pauses inside candidate payoffs; the
    engine applies the actual overhead from its own model."""
    record_audit: bool = False
    """Record per-round primal/dual increments (see :class:`RoundAudit`)."""


class HadarScheduler(Scheduler):
    """The paper's heterogeneity-aware online primal-dual scheduler."""

    round_based = True
    reacts_to_events = False

    def __init__(self, config: Optional[HadarConfig] = None):
        self.config = config or HadarConfig()
        self.last_alpha: float = 1.0
        """α from the most recent round's price book (theory/Fig. inspection)."""
        self.last_prices: Optional[PriceBook] = None
        self.last_chosen: dict[int, AllocationCandidate] = {}
        """Jobs admitted by the most recent round's DP, with their costed
        candidates (read by the invariant sanitizer's μ_j > 0 check)."""
        self.last_round_stats: dict[str, int] = {}
        """Hot-path counters of the most recent round's shared
        :class:`~repro.core.round_context.RoundContext` (FIND_ALLOC calls,
        cache hits, candidate/price evaluations); the engine aggregates
        them into :attr:`SimulationResult.hotpath_stats`."""
        self.audit: list[RoundAudit] = []
        """Per-round primal/dual records (populated when record_audit)."""
        self._round: Optional[
            tuple[SchedulerContext, ClusterState, RoundContext]
        ] = None
        """The most recent round's context, post-decision state and round
        context, kept for :meth:`decision_record`; ``None`` after a round
        with an empty queue.  Each :meth:`schedule` call drops it first,
        so no two rounds' memos are alive at once."""
        self._calibrator: Optional[PriceCalibrator] = None
        """Persistent across rounds: reuses each job's Eq. (8) record
        until its remaining work moves."""
        self._views: dict[int, JobView] = {}
        """The latest round's job views, handed to the next round's
        context to refresh (:meth:`RoundContext.view`).  Derived state:
        never snapshotted, emptied by :meth:`reset` and
        :meth:`load_state_dict`, and rebuilt on use."""
        self._views_basis: Optional[tuple] = None
        """The matrix object, slot universe and checkpoint model the
        views were built under; any other drops them all."""

    @property
    def name(self) -> str:
        return "hadar"

    def reset(self) -> None:
        self.last_alpha = 1.0
        self.last_prices = None
        self.last_chosen = {}
        self.last_round_stats = {}
        self.audit.clear()
        self._round = None
        self._calibrator = None
        self._views = {}
        self._views_basis = None

    # ---------------------------------------------------- engine snapshots --
    def state_dict(self) -> dict:
        """Cross-round state: the persistent calibrator and the audit log.

        The ``last_*`` views (prices, chosen candidates, round stats) and
        the round kept for :meth:`decision_record` are per-round
        transients — every consumer reads them inside the same round that
        wrote them, and the next :meth:`schedule` call overwrites them
        before any other read — so they are left out of snapshots, and so
        are the job views carried between rounds, which are rebuilt on use.
        ``tests/core/test_chaos_snapshot.py`` checks that a
        restored run reproduces every output of the uninterrupted one.
        """
        return {
            "last_alpha": self.last_alpha,
            "calibrator": (
                None if self._calibrator is None else self._calibrator.state_dict()
            ),
            "audit": [
                {
                    "now": a.now,
                    "primal_increment": a.primal_increment,
                    "dual_increment": a.dual_increment,
                    "alpha": a.alpha,
                    "jobs_admitted": a.jobs_admitted,
                    "total_payoff": a.total_payoff,
                    "total_cost": a.total_cost,
                }
                for a in self.audit
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.last_alpha = float(state["last_alpha"])
        self._views = {}
        self._views_basis = None
        if state["calibrator"] is None:
            self._calibrator = None
        else:
            self._calibrator = PriceCalibrator(self.config.pricing)
            self._calibrator.load_state_dict(state["calibrator"])
        self.audit = [
            RoundAudit(
                now=float(a["now"]),
                primal_increment=float(a["primal_increment"]),
                dual_increment=float(a["dual_increment"]),
                alpha=float(a["alpha"]),
                jobs_admitted=int(a["jobs_admitted"]),
                total_payoff=float(a["total_payoff"]),
                total_cost=float(a["total_cost"]),
            )
            for a in state["audit"]
        ]

    # ------------------------------------------------------------------ API --
    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        self._round = None
        cfg = self.config
        queue = ctx.active
        if not queue:
            self.last_chosen = {}
            self._views = {}
            return {}
        state = ctx.fresh_state()

        calibrator = self._calibrator
        if calibrator is None:
            calibrator = self._calibrator = PriceCalibrator(cfg.pricing)
        prices = calibrator.calibrate(
            jobs=queue,
            matrix=ctx.matrix,
            utility=cfg.utility,
            state=ctx.fresh_state(),
            now=ctx.now,
        )
        self.last_prices = prices
        self.last_alpha = prices.alpha()

        # The estimator closes over the checkpoint model, not the scheduler:
        # the kept round must not refer back to its holder.
        checkpoint = cfg.checkpoint
        # The last round's views carry over while what they were built
        # under holds; a wrapper that re-estimates the matrix every round
        # (``ProfilingScheduler``) gets fresh views every round.
        basis = self._views_basis
        if not (
            basis is not None
            and basis[0] is ctx.matrix
            and basis[2] is checkpoint
            and (basis[1] is state.slots or basis[1] == state.slots)
        ):
            self._views = {}
            self._views_basis = (ctx.matrix, state.slots, checkpoint)
        round_ctx = RoundContext(
            prices=prices,
            matrix=ctx.matrix,
            cluster=ctx.cluster,
            utility=cfg.utility,
            now=ctx.now,
            delay_estimator=lambda rt: checkpoint.move_delay(rt.job, rt.allocation),
            state=state,
            views=self._views,
        )
        # The round's views, the ones its searches and decision record
        # use, are the next round's to refresh.
        self._views = round_ctx.views
        chosen = DPAllocator(round_ctx, cfg.dp).allocate(queue, state)
        self.last_chosen = dict(chosen)
        round_ctx.stats.calib_jobs = calibrator.last_jobs
        round_ctx.stats.calib_dirty = calibrator.last_dirty
        self.last_round_stats = round_ctx.stats.as_dict()
        self._round = (ctx, state, round_ctx)

        if cfg.record_audit:
            fresh = ctx.fresh_state()
            price_rise = sum(
                (
                    prices.price(node_id, type_name, state)
                    - prices.price(node_id, type_name, fresh)
                )
                * fresh.capacity(node_id, type_name)
                for node_id, type_name in fresh.slots
            )
            total_payoff = sum(c.payoff for c in chosen.values())
            total_cost = sum(c.cost for c in chosen.values())
            self.audit.append(
                RoundAudit(
                    now=ctx.now,
                    primal_increment=sum(c.utility for c in chosen.values()),
                    dual_increment=total_payoff + price_rise,
                    alpha=prices.alpha(),
                    jobs_admitted=len(chosen),
                    total_payoff=total_payoff,
                    total_cost=total_cost,
                )
            )

        return {job_id: cand.allocation for job_id, cand in chosen.items()}

    def decision_record(self) -> Optional[dict]:
        """The most recent round's structured decision record.

        Per-slot Eq. (5) prices and every queued job's outcome with its
        payoff μ_j, skip reason, and consolidated-vs-scattered breakdown;
        ``None`` after a round with an empty queue.  The engine's
        :class:`~repro.sim.phases.SchedulerPhase` asks for it only while a
        decision tracer is attached, after the timed decision and before
        the diff is applied: the record reads the runtimes as the round
        saw them (current gangs, slowdowns, move delays).

        Every quantity is derived at the round's *post-decision* state
        (``DP_allocation`` mutated it with the admitted gangs) through the
        round's own :class:`RoundContext`, after its counters were copied
        to :attr:`last_round_stats` — every context memo is
        value-preserving, so the values are the decision's own.  The
        prices are the end-of-round Eq. (5) values the next arrival would
        face.  For each admitted job the consolidated-vs-scattered
        breakdown is leave-one-out: it is costed at the post-decision free
        vector with the job's own gang added back — "given everyone
        else's final placement, what did this job's alternatives pay?".
        The kept state itself is never written
        (``tests/core/test_golden_parity_obs.py`` fails on any write to
        it, balanced or not).
        """
        if self._round is None:
            return None
        from repro.obs.tracer import placements_list

        ctx, state, round_ctx = self._round
        prices = self.last_prices
        assert prices is not None
        chosen = self.last_chosen
        # Skipped jobs first, at the final state; then each admitted job at
        # its probe.  One copy of the final state serves every probe:
        # releasing a gang and claiming it back costs the gang's slots, and
        # each probe's key derives from the previous probe's, naming the
        # gang claimed back and the gang released, so the slot book follows
        # by those slots too.  Every value is the same in any order.
        final_key = state.key()
        explained = {
            rt.job_id: explain_alloc(round_ctx, rt, final_key)
            for rt in ctx.active
            if rt.job_id not in chosen
        }
        probe = state.copy() if chosen else None
        for rt in ctx.active:
            cand = chosen.get(rt.job_id)
            if cand is not None:
                probe.release(cand.allocation)
                explained[rt.job_id] = explain_alloc(round_ctx, rt, probe.key())
                probe.allocate(cand.allocation)
        jobs: list[dict] = []
        for rt in ctx.active:
            record: dict = {
                "job_id": rt.job_id,
                "model": rt.job.model.name,
                "num_workers": rt.job.num_workers,
            }
            cand = chosen.get(rt.job_id)
            explanation = explained[rt.job_id]
            if cand is not None:
                record["outcome"] = (
                    "kept" if cand.allocation == rt.allocation else "admitted"
                )
                record["mu"] = cand.payoff
                record["allocation"] = placements_list(cand.allocation)
                record["cost"] = cand.cost
                record["utility"] = cand.utility
                record["rate"] = cand.rate
                record["estimated_jct"] = cand.estimated_jct
                record["consolidated"] = (
                    len({n for (n, _) in cand.allocation.placements}) <= 1
                )
                record["breakdown"] = {
                    "consolidated_payoff": explanation.consolidated_payoff,
                    "scattered_payoff": explanation.scattered_payoff,
                    "current_payoff": explanation.current_payoff,
                }
            else:
                record["outcome"] = "skipped"
                # A positive-payoff gang existed at the final prices yet
                # the DP left the job out: the branch value said skip.
                record["reason"] = explanation.reason or "dp_skipped"
                breakdown = {
                    "consolidated_payoff": explanation.consolidated_payoff,
                    "scattered_payoff": explanation.scattered_payoff,
                    "current_payoff": explanation.current_payoff,
                }
                if any(v is not None for v in breakdown.values()):
                    record["breakdown"] = breakdown
            jobs.append(record)
        return {
            "jobs": jobs,
            "prices": prices.slot_prices(state),
            "alpha": prices.alpha(),
            "eta": prices.eta,
        }
