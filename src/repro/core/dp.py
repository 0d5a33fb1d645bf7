"""``DP_allocation`` — the dual subroutine (Algorithm 2, lines 1-21).

Walks the queue job-by-job; at each job it branches on *allocate* (via
``FIND_ALLOC``, which already filters non-positive payoffs) versus *skip*,
and keeps the better branch.  Sub-problems are memoized on
``(queue index, canonical free-capacity vector)`` — the paper's "we always
save the result ... to avoid recomputing the same subproblem".

Two branch objectives are supported (see DESIGN.md §2, interpretation
notes):

* ``"payoff"`` (default): maximize total payoff ``Σ (U_j − cost_j)``,
  the objective the primal-dual derivation (Eq. 4) implies;
* ``"cost"``: the literal line-18 reading — keep the branch with smaller
  accumulated cost, counting an unallocated job's forgone utility as
  cost.  Retained for the ablation benchmark.

The recursion explores the *allocate* branch first.  Under the payoff
objective it then explores *skip* only when the skip branch could still
win: ``ub[i] = u_max[i] + ub[i + 1]`` (``ub[n] = 0.0``) bounds what jobs
``i..`` can earn, where ``u_max[i]`` is job ``i``'s utility at the
smallest JCT any gang can reach — ``W`` workers at the model's fastest
rate, no move delay, no comm or straggler loss.  When
``ub[idx + 1] < take_value`` the skip branch is left unexplored.  The
bound holds *as floats*, so no schedule moves by a bit: ``+``, ``*``
and ``/`` round monotonically, so every candidate's JCT
``age + delay + remaining / (bottleneck · W · penalty [· slowdown])``
is at least ``age + 0.0 + remaining / (r_max · W)`` (``delay ≥ 0``;
``bottleneck ≤ r_max``; ``penalty, slowdown ≤ 1``); every utility is
non-negative and non-increasing in JCT (``Utility.value_for``), and every
cost is non-negative, so each payoff is at most ``u_max``.  By induction
each node's value — a right fold ``payoff + sub_value`` in the same
association as ``ub`` — is at most ``ub[idx]``, and a strictly smaller
skip bound means skip would have lost the strict ``>`` comparison
anyway.  Skip still wins exact ties, every memo entry that is computed
holds the unbounded recursion's ``(value, plan)``, and
``RoundStats.dp_prunes`` counts the cuts.  The cost objective takes the
same take-first order without the bound.

Pruned branches add no memo entries, so the ``state_limit`` overflow
below can only come later than it did.  At the default
``queue_limit=10`` the memo never nears it (at most 2,047 entries
against 8,000); with ``queue_limit >= 12`` a round that used to overflow
into the greedy may now finish exactly.

Beyond ``queue_limit`` jobs (or ``state_limit`` memo entries) the exact
recursion is replaced by a **payoff-density greedy**: jobs are ranked by
payoff per requested worker on the round-initial prices, then allocated
in rank order against the (exponentially rising) prices.  This is the
switch that gives the near-Gavel scaling of Fig. 7.

Every ``FIND_ALLOC`` call in one ``allocate()`` pass — the exact
recursion, the greedy ranking walk, and the greedy allocation walk —
shares one :class:`~repro.core.round_context.RoundContext`, so a
free-capacity vector reached along different branch orders (or
re-reached by the greedy passes) reuses its candidate generation and
costings from the round's memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.state import ClusterState
from repro.core.find_alloc import AllocationCandidate, cached_find_alloc
from repro.core.round_context import RoundContext
from repro.sim.progress import JobRuntime

__all__ = ["DPConfig", "DPAllocator"]


@dataclass(frozen=True, slots=True)
class DPConfig:
    """Limits and objective selection for the dual subroutine."""

    queue_limit: int = 10
    """Largest queue solved with the exact memoized recursion."""
    state_limit: int = 8_000
    """Memo-size cap, the decision's deterministic search budget: once the
    exact recursion holds more solved sub-problems than this (pruned
    branches add none), it is abandoned for the payoff-density greedy.
    Each fallback counts into ``RoundStats.state_limit_hits``."""
    branch_objective: str = "payoff"
    """``"payoff"`` (primal-dual reading) or ``"cost"`` (literal line 18)."""

    def __post_init__(self) -> None:
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if self.state_limit < 1:
            raise ValueError("state_limit must be positive")
        if self.branch_objective not in {"payoff", "cost"}:
            raise ValueError(
                f"branch_objective must be 'payoff' or 'cost', "
                f"got {self.branch_objective!r}"
            )


class _MemoOverflow(Exception):
    """Raised internally when the exact DP exceeds its state budget."""


@dataclass
class DPAllocator:
    """One round's allocation solver over the round's shared context.

    ``context`` carries the round's inputs (prices, matrix, cluster,
    utility, time, delay estimator) and its memos, which assume those
    inputs and every job's runtime stay fixed: build it for the round.
    """

    context: RoundContext
    config: DPConfig = DPConfig()

    def allocate(
        self, queue: Sequence[JobRuntime], state: ClusterState
    ) -> dict[int, AllocationCandidate]:
        """Admit and place jobs from ``queue``; mutates ``state`` with the result."""
        queue = list(queue)
        if not queue:
            return {}
        ctx = self.context
        # The greedy alone commits its gangs into ``state`` as it goes; the
        # exact DP leaves ``state`` as it found it, and its plan is applied.
        if len(queue) > self.config.queue_limit:
            return self._solve_greedy(queue, state, ctx)
        try:
            _, chosen = self._solve_exact(queue, state, ctx)
        except _MemoOverflow:
            ctx.stats.state_limit_hits += 1
            return self._solve_greedy(queue, state, ctx)
        if self.config.branch_objective == "payoff":
            # The recursion explores jobs in queue order; the greedy
            # reorders by payoff density and occasionally finds a better
            # packing.  Both are cheap at this queue size — keep whichever
            # earns more.
            alt = self._solve_greedy(queue, state.copy(), ctx)
            if sum(c.payoff for c in alt.values()) > sum(
                c.payoff for c in chosen.values()
            ):
                chosen = alt
        for cand in chosen.values():
            state.allocate(cand.allocation)
        return chosen

    # -- exact memoized recursion -------------------------------------------------
    def _solve_exact(
        self,
        queue: list[JobRuntime],
        state: ClusterState,
        ctx: RoundContext,
    ) -> tuple[float, dict[int, AllocationCandidate]]:
        """The optimum over the queue as ``(branch value, plan)``."""
        memo: dict[
            tuple[int, tuple[int, ...]],
            tuple[float, dict[int, AllocationCandidate]],
        ] = {}
        maximize = self.config.branch_objective == "payoff"
        n = len(queue)
        # ub[i] bounds the payoff jobs i.. can still earn, folded from the
        # right with the recursion's own association.
        ub = [0.0] * (n + 1)
        if maximize:
            for i in range(n - 1, -1, -1):
                ub[i] = self._utility_bound(ctx, queue[i]) + ub[i + 1]

        def recurse(
            idx: int, branch_state: ClusterState
        ) -> tuple[float, dict[int, AllocationCandidate]]:
            if idx >= n or branch_state.is_full():
                return 0.0, {}
            state_key = branch_state.key()
            key = (idx, state_key)
            hit = memo.get(key)
            if hit is not None:
                return hit
            if len(memo) > self.config.state_limit:
                raise _MemoOverflow

            rt = queue[idx]
            best = None
            # Branch 1: allocate via FIND_ALLOC (through the round caches;
            # the DP memo key already carries the free-capacity vector).
            cand = cached_find_alloc(ctx, rt, branch_state, state_key=state_key)
            if cand is not None:
                sub_state = branch_state.copy()
                sub_state.allocate(cand.allocation)
                sub_value, sub_plan = recurse(idx + 1, sub_state)
                take_value = (
                    cand.payoff + sub_value if maximize else cand.cost + sub_value
                )
                if maximize and ub[idx + 1] < take_value:
                    # Branch 2 is worth at most ub[idx + 1]: it cannot win.
                    ctx.stats.dp_prunes += 1
                    best = (take_value, {**sub_plan, rt.job_id: cand})

            if best is None:
                # Branch 2: skip this job (it keeps exact ties).
                skip_value, skip_plan = recurse(idx + 1, branch_state)
                if not maximize:
                    # Literal cost objective: an unserved job forfeits its utility.
                    skip_value = skip_value + self._forgone_utility(ctx, rt)
                best = (skip_value, skip_plan)
                if cand is not None and (
                    take_value > skip_value if maximize else take_value < skip_value
                ):
                    best = (take_value, {**sub_plan, rt.job_id: cand})

            memo[key] = best
            return best

        try:
            return recurse(0, state)
        finally:
            # ``recurse`` reaches itself through its closure cell; breaking
            # that cycle lets the round's context go by reference counting.
            del recurse

    def _utility_bound(self, ctx: RoundContext, rt: JobRuntime) -> float:
        """An upper bound on every payoff ``FIND_ALLOC`` can return for ``rt``.

        The utility at the JCT of a gang of ``W`` workers at the fastest
        usable rate, with no move delay and no comm or straggler loss: a
        real candidate's JCT is at least this one as floats, its utility
        therefore at most this value, and its cost non-negative.
        """
        job = rt.job
        r_max = max(
            (r for r in ctx.rates_for(job.model.name).values() if r > 0.0),
            default=0.0,
        )
        if r_max <= 0.0:
            return 0.0  # no usable type: FIND_ALLOC returns None
        age = ctx.now - job.arrival_time
        if age < 0.0:
            age = 0.0
        jct = age + 0.0 + rt.remaining_iterations / (r_max * job.num_workers)
        return ctx.utility.value_for(rt, jct, ctx.now)

    def _forgone_utility(self, ctx: RoundContext, rt: JobRuntime) -> float:
        """Cost-objective surrogate for leaving a job unserved this round."""
        model = rt.job.model.name
        best = ctx.matrix.max_rate(model)
        jct = (
            max(ctx.now - rt.job.arrival_time, 0.0)
            + rt.remaining_iterations / (best * rt.job.num_workers)
        )
        return ctx.utility.value_for(rt, jct, ctx.now)

    # -- payoff-density greedy -------------------------------------------------
    def _solve_greedy(
        self, queue: list[JobRuntime], state: ClusterState, ctx: RoundContext
    ) -> dict[int, AllocationCandidate]:
        """Allocate in payoff-density order.

        The allocation walk drops each state's generations as it commits
        past it: it only commits, so it never returns, and it is the
        round's last search.  A commit costs its gang: the new key's hash
        adds the touched slots' change, its step hands the slot book
        those slots, and the drop is one probe of the carried hash.
        Only the key's tuple itself is still copied whole.
        """
        # Rank once on round-initial prices: payoff per requested worker.
        ranked: list[tuple[float, int, JobRuntime]] = []
        for rt in queue:
            cand = cached_find_alloc(ctx, rt, state)
            if cand is not None:
                density = cand.payoff / rt.job.num_workers
                ranked.append((-density, rt.job_id, rt))
        ranked.sort()

        chosen: dict[int, AllocationCandidate] = {}
        for _, _, rt in ranked:
            cand = cached_find_alloc(ctx, rt, state)
            if cand is None:
                continue  # prices rose past this job's payoff; filtered out
            ctx.leave_state(state.key())
            state.allocate(cand.allocation)
            chosen[rt.job_id] = cand
        return chosen
