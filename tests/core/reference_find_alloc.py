"""The straight-line specification of ``FIND_ALLOC`` (Algorithm 2, lines 22-34).

:func:`reference_explain` generates both candidate families at one
state, costs every candidate afresh and keeps the best — no memo, no
slot book, no pruning, no certificate.  It reads the round's inputs
(prices, matrix, cluster, utility, time, delay estimator) off a
:class:`~repro.core.round_context.RoundContext` but none of its memos or
counters, so it can answer a live round's searches without moving them.

It is the oracle the search is tested against:

* ``best`` is what :func:`repro.core.find_alloc.cached_find_alloc` must
  return at the same state, bit for bit;
* the whole explanation — ``best``, ``reason`` and the three family
  payoffs, whatever their sign — is what
  :func:`repro.core.find_alloc.explain_alloc` must report there.

Every float expression of the search mirrors one here.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState
from repro.core.find_alloc import AllocationCandidate, AllocationExplanation
from repro.core.round_context import RoundContext
from repro.sim.progress import JobRuntime

__all__ = ["explanation_fields", "reference_explain", "state_at"]

_Picks = tuple[tuple[int, str, int], ...]


def _greedy_take(ordered_slots, workers: int) -> Optional[_Picks]:
    """Take ``workers`` devices walking ``(node, type, free)`` in order."""
    need = workers
    picks: list[tuple[int, str, int]] = []
    for node_id, type_name, free in ordered_slots:
        take = free if free < need else need
        if take > 0:
            picks.append((node_id, type_name, take))
            need -= take
        if need == 0:
            return (picks[0],) if len(picks) == 1 else tuple(sorted(picks))
    return None


def reference_explain(
    ctx: RoundContext, rt: JobRuntime, state: ClusterState
) -> AllocationExplanation:
    """``FIND_ALLOC`` for one job at one state, straight-line, with diagnostics."""
    job = rt.job
    model = job.model.name
    w = job.num_workers
    matrix = ctx.matrix
    rate_of = {t: matrix.rate(model, t) for t in sorted({t for _, t in state.slots})}
    usable_desc = sorted(
        (t for t, r in rate_of.items() if r > 0.0), key=lambda t: (-rate_of[t], t)
    )
    if not usable_desc:
        return AllocationExplanation(None, "no_usable_type")

    free_of = dict(state.free_slots())
    price_of = {
        slot: ctx.prices.price_given(slot[1], state.capacity(*slot), free)
        for slot, free in free_of.items()
    }
    usable = [(n, t, f) for (n, t), f in free_of.items() if rate_of[t] > 0.0]
    # Each walk below follows a capacity check on exactly the slots it may
    # take from, so every take fills the gang.
    candidates: set[_Picks] = set()

    # Consolidated family (line 24): whole gang on one server.
    per_node: dict[int, list[tuple[int, str, int]]] = {}
    for slot in usable:
        per_node.setdefault(slot[0], []).append(slot)
    for slots in per_node.values():
        if sum(free for *_, free in slots) < w:
            continue
        fast = sorted(slots, key=lambda s: (-rate_of[s[1]], s[1]))
        candidates.add(_greedy_take(fast, w))
        cheap = sorted(slots, key=lambda s: (price_of[(s[0], s[1])], s[1]))
        candidates.add(_greedy_take(cheap, w))

    # Cross-server family (line 25): one candidate pair per bottleneck tier.
    for i in range(len(usable_desc)):
        allowed = set(usable_desc[: i + 1])
        slots = [s for s in usable if s[1] in allowed]
        if sum(free for *_, free in slots) < w:
            continue
        cheap = sorted(
            slots, key=lambda s: (price_of[(s[0], s[1])], -rate_of[s[1]], s[0])
        )
        candidates.add(_greedy_take(cheap, w))
        fast = sorted(
            slots, key=lambda s: (-rate_of[s[1]], price_of[(s[0], s[1])], s[0])
        )
        candidates.add(_greedy_take(fast, w))

    # The current placement, when it still fits and runs.
    current_picks: Optional[_Picks] = None
    if rt.allocation and state.can_fit(rt.allocation):
        picks = tuple(
            sorted((n, t, c) for (n, t), c in rt.allocation.placements.items())
        )
        if all(matrix.rate(model, t) > 0.0 for _, t, _ in picks):
            current_picks = picks
            candidates.add(picks)

    if not candidates:
        return AllocationExplanation(None, "insufficient_free")

    # Evaluate every candidate; keep family bests at any payoff sign.
    model_bytes = job.model.model_bytes
    comm = ctx.cluster.comm
    now = ctx.now
    utility = ctx.utility
    age = max(now - job.arrival_time, 0.0)
    remaining = rt.remaining_iterations
    move_delay = ctx.delay_estimator(rt)

    consolidated_payoff: Optional[float] = None
    scattered_payoff: Optional[float] = None
    current_payoff: Optional[float] = None
    best_key: Optional[tuple] = None
    best: Optional[AllocationCandidate] = None
    for picks in candidates:
        bottleneck = min(matrix.rate(model, t) for _, t, _ in picks)
        if bottleneck <= 0.0:
            continue
        is_current = picks == current_picks
        multi_node = len({n for n, _, _ in picks}) > 1
        penalty = comm.throughput_penalty_n(
            w, multi_node, model_bytes, 1.0 / bottleneck
        )
        rate = bottleneck * w * penalty
        if is_current and rt.slowdown < 1.0:
            rate *= rt.slowdown
        cost = sum(price_of[(n, t)] * c for n, t, c in picks) / penalty
        delay = 0.0 if is_current else move_delay
        jct = age + delay + remaining / rate
        u = utility.value_for(rt, jct, now)
        payoff = u - cost
        if is_current:
            current_payoff = payoff
        if multi_node:
            if scattered_payoff is None or payoff > scattered_payoff:
                scattered_payoff = payoff
        elif consolidated_payoff is None or payoff > consolidated_payoff:
            consolidated_payoff = payoff
        if payoff <= 0.0:
            continue
        key = (-payoff, cost, multi_node, picks)
        if best_key is None or key < best_key:
            best_key = key
            best = AllocationCandidate(
                allocation=Allocation.from_pairs(picks),
                cost=cost,
                utility=u,
                payoff=payoff,
                rate=rate,
                estimated_jct=jct,
            )

    return AllocationExplanation(
        best=best,
        reason="" if best is not None else "negative_payoff",
        consolidated_payoff=consolidated_payoff,
        scattered_payoff=scattered_payoff,
        current_payoff=current_payoff,
    )


def explanation_fields(explanation: AllocationExplanation) -> tuple:
    """All five fields of an explanation, every float as ``float.hex``."""

    def exact(x: Optional[float]) -> Optional[str]:
        return None if x is None else x.hex()

    best = explanation.best
    return (
        None
        if best is None
        else (
            best.allocation,
            exact(best.cost),
            exact(best.utility),
            exact(best.payoff),
            exact(best.rate),
            exact(best.estimated_jct),
        ),
        explanation.reason,
        exact(explanation.consolidated_payoff),
        exact(explanation.scattered_payoff),
        exact(explanation.current_payoff),
    )


def state_at(template: ClusterState, key: tuple[int, ...]) -> ClusterState:
    """A copy of ``template`` moved to free vector ``key`` (canonical order)."""
    state = template.copy()
    for slot, free in zip(state.slots, key):
        have = state.free(*slot)
        if free > have:
            state.release(Allocation({slot: free - have}))
        elif free < have:
            state.allocate(Allocation({slot: have - free}))
    return state
