"""``FIND_ALLOC`` — the per-job allocation search (Algorithm 2, lines 22-34).

For one job and one cluster state, generate candidate gangs of exactly
``W_j`` workers, cost them against the dual price book, and return the
payoff-maximizing candidate — or ``None`` when no candidate earns a
positive payoff ``μ_j`` (the job is filtered out this round).

Candidates come in the paper's two families:

* **consolidated** ("packed"): the whole gang on a single server, taking
  the fastest (and, as an alternative, the cheapest) free device types
  on that server — line 24;
* **non-consolidated**: the gang spread across servers.  For each
  possible *bottleneck* type ``b`` we restrict to device types at least
  as fast as ``b`` (anything slower would lower the sync-barrier rate, and
  anything faster than necessary is pure surcharge) and pick the ``W_j``
  cheapest / fastest free devices cluster-wide — line 25.  Cross-server
  candidates carry the ring-allreduce communication surcharge — line 27.

The candidate's estimated JCT feeds the job utility; payoff is utility
minus the price-book cost (line 29).  Keeping a running job's existing
placement is always a candidate (with no reallocation delay), which is
what makes allocations sticky when nothing better appears.

The module holds one search and one reference:

* :func:`explain_alloc` is the straight-line specification — generate
  both families at one state, cost every candidate, keep the best.  It
  recomputes everything per call and also reports each family's best
  payoff, which is what the decision tracer shows.
* :func:`cached_find_alloc` (and its standalone wrapper
  :func:`find_alloc`) runs the same computation through the shared
  :class:`~repro.core.round_context.RoundContext` memos: candidate
  generation per job shape and free vector, gang physics per
  ``(model, W)``, costings per job, and Eq. (5) prices per slot.  It
  sits inside Hadar's DP recursion and runs hundreds of thousands of
  times per simulation.  It costs only the candidates that can win:
  :func:`_generate_candidates` drops the ones a cheaper candidate of
  the same bottleneck group and span dominates for every job.

Every float expression of the search mirrors one in the reference, and
pruning only drops candidates that cannot be the reference's best, so
``cached_find_alloc(ctx, rt, state)`` equals
``explain_alloc(ctx, rt, state).best`` bit for bit; the golden-parity and
property suites pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.pricing import PriceBook
from repro.core.round_context import _MISS, RoundContext
from repro.core.utility import Utility
from repro.sim.progress import JobRuntime
from repro.workload.throughput import ThroughputMatrix

__all__ = [
    "AllocationCandidate",
    "AllocationExplanation",
    "find_alloc",
    "cached_find_alloc",
    "explain_alloc",
]

DelayEstimator = Callable[[JobRuntime, Allocation], float]
"""Estimated pause (checkpoint save+load) if the job moves to a new gang."""

_Picks = tuple[tuple[int, str, int], ...]
"""Raw candidate: sorted ((node_id, type, count), ...) triples."""

_TIE_BAND = 2.0**-30
"""Relative base-cost band within which two candidates may still tie after
the division by the comm penalty (one rounding step is 2**-53)."""


@dataclass(frozen=True, slots=True)
class AllocationCandidate:
    """One costed gang proposal."""

    allocation: Allocation
    cost: float
    utility: float
    payoff: float
    rate: float
    """Realized gang iterations/second (bottleneck × W × comm penalty)."""
    estimated_jct: float

    @property
    def is_admittable(self) -> bool:
        return self.payoff > 0.0


@dataclass(frozen=True, slots=True)
class AllocationExplanation:
    """Why ``FIND_ALLOC`` would (not) place one job at one state.

    Produced by :func:`explain_alloc` for the decision tracer — never on
    the hot path.  The family payoffs are the *best payoff within each
    candidate family regardless of sign* (the search itself discards
    non-positive payoffs), so a trace can show how far underwater the
    losing family was:

    * ``consolidated_payoff`` — best single-server gang (line 24);
    * ``scattered_payoff`` — best cross-server gang (line 25), comm
      surcharge included;
    * ``current_payoff`` — keeping the job's existing placement
      (delay-free), when it still fits.

    ``None`` means the family produced no candidate at this state.
    ``reason`` is the empty string when ``best`` exists, else one of the
    trace schema's skip reasons (:data:`repro.obs.schema.SKIP_REASONS`
    minus ``dp_skipped``/``not_traced``, which only the caller can tell).
    """

    best: Optional[AllocationCandidate]
    reason: str
    consolidated_payoff: Optional[float] = None
    scattered_payoff: Optional[float] = None
    current_payoff: Optional[float] = None


def _greedy_take(
    ordered_slots: Iterable[tuple[int, str, int]], workers: int
) -> Optional[_Picks]:
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


def find_alloc(
    rt: JobRuntime,
    state: ClusterState,
    prices: PriceBook,
    matrix: ThroughputMatrix,
    cluster: Cluster,
    utility: Utility,
    now: float,
    delay_estimator: DelayEstimator,
    ctx: Optional[RoundContext] = None,
) -> Optional[AllocationCandidate]:
    """The best positive-payoff gang for one job, or ``None`` (line 33).

    ``delay_estimator`` charges the reallocation pause for any candidate
    that differs from the job's current placement; the current placement
    itself (when it still fits ``state``) is evaluated delay-free, making
    stable allocations naturally preferred.

    ``ctx`` is the round-scoped context sharing lookups and caches across
    calls; when omitted, a throwaway context serves this one call.  A
    provided context's frozen fields (prices, matrix, cluster, utility,
    now, delay estimator) take precedence and must match the other
    arguments.
    """
    if ctx is None:
        ctx = RoundContext(
            prices=prices,
            matrix=matrix,
            cluster=cluster,
            utility=utility,
            now=now,
            delay_estimator=delay_estimator,
            state=state,
        )
    return cached_find_alloc(ctx, rt, state)


def cached_find_alloc(
    ctx: RoundContext,
    rt: JobRuntime,
    state: ClusterState,
    state_key: Optional[tuple[int, ...]] = None,
) -> Optional[AllocationCandidate]:
    """The candidate search through the round's shared memo layers.

    Byte-identical to ``explain_alloc(ctx, rt, state).best`` (the
    golden-parity and property suites pin this), reorganized so the
    expensive work is shared:

    * candidate **generation** is looked up per ``(usable order, rate-tie
      signature, W, state key)`` — every job of the same shape at the
      same free vector reuses it (:func:`_generate_candidates`), already
      pruned to the candidates that can win; the job's current placement
      joins them here when pruning dropped it;
    * gang **physics** (bottleneck rate, comm penalty, price cost) is
      memoized per ``(model, W, picks, picked free counts)`` — only the
      per-job economics (JCT → utility → payoff) run per evaluation;
    * the per-job candidate memo and the Eq. (5) price memo share the
      rest.

    ``state_key`` lets callers that already computed ``state.key()`` (the
    DP memo does) skip recomputing it.
    """
    stats = ctx.stats
    stats.find_alloc_calls += 1
    job = rt.job
    model = job.model.name
    w = job.num_workers

    rate_of = ctx.rates_for(model)
    usable_desc = ctx.usable_desc(model)
    if not usable_desc:
        return None
    if state_key is None:
        state_key = state.key()
    pairs, pickset = _generate_candidates(
        ctx, model, w, usable_desc, state, state_key
    )

    # -- keep the current placement when it still fits (per-job) ---------------
    current_picks: Optional[_Picks] = None
    extra: tuple[tuple[_Picks, tuple[int, ...]], ...] = ()
    if rt.allocation and state.can_fit(rt.allocation):
        picks = tuple(
            sorted(
                (node_id, type_name, count)
                for (node_id, type_name), count in rt.allocation.placements.items()
            )
        )
        usable = True
        for _, t, _ in picks:
            r = rate_of.get(t)
            if r is None:  # type outside the cluster inventory (defensive)
                r = ctx.matrix.rate(model, t)
            if r <= 0.0:
                usable = False
                break
        if usable:
            current_picks = picks
            if picks not in pickset:
                extra = (
                    (picks, tuple([state.free(n, t) for n, t, _ in picks])),
                )

    if not pairs and not extra:
        return None

    # -- evaluate: shared physics, per-job economics ---------------------------
    model_bytes = job.model.model_bytes
    comm = ctx.cluster.comm
    now = ctx.now
    utility = ctx.utility
    age = now - job.arrival_time
    if age < 0.0:
        age = 0.0
    remaining = rt.remaining_iterations
    memo = ctx.candidate_memo(rt.job_id)
    phys_memo = ctx.physics_memo(model, w)
    price = ctx.price
    matrix_rate = ctx.matrix.rate

    best_key: Optional[tuple] = None
    best: Optional[tuple[_Picks, float, float, float, float, float]] = None
    move_delay: Optional[float] = None  # same for every non-current candidate
    for picks, frees in pairs + extra:
        is_current = picks == current_picks
        mkey = (picks, frees, is_current)
        cached = memo.get(mkey, _MISS)
        if cached is not _MISS:
            stats.candidate_hits += 1
            if cached is None:
                continue
            cost, u, payoff, rate, jct, multi_node = cached
            key = (-payoff, cost, multi_node, picks)
            if best_key is None or key < best_key:
                best_key = key
                best = (picks, cost, u, payoff, rate, jct)
            continue
        stats.candidate_evals += 1
        pkey = (picks, frees)
        phys = phys_memo.get(pkey, _MISS)
        if phys is _MISS:
            stats.physics_evals += 1
            bottleneck = min(
                rate_of.get(t) or matrix_rate(model, t) for _, t, _ in picks
            )
            if bottleneck <= 0.0:
                phys = None
            else:
                nodes = {n for n, _, _ in picks}
                multi_node = len(nodes) > 1
                penalty = comm.throughput_penalty_n(
                    w, multi_node, model_bytes, 1.0 / bottleneck
                )
                base_rate = bottleneck * w * penalty
                # Identical accumulation order to the reference's
                # sum-over-picks with the same Eq. (5) price values.
                base_cost = sum(
                    price((n, t), f) * c for (n, t, c), f in zip(picks, frees)
                )
                phys = (base_cost / penalty, base_rate, multi_node)
            phys_memo[pkey] = phys
        else:
            stats.physics_hits += 1
        if phys is None:
            memo[mkey] = None
            continue
        cost, rate, multi_node = phys
        if is_current and rt.slowdown < 1.0:
            # Keeping a straggling gang keeps its degradation; a fresh
            # placement starts with healthy workers (straggler awareness).
            rate = rate * rt.slowdown
        if is_current:
            delay = 0.0
        else:
            if move_delay is None:
                move_delay = ctx.move_delay_for(rt, picks)
            delay = move_delay
        jct = age + delay + remaining / rate
        u = utility.value_for(rt, jct, now)
        payoff = u - cost
        if payoff <= 0.0:
            memo[mkey] = None
            continue
        memo[mkey] = (cost, u, payoff, rate, jct, multi_node)
        key = (-payoff, cost, multi_node, picks)
        if best_key is None or key < best_key:
            best_key = key
            best = (picks, cost, u, payoff, rate, jct)

    if best is None:
        return None
    picks, cost, u, payoff, rate, jct = best
    return AllocationCandidate(
        allocation=Allocation.from_pairs(picks),
        cost=cost,
        utility=u,
        payoff=payoff,
        rate=rate,
        estimated_jct=jct,
    )


def explain_alloc(
    ctx: RoundContext, rt: JobRuntime, state: ClusterState
) -> AllocationExplanation:
    """``FIND_ALLOC`` for one job at one state, straight-line, with diagnostics.

    This is the reference specification of the search: every candidate
    of both families (plus the current placement) is generated and costed
    afresh, and ``best`` is what :func:`cached_find_alloc` must return at
    the same state, bit for bit.  On top of that it keeps the best payoff
    of *every* family regardless of sign (the search discards
    non-positive payoffs outright) and names the reason no gang survived.

    The decision tracer calls this once per job per traced round, at the
    post-decision state, never inside the DP recursion.  It reads the
    round's frozen tables and price memo through ``ctx`` (all
    value-preserving) but touches neither the generation/candidate memos nor,
    thanks to :meth:`~repro.core.round_context.RoundContext.suspend_stats`,
    the round's hot-path counters.
    """
    job = rt.job
    model = job.model.name
    w = job.num_workers
    with ctx.suspend_stats():
        rate_of = ctx.rates_for(model)
        usable_desc = ctx.usable_desc(model)
        if not usable_desc:
            return AllocationExplanation(None, "no_usable_type")

        free_slots: list[tuple[int, str, int]] = [
            (node_id, type_name, free)
            for (node_id, type_name), free in state.free_slots()
        ]
        free_of = {
            (node_id, type_name): free for node_id, type_name, free in free_slots
        }
        price_of = {slot: ctx.price(slot, free) for slot, free in free_of.items()}

        candidates: set[_Picks] = set()

        # Consolidated family (line 24): whole gang on one server.
        fast_order = ctx.node_fast_order(model)
        per_node_free: dict[int, int] = {}
        per_node: dict[int, list[tuple[int, str, int]]] = {}
        for node_id, type_name, free in free_slots:
            if rate_of[type_name] > 0.0:
                per_node_free[node_id] = per_node_free.get(node_id, 0) + free
                per_node.setdefault(node_id, []).append((node_id, type_name, free))
        for node_id, slots in per_node.items():
            if per_node_free[node_id] < w:
                continue
            fast = [
                (node_id, t, free_of[(node_id, t)])
                for t in fast_order[node_id]
                if free_of.get((node_id, t), 0) > 0
            ]
            picks = _greedy_take(fast, w)
            if picks is not None:
                candidates.add(picks)
            cheap = sorted(slots, key=lambda s: (price_of[(s[0], s[1])], s[1]))
            picks = _greedy_take(cheap, w)
            if picks is not None:
                candidates.add(picks)

        # Cross-server family (line 25): one candidate pair per bottleneck tier.
        for i in range(len(usable_desc)):
            allowed = set(usable_desc[: i + 1])
            slots = [s for s in free_slots if s[1] in allowed]
            if sum(free for *_, free in slots) < w:
                continue
            cheap = sorted(
                slots, key=lambda s: (price_of[(s[0], s[1])], -rate_of[s[1]], s[0])
            )
            picks = _greedy_take(cheap, w)
            if picks is not None:
                candidates.add(picks)
            fast = sorted(
                slots, key=lambda s: (-rate_of[s[1]], price_of[(s[0], s[1])], s[0])
            )
            picks = _greedy_take(fast, w)
            if picks is not None:
                candidates.add(picks)

        # The current placement, when it still fits and runs.
        current_picks: Optional[_Picks] = None
        if rt.allocation and state.can_fit(rt.allocation):
            picks = tuple(
                sorted(
                    (node_id, type_name, count)
                    for (node_id, type_name), count in rt.allocation.placements.items()
                )
            )
            if all(
                (rate_of.get(t) or ctx.matrix.rate(model, t)) > 0.0
                for _, t, _ in picks
            ):
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

        consolidated_payoff: Optional[float] = None
        scattered_payoff: Optional[float] = None
        current_payoff: Optional[float] = None
        best_key: Optional[tuple] = None
        best: Optional[AllocationCandidate] = None
        move_delay: Optional[float] = None
        for picks in candidates:  # repro-lint: disable=REP004
            bottleneck = min(
                rate_of.get(t) or ctx.matrix.rate(model, t) for _, t, _ in picks
            )
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
            if is_current:
                delay = 0.0
            else:
                if move_delay is None:
                    move_delay = ctx.move_delay_for(rt, picks)
                delay = move_delay
            jct = age + delay + remaining / rate
            u = utility.value_for(rt, jct, now)
            payoff = u - cost
            if is_current and (current_payoff is None or payoff > current_payoff):
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


def _generate_candidates(
    ctx: RoundContext,
    model: str,
    w: int,
    usable_desc: tuple[str, ...],
    state: ClusterState,
    state_key: tuple[int, ...],
) -> tuple[tuple[tuple[_Picks, tuple[int, ...]], ...], frozenset]:
    """The job-independent candidate families at one free-capacity vector.

    Produces the consolidated (line 24) and cross-server (line 25) pick
    sets of :func:`explain_alloc`, minus the dominated ones — the
    current-placement candidate is per-job and added by the caller.  The
    result is memoized in the round's generation cache per
    ``(usable_desc, rate-tie signature, W, state_key)``: it reads the
    model's rates only through the rate-tie ranks
    (:meth:`RoundContext.rate_rank`), which compare exactly like
    ``-rate`` over usable types.  On a miss everything is
    rebuilt from the state; one transformation relative to the
    reference is value-preserving: the cross-server tiers are nested
    prefixes of ``usable_desc``, so instead of one sort per tier the
    usable slots are sorted once per key family and filtered per tier —
    the keys are total orders over distinct slots and both sorts are
    stable over the same canonical input order, so the filtered prefix
    subsequence equals the per-tier sort it replaces.

    **Dominance pruning.**  Candidates are grouped by (spans more than
    one node, bottleneck rate-tie group — the largest ``rank`` picked).
    For any job of this shape, two non-current members of one group have
    the same bottleneck rate, comm penalty, move delay, JCT and utility,
    so ``payoff = u - base / penalty`` and the search key ``(-payoff,
    cost, multi_node, picks)`` order them by base price cost, then by
    picks.  Each group keeps, in ``(base, picks)`` order, at most two
    entries per exact base cost, and none whose base exceeds the group's
    second entry by more than the relative band ``_TIE_BAND``: two are
    needed because the job's current placement (costed delay-free and
    with its straggler slowdown) may be the cheapest, and the band
    covers base costs that become equal after the division by the
    penalty.  The dropped candidates can never be the best, so the
    search still equals :func:`explain_alloc`, which prunes nothing.

    Returns ``(pairs, pickset)``: the kept candidates sorted
    (deterministic regardless of set iteration order), each paired with
    its picked slots' free counts, plus the kept set callers use to
    decide whether the per-job current-placement candidate must be
    added.
    """
    stats = ctx.stats
    rank, rank_sig = ctx.rate_rank(model)
    shape = (usable_desc, rank_sig, w)
    gen = ctx.generation_get(shape, state_key)
    if gen is not _MISS:
        stats.generation_hits += 1
        return gen
    stats.generation_runs += 1

    # Only usable slots matter to either family; free counts are positive.
    tier_of = {t: i for i, t in enumerate(usable_desc)}
    usable_slots: list[tuple[int, str, int]] = []
    free_of: dict[tuple[int, str], int] = {}
    price_of: dict[tuple[int, str], float] = {}
    per_node: dict[int, list[tuple[int, str, int]]] = {}
    node_free: dict[int, int] = {}
    free_by_tier = [0] * len(usable_desc)
    price = ctx.price
    for slot, free in state.free_slots():
        tier = tier_of.get(slot[1])
        if tier is None:
            continue
        node_id = slot[0]
        entry = (node_id, slot[1], free)
        usable_slots.append(entry)
        free_of[slot] = free
        price_of[slot] = price(slot, free)
        per_node.setdefault(node_id, []).append(entry)
        node_free[node_id] = node_free.get(node_id, 0) + free
        free_by_tier[tier] += free

    # Every take below fills: each walk is preceded by a capacity check
    # on exactly the slots it may take from.  Filtering a sorted walk
    # preserves its order, and ``_greedy_take`` stops at the gang size.

    # -- consolidated (line 24): whole gang on one server ----------------------
    candidates: set[_Picks] = set()
    fast_order = ctx.node_fast_order(model)
    for node_id, slots in per_node.items():
        if node_free[node_id] < w:
            continue
        fast = (
            (node_id, t, free_of[(node_id, t)])
            for t in fast_order[node_id]
            if (node_id, t) in free_of
        )
        candidates.add(_greedy_take(fast, w))
        cheap = sorted(slots, key=lambda s: (price_of[(s[0], s[1])], s[1]))
        candidates.add(_greedy_take(cheap, w))

    # -- cross-server (line 25): sort once per family, filter per tier ---------
    # The reference keys use ``-rate_of[t]``; ``rank[t]`` compares
    # identically (rate-tie groups in fastest-first order).
    cheap_all = sorted(
        usable_slots, key=lambda s: (price_of[(s[0], s[1])], rank[s[1]], s[0])
    )
    fast_all = sorted(
        usable_slots, key=lambda s: (rank[s[1]], price_of[(s[0], s[1])], s[0])
    )
    total_free = 0
    for i in range(len(usable_desc)):
        tier_free = free_by_tier[i]
        total_free += tier_free
        if total_free < w:
            continue
        if i and not tier_free:
            # An empty tier leaves the allowed prefix — and hence both
            # walks — identical to the previous processed tier's.
            continue
        for ordered in (cheap_all, fast_all):
            allowed = (s for s in ordered if tier_of[s[1]] <= i)
            candidates.add(_greedy_take(allowed, w))

    # -- dominance pruning (see the docstring) ---------------------------------
    # ``base`` is the physics layer's ``sum`` over the sorted picks; for
    # the common one-slot candidate that is the product itself.  Set order
    # never shows: groups are sorted before they are cut, and so is ``kept``.
    groups: dict[tuple[bool, int], list[tuple[float, _Picks]]] = {}
    for p in candidates:  # repro-lint: disable=REP004
        if len(p) == 1:
            n, t, c = p[0]
            base = price_of[(n, t)] * c
            group = (False, rank[t])
        else:
            base = sum(price_of[(n, t)] * c for n, t, c in p)
            group = (p[0][0] != p[-1][0], max(rank[t] for _, t, _ in p))
        groups.setdefault(group, []).append((base, p))
    kept: list[_Picks] = []
    for members in groups.values():
        if len(members) <= 2:
            kept.extend(p for _, p in members)
            continue
        members.sort()
        limit = members[1][0]
        limit += abs(limit) * _TIE_BAND
        last = None
        run = 0
        for base, p in members:
            if base > limit:
                break
            run = run + 1 if base == last else 1
            last = base
            if run <= 2:
                kept.append(p)

    # Pair every kept candidate with its picked slots' free counts: the free
    # vector is exactly what ``state_key`` canonicalizes, so the counts
    # are identical at every state this generation is reused for —
    # evaluators read them from the cache instead of re-querying state.
    kept.sort()
    pairs = []
    for p in kept:
        pairs.append((p, tuple([free_of[(n, t)] for n, t, _ in p])))
    gen = (tuple(pairs), frozenset(kept))
    ctx.generation_put(shape, state_key, gen)
    return gen
