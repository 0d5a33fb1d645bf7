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

The module holds one search and its explanation:

* :func:`cached_find_alloc` (and its standalone wrapper
  :func:`find_alloc`) runs the search through the shared
  :class:`~repro.core.round_context.RoundContext` memos: candidate
  generation per job shape and free vector, gang physics per
  ``(model, W)``, costings per job, and Eq. (5) prices per slot.  It
  sits inside Hadar's DP recursion and runs hundreds of thousands of
  times per simulation.  :func:`_generate_candidates` walks the round's
  :class:`~repro.core.round_context.SlotBook` — free slots kept sorted
  by price per type, servers grouped into classes of identical ones —
  so a generation reads a few slots per walk instead of the cluster.
  It costs only the candidates that can win: it drops the ones a
  cheaper candidate of the same bottleneck group and span dominates for
  every job.  Before any of that, a running job's current placement is
  returned outright when a per-tier payoff bound proves that no other
  gang can beat it — the common case, since moves pay the checkpoint
  pause and the current gang does not.
* :func:`explain_alloc` is what the decision tracer shows: the same
  generation and costings at one free vector, with each family's best
  payoff whatever its sign and the reason no gang survived.

Every float expression of the search mirrors one in the straight-line
specification kept test-side (``tests/core/reference_find_alloc.py``),
which generates and costs every candidate afresh, and pruning only
drops candidates that cannot be its best, so ``cached_find_alloc(ctx,
rt, state)`` equals the specification's best bit for bit; the
golden-parity and property suites pin this, and pin
:func:`explain_alloc` to the specification's whole explanation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, itemgetter, le
from typing import Callable, Iterable, NamedTuple, Optional

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.core.pricing import PriceBook
from repro.core.round_context import _MISS, JobView, RoundContext
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

DelayEstimator = Callable[[JobRuntime], float]
"""Estimated pause (checkpoint save+load) if the job moves to any new gang."""

_Picks = tuple[tuple[int, str, int], ...]
"""Raw candidate: sorted ((node_id, type, count), ...) triples."""

_FAST = itemgetter(1, 0, 2, 3)
"""Cross-server fastest-first key over ``(price, rank, node, type, free)``."""

_COST_FLOOR = 1.0 - 2.0**-40
"""Shaves ``W * pmin`` below every float sum of ``W`` slot prices at least
``pmin`` each: such a sum of ``m`` products loses at most about
``2m * 2**-53`` of its value to rounding, under ``2**-40`` while ``m <=
W`` stays below :data:`_CERTIFIED_W`."""

_CERTIFIED_W = 4096
"""Gangs at least this large skip the certificate (see ``_COST_FLOOR``)."""

_TIE_BAND = 2.0**-30
"""Relative base-cost band within which two candidates may still tie after
the division by the comm penalty (one rounding step is 2**-53)."""


class AllocationCandidate(NamedTuple):
    """One costed gang proposal.

    A named tuple: a search builds one per result, and a tuple is built
    in C where a frozen dataclass runs ``object.__setattr__`` per field.
    """

    allocation: Allocation
    cost: float
    utility: float
    payoff: float
    rate: float
    """Realized gang iterations/second (bottleneck × W × comm penalty)."""
    estimated_jct: float


@dataclass(frozen=True, slots=True)
class AllocationExplanation:
    """Why ``FIND_ALLOC`` would (not) place one job at one state.

    Produced by :func:`explain_alloc` for the decision tracer — never
    inside the timed decision.  The family payoffs are the *best payoff
    within each candidate family regardless of sign* (the search itself
    discards non-positive payoffs), so a trace can show how far
    underwater the losing family was:

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
) -> Optional[AllocationCandidate]:
    """The best positive-payoff gang for one job, or ``None`` (line 33).

    ``delay_estimator`` charges the reallocation pause for any candidate
    that differs from the job's current placement; the current placement
    itself (when it still fits ``state``) is evaluated delay-free, making
    stable allocations naturally preferred.  A throwaway round context
    serves the one call; rounds share theirs through
    :func:`cached_find_alloc`.
    """
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

    Byte-identical to the straight-line specification's best (the
    golden-parity and property suites pin this), reorganized so the
    expensive work is shared or skipped:

    * the job's round-frozen inputs (rates, usable order, move delay,
      age, remaining work, current picks) come from its
      :class:`~repro.core.round_context.JobView`, built once per round;
    * the job's **current placement**, when it still fits and runs, is
      costed first (delay-free), and returned at once when a
      certificate proves no other gang can beat it — no candidate is
      generated.  A gang whose slowest usable type is ``t_k`` runs at
      most ``rate(t_k) * W`` (the comm penalty is at most 1), pays the
      job's one move delay ``d``, and costs at least ``W * pmin_k`` (the
      cheapest free slot of ``t_1..t_k``, :meth:`RoundContext.tier_floors`;
      dividing by the penalty only raises it), so its payoff is at most
      ``B_k = value_for(age + d + remaining / (rate(t_k) * W)) - W *
      pmin_k * (1 - 2**-40)`` — in floats too, because every step rounds
      monotonically and ``value_for`` does not increase with the JCT.
      The current gang is certified when its payoff ``P > 0`` and ``P >
      B_k`` for every tier with ``W`` free devices; exact ties and
      near-ties fall through to the search, which breaks them;
    * a certificate **carries** to any later state with no more free
      devices than the certified one on any slot and the same free
      counts on the job's own slots: ``P`` is unchanged there, and since
      Eq. (5)'s price never falls as free falls, every ``pmin_k`` only
      rises, every tier's free count only shrinks, and so every
      ``B_k`` only falls.  Such a call returns the certified candidate
      without reading the slot book — the common case in the greedy's
      allocation walk, which only commits;
    * candidate **generation** is looked up per ``(usable order, rate-tie
      signature, W, state key)`` — every job of the same shape at the
      same free vector reuses it (:func:`_generate_candidates`), already
      pruned to the candidates that can win;
    * gang **physics** (bottleneck rate, comm penalty, price cost) is
      memoized per ``(model, W, picks, picked free counts)`` — only the
      per-job economics (JCT → utility → payoff) run per evaluation;
    * the per-job candidate memo and the Eq. (5) price memo share the
      rest.

    ``state_key`` lets callers that already computed ``state.key()`` (the
    DP memo does) skip recomputing it.  A kept current gang is returned
    as the runtime's own ``rt.allocation``.
    """
    stats = ctx.stats
    stats.find_alloc_calls += 1
    view = ctx.view(rt)
    usable_desc = view.usable_desc
    if not usable_desc:
        return None
    if state_key is None:
        state_key = state.key()
    memo = view.memo

    best_key: Optional[tuple] = None
    best: Optional[tuple] = None

    # -- the current placement, when it still fits and runs (per-job) ----------
    current = view.current
    if current is not None:
        vec = state_key.vec
        frees = tuple([vec[i] for i in view.current_at])
        certified = view.certified
        if (
            certified is not None
            and frees == certified[1]
            and all(map(le, vec, certified[0].vec))
        ):
            # The carried certificate: what the search below would find,
            # a memo hit on the same costing and every bound passed.
            stats.candidate_hits += 1
            stats.current_certified += 1
            return certified[2]
        if all(map(ge, frees, view.current_counts)):
            kept = memo.get((current, frees, True), _MISS)
            if kept is _MISS:
                kept = view.evaluate(ctx, current, frees, True)
            else:
                stats.candidate_hits += 1
            if kept is not None and kept[2] > 0.0:
                best = kept
                best_key = (-best[2], best[0], best[5], current)
                if view.w < _CERTIFIED_W and _current_wins(
                    ctx, view, best[2], ctx.tier_floors(usable_desc, state_key)
                ):
                    stats.current_certified += 1
                    cand = _candidate(rt.allocation, best)
                    view.certified = (state_key, frees, cand)
                    return cand
        else:
            current = None

    # -- everything else: generated, pruned, costed through the memos ----------
    pairs = _generate_candidates(ctx, view.model, view.w, usable_desc, state_key)
    for picks, frees in pairs:
        if picks == current:
            continue  # costed above, delay-free
        cached = memo.get((picks, frees, False), _MISS)
        if cached is _MISS:
            cached = view.evaluate(ctx, picks, frees, False)
        else:
            stats.candidate_hits += 1
        if cached is None or not cached[2] > 0.0:
            continue
        key = (-cached[2], cached[0], cached[5], picks)
        if best_key is None or key < best_key:
            best_key = key
            best = cached

    if best is None:
        return None
    picks = best_key[3]
    return _candidate(rt.allocation if picks == current else ctx.allocation(picks), best)


def _current_wins(
    ctx: RoundContext,
    view: JobView,
    payoff: float,
    tiers: tuple[tuple[str, float, int], ...],
) -> bool:
    """The current-placement certificate (see :func:`cached_find_alloc`).

    True when ``payoff`` beats, at every tier ``(t_k, pmin_k, free_k)``
    with ``W`` free devices, the bound on a gang whose slowest type is
    ``t_k``: the utility at JCT ``head + remaining / (rate(t_k) * W)``,
    minus ``W * pmin_k`` shaved by :data:`_COST_FLOOR`.  ``head`` is the
    age plus the move delay, so the JCT is summed in the search's own
    order, ``(age + delay) + remaining / rate``.
    """
    w = view.w
    rt = view.rt
    rate_of = view.rate_of
    head = view.age + view.move_delay
    remaining = view.remaining
    value_for = ctx.utility.value_for
    now = ctx.now
    for t, pmin, free in tiers:
        if free >= w and not payoff > value_for(
            rt, head + remaining / (rate_of[t] * w), now
        ) - w * pmin * _COST_FLOOR:
            return False
    return True


def _candidate(allocation: Allocation, costed: tuple) -> AllocationCandidate:
    cost, u, payoff, rate, jct, _ = costed
    return AllocationCandidate(allocation, cost, u, payoff, rate, jct)


def explain_alloc(
    ctx: RoundContext, rt: JobRuntime, state_key: tuple[int, ...]
) -> AllocationExplanation:
    """``FIND_ALLOC`` for one job at free vector ``state_key``, with diagnostics.

    Built from the search's own parts — the job's
    :class:`~repro.core.round_context.JobView`, its current placement
    costed delay-free when it still fits, and :func:`_generate_candidates`
    at ``state_key`` — so ``best`` is what :func:`cached_find_alloc`
    returns there.  On top of that it keeps the best payoff of each family
    whatever its sign (the search skips non-positive payoffs) and names
    the reason no gang survived.  Pruning keeps every family's best: a
    pruning group (span, bottleneck rate-tie group) orders its non-current
    members' payoffs by base cost alone, and keeps its cheapest member
    plus a second one for when the current gang is the cheapest.

    The decision record (``HadarScheduler.decision_record``) calls this
    once per queued job on the round's own context, after the timed
    decision and after its counters were copied; every memo it reads or
    fills is value-preserving.
    """
    view = ctx.view(rt)
    usable_desc = view.usable_desc
    if not usable_desc:
        return AllocationExplanation(None, "no_usable_type")
    memo = view.memo

    def costed(picks: _Picks, frees: tuple[int, ...], is_current: bool) -> tuple:
        hit = memo.get((picks, frees, is_current), _MISS)
        return view.evaluate(ctx, picks, frees, is_current) if hit is _MISS else hit

    # Every gang below has a usable rate, so no costing is ``None``.
    options: list[tuple[_Picks, tuple]] = []
    current = view.current
    current_payoff: Optional[float] = None
    if current is not None:
        vec = state_key.vec
        frees = tuple([vec[i] for i in view.current_at])
        if all(map(ge, frees, view.current_counts)):
            options.append((current, costed(current, frees, True)))
            current_payoff = options[0][1][2]
        else:
            current = None
    for picks, frees in _generate_candidates(
        ctx, view.model, view.w, usable_desc, state_key
    ):
        if picks != current:
            options.append((picks, costed(picks, frees, False)))
    if not options:
        return AllocationExplanation(None, "insufficient_free")

    family: dict[bool, float] = {}  # multi_node → the family's best payoff
    best_key: Optional[tuple] = None
    best: Optional[tuple] = None
    for picks, c in options:
        payoff, multi_node = c[2], c[5]
        if multi_node not in family or payoff > family[multi_node]:
            family[multi_node] = payoff
        if payoff > 0.0:
            key = (-payoff, c[0], multi_node, picks)
            if best_key is None or key < best_key:
                best_key, best = key, c
    if best_key is not None:
        picks = best_key[3]
        allocation = rt.allocation if picks == current else ctx.allocation(picks)
    return AllocationExplanation(
        best=None if best is None else _candidate(allocation, best),
        reason="" if best is not None else "negative_payoff",
        consolidated_payoff=family.get(False),
        scattered_payoff=family.get(True),
        current_payoff=current_payoff,
    )


def _generate_candidates(
    ctx: RoundContext,
    model: str,
    w: int,
    usable_desc: tuple[str, ...],
    state_key: tuple[int, ...],
) -> tuple[tuple[_Picks, tuple[int, ...]], ...]:
    """The job-independent candidate families at one free-capacity vector.

    Produces the consolidated (line 24) and cross-server (line 25) pick
    sets of the straight-line specification, minus the dominated ones — the
    current-placement candidate is per-job and added by the caller.  The
    result is memoized per ``(usable_desc, rate-tie signature, W,
    state_key)``: rates enter only through the rate-tie ranks
    (:meth:`RoundContext.rate_rank`), which compare exactly like ``-rate``
    over usable types.  A miss moves the round's
    :class:`~repro.core.round_context.SlotBook` to the state and walks it;
    three transformations relative to the reference are value-preserving:

    * the consolidated walks depend on a server only through its
      inventory and free vector — a slot's Eq. (5) price is
      ``price_given(type, cap, free)`` — so each server class's fastest
      and cheapest walks are a pure function of ``((inventory, free
      vector), shape)``.  They are walked once per round as ``(type,
      count)`` templates (:func:`_class_template`, memoized in
      :attr:`RoundContext.class_walks` across states) and relabelled
      for the class's two lowest node ids — the pruning below keeps at
      most two candidates of one exact base cost, lowest picks first, so
      the other servers' copies are never kept;
    * a cross-server walk over the tiers ``<= i`` takes at most ``W``
      slots, and restricted to one type its key order is the book's
      ``(price, node)`` order, so it never reaches past any type's first
      ``W`` free slots.  Sorting those prefixes by the reference keys
      (total orders: ties fall to the node, then the type name, as the
      reference's stable sort over canonical slot order does) gives the
      walk's every step;
    * tier ``i``'s walk takes the same picks as tier ``i - 1``'s completed
      walk when the new type's first slot sorts after that walk's last
      take: its price is strictly higher (cheap walk) or its rank is
      (fast walk), so every new slot comes after the take that filled
      the gang.  Such walks are skipped; equal prices and equal ranks
      fall through to the walk, where the node and type decide.

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
    penalty.  The dropped candidates can never be the best, nor any
    family's best payoff, so the search and :func:`explain_alloc` still
    equal the specification, which prunes nothing.

    Returns the kept candidates sorted, each paired with its picked
    slots' free counts.
    """
    stats = ctx.stats
    rank, rank_sig = ctx.rate_rank(model)
    shape = (usable_desc, rank_sig, w)
    generations = ctx.generations(state_key)
    gen = generations.get(shape)
    if gen is not None:
        stats.generation_hits += 1
        return gen
    stats.generation_runs += 1
    book = ctx.slot_book(state_key)
    reads = 0
    # Picks → (base price cost, pruning group, picked free counts).  The
    # base is the physics layer's ``sum`` over the sorted picks; for the
    # common one-slot candidate, the product itself.
    candidates: dict[_Picks, tuple[float, tuple[bool, int], tuple[int, ...]]] = {}

    # As in the reference, every take fills the gang.
    # -- consolidated (line 24): one template per server class -----------------
    templates = ctx.class_walks[shape]
    for ck, nodes in book.classes.items():
        # A template hit still reads the class's free vector: it is the key.
        reads += len(ck[1])
        template = templates.get(ck)
        if template is None:
            template = templates[ck] = _class_template(
                book.inventories[ck[0]], ck[1], nodes[0], book.price_of, rank, w
            )
        for tc, carried in template:
            for node_id in nodes[:2]:
                candidates[tuple([(node_id, t, c) for t, c in tc])] = carried

    # -- cross-server (line 25): each type's first W slots, per tier ------------
    # The reference keys use ``-rate_of[t]``; ``rank[t]`` compares
    # identically (rate-tie groups in fastest-first order).
    entries: list[tuple[float, int, int, str, int]] = []
    total_free = 0
    cheap_last = fast_last = None  # the last takes of the previous walks
    for i, t in enumerate(usable_desc):
        tier_free = book.type_free[t]
        total_free += tier_free
        if tier_free:
            r = rank[t]
            head = book.order[t][:w]
            entries += [(p, r, n, t, f) for p, n, f in head]
        elif i:
            # An empty tier leaves the allowed prefix — and hence both
            # walks — identical to the previous processed tier's.
            continue
        if total_free < w:
            continue
        # Counted whether or not the walks below are skipped: the tier's
        # first W slots were gathered either way.
        reads += len(entries)
        if cheap_last is None or not head[0][0] > cheap_last[0]:
            cheap_last = _tier_walk(sorted(entries), w, candidates)
        if fast_last is None or not r > fast_last[1]:
            fast_last = _tier_walk(sorted(entries, key=_FAST), w, candidates)
    stats.slot_reads += reads

    # -- dominance pruning (see the docstring) ---------------------------------
    # Dict order never shows: groups are sorted before they are cut, and
    # so is ``kept``.
    groups: dict[tuple[bool, int], list[tuple[float, _Picks]]] = {}
    for p, (base, group, _) in candidates.items():
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

    # Pair every kept candidate with its picked slots' free counts (read
    # off the class keys and walk entries): the free vector is exactly
    # what ``state_key`` canonicalizes, so the counts are identical at
    # every state this generation is reused for.
    kept.sort()
    gen = tuple([(p, candidates[p][2]) for p in kept])
    generations[shape] = gen
    return gen


def _class_template(
    inventory: tuple[tuple[str, int], ...],
    frees: tuple[int, ...],
    node_id: int,
    price_of: dict[tuple[int, str], float],
    rank: dict[str, int],
    w: int,
) -> tuple:
    """A server class's distinct consolidated walks, as node-free templates.

    A class is an inventory ``((type, capacity), ...)`` and its free
    counts ``frees``; prices are read at ``node_id``, one member, and are
    the same at every member.  Each walk becomes ``((type, count), ...)``
    in the type order :func:`_greedy_take` sorts one node's picks into,
    paired with its base price cost, pruning group and picked free
    counts.
    Empty when the class cannot host the gang.
    """
    slots = [(t, f) for (t, _), f in zip(inventory, frees) if f and t in rank]
    if sum(f for _, f in slots) < w:
        return ()
    fast = sorted(slots, key=lambda s: rank[s[0]])  # name order breaks ties
    cheap = sorted(slots, key=lambda s: (price_of[(node_id, s[0])], s[0]))
    free_of = dict(slots)
    out = {}
    for walk in (fast, cheap):
        picks = _greedy_take([(node_id, t, f) for t, f in walk], w)
        if len(picks) == 1:
            _, t, c = picks[0]
            base = price_of[(node_id, t)] * c
        else:
            base = sum(price_of[(node_id, t)] * c for _, t, c in picks)
        out[tuple([(t, c) for _, t, c in picks])] = (
            base,
            (False, max(rank[t] for _, t, _ in picks)),
            tuple([free_of[t] for _, t, _ in picks]),
        )
    return tuple(out.items())


def _tier_walk(
    ordered: list[tuple[float, int, int, str, int]],
    w: int,
    candidates: dict,
) -> tuple[float, int, int, str, int]:
    """Take ``w`` devices along ``(price, rank, node, type, free)`` entries.

    Files the picks in ``candidates`` with their base price cost, pruning
    group and picked free counts (all read off the entries) and returns
    the entry whose take filled the gang.
    """
    need = w
    taken = []
    for entry in ordered:
        free = entry[4]
        take = free if free < need else need
        taken.append((entry[2], entry[3], take, entry))
        need -= take
        if need == 0:
            break
    if len(taken) == 1:
        n, t, c, (p, r, _, _, f) = taken[0]
        candidates[((n, t, c),)] = (p * c, (False, r), (f,))
        return entry
    taken.sort(key=itemgetter(0, 1))
    picks = tuple([(n, t, c) for n, t, c, _ in taken])
    candidates[picks] = (
        sum(e[0] * c for _, _, c, e in taken),
        (picks[0][0] != picks[-1][0], max(e[1] for *_, e in taken)),
        tuple([e[4] for *_, e in taken]),
    )
    return entry
