"""Round-scoped allocation engine context.

Hadar's ``DP_allocation`` re-enters ``FIND_ALLOC`` at every branch of the
allocate/skip recursion, and the greedy fallback re-walks the whole queue
twice more — yet almost everything those calls compute is frozen for the
duration of one scheduling round: the price bounds, the per-model rate
vectors, the slot universe, and the reallocation-delay estimate.  A
:class:`RoundContext` is constructed **once per round** and shared by
every ``find_alloc`` call in that round.  It provides

* frozen per-round lookup tables — per-model rate vectors
  (:meth:`rates_for`), the fastest-first usable-type order driving the
  bottleneck tiers (:meth:`usable_desc`) and the rate-tie structure
  (:meth:`rate_rank`);
* a **job view** per job (:class:`JobView`, :meth:`view`) — everything
  a search reads of one job that cannot change within the round: model,
  gang size, rate table, usable order, the reallocation-delay estimate,
  age, remaining work and current picks, plus handles on the job's
  candidate memo and its ``(model, W)`` physics memo.  Handed out on the
  job's first search, reused by every later one.  A view handed in from
  an earlier round (``views``) is refreshed rather than rebuilt when it
  was built for the same runtime object and the same ``rt.allocation``
  object (:meth:`JobView.refresh`);
* one :class:`~repro.cluster.allocation.Allocation` per picks tuple
  (:meth:`allocation`), shared by every search result that names those
  picks;
* per-tier **price floors** (:meth:`tier_floors`) — for each
  bottleneck tier of a type order, the cheapest free slot at or above
  it and the free devices there, per free-capacity vector; the
  current-placement certificate of ``find_alloc.cached_find_alloc``
  bounds every other gang's payoff with them;
* the **slot book** (:class:`SlotBook`, :meth:`slot_book`) — the free
  slots in the orders candidate generation walks: per type by Eq. (5)
  price (line 25), and servers grouped into classes of identical
  inventory and free vector (line 24).  It is built once per round and
  follows every state a search is handed by re-filing only the slots
  whose free count changed.  A state key names the slots touched since
  the key it was derived from, so the greedy's commits, the exact DP's
  steps into a branch and the decision record's probes each cost their
  gangs' slots, not the cluster's;
* five memo layers, each kept because it measurably hits.  The
  per-state ones are keyed by :class:`~repro.cluster.state.StateKey`,
  which carries its hash, so a probe costs the same at any cluster
  size:

  - **price** — Eq. (5)'s price is a pure function of a slot's committed
    fraction, so :meth:`price` memoizes it per ``(slot, free count)``; an
    ``allocate()``/``release()`` on a branch state implicitly
    "invalidates" only the touched slots because their free counts (the
    cache key) change;
  - **generation** — the consolidated and cross-server candidate families
    at one free-capacity vector, already pruned to the candidates that
    can win (``find_alloc._generate_candidates``), shared by every job
    whose model has the same type order and gang size
    (:meth:`generations`).  A walk that never returns to a state it
    left drops that state's entries (:meth:`leave_state`);
  - **class walk** — a server class's consolidated walks as node-free
    ``(type, count)`` templates per job shape and ``(inventory id, free
    vector)`` (:attr:`class_walks`), shared across states: a generation
    miss re-walks only the classes the state change created;
  - **physics** — a gang's bottleneck rate, comm penalty and price cost,
    shared by every job of one ``(model, W)`` (:attr:`physics_memo`);
  - **candidate** — a job's costed payoff per ``(picks, picked free
    counts)`` (:attr:`JobView.memo`);

* instrumentation counters (:class:`RoundStats`) surfaced per
  simulation through
  :attr:`repro.sim.engine.SimulationResult.hotpath_stats` and the
  ``repro_hotpath_total`` metric family.

Each view also carries the job's **current-placement certificate**
(:attr:`JobView.certified`) down a walk that only commits.  A job
certified at state ``S`` stays certified, with the same candidate, at
any state ``S'`` with no more free devices than ``S`` on any slot and
the same free counts as ``S`` on the job's own slots:

* the own slots give the current gang the same price cost, hence the
  same payoff ``P``;
* Eq. (5)'s price ``lo * (hi / lo) ** (γ / cap)`` never falls as a
  slot's free count falls.  ``PriceBook`` requires ``lo <= hi`` and
  calibration makes ``hi / lo`` at least ``min_ratio > 1``.  In floats
  ``γ / cap`` and the product round monotonically, and the power's
  values at consecutive ``γ`` differ by the factor ``(hi / lo) ** (1 /
  cap)``, far beyond ``pow``'s error at any calibrated ratio.  A type
  no queued job can use is priced 0 at every occupancy;
* every free slot of ``S'`` is free at ``S`` too, so each tier's
  cheapest free price only rises from ``S`` to ``S'``, each tier's free
  count only shrinks, and a tier listed at ``S'`` is listed at ``S``;
* each bound ``B_k`` therefore only falls, in floats as well:
  ``value_for`` sees the same JCT and ``W * pmin * (1 - 2**-40)``
  rounds monotonically.  ``P`` beat every ``B_k`` at ``S`` and beats
  every one at ``S'``.

The greedy's allocation walk is such a walk: a job certified at the
ranking state whose slots no earlier commit touched is kept without
reading the slot book again.

The caches have no off switch.  The uncached specification is the
straight-line ``FIND_ALLOC`` kept test-side
(``tests/core/reference_find_alloc.py``), which recomputes every
candidate per call; the golden-parity suite in
``tests/core/test_hotpath_parity.py`` runs whole simulations through it
and proves the cached search emits byte-identical schedules.

Hadar keeps a round's context after the decision for its decision
record (``HadarScheduler.decision_record``), which explains every job
through the same memos (:func:`repro.core.find_alloc.explain_alloc`)
once the round's counters have been copied out; the next round drops
it before building its own.

Views outlive their round only through their holder: Hadar keeps the
views of its latest round and hands them to the next context while the
matrix object, the slot universe and the checkpoint model are the ones
they were built for (``HadarScheduler.schedule``).  What a view keeps
from its build — model, gang size, model size, current picks and move
delay — is a pure function of those three, the job spec and
``rt.allocation``; what moves between rounds (age, remaining work, the
round's rate table, usable order and memos) is refreshed.

The caches assume what the rest of the round machinery already assumes:
``prices``, ``now``, every job's runtime snapshot, and the
``delay_estimator``'s output for a given job are frozen while the context
is in use — for Hadar, its round's searches and then its decision
record, which the engine asks for before it applies the round's
changes.  The estimator takes only the job: a move's pause does not depend
on the gang moved to (:meth:`~repro.sim.checkpoint.CheckpointModel.move_delay`),
so one value per view serves every non-current candidate of the round.

Nothing the context holds refers back to it — not the slot book, not a
view (:meth:`JobView.evaluate` is handed the context) — so a round's
context and its memos are freed by reference counting as soon as its
last holder lets go (for Hadar, the next round or a reset), not left
for a cyclic garbage collection.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.cluster.allocation import Allocation
from repro.cluster.state import StateKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.state import ClusterState
    from repro.core.find_alloc import AllocationCandidate, DelayEstimator
    from repro.core.pricing import PriceBook
    from repro.core.utility import Utility
    from repro.sim.progress import JobRuntime
    from repro.workload.throughput import ThroughputMatrix

__all__ = ["JobView", "RoundContext", "RoundStats", "SlotBook"]

_MISS = object()
"""Sentinel distinguishing 'not cached' from a cached ``None`` result."""


@dataclass
class RoundStats:
    """Hot-path instrumentation counters for one scheduling round.

    ``find_alloc_calls`` counts logical ``FIND_ALLOC`` requests (every
    call runs the search).  ``candidate_evals`` counts cold gang
    costings — the quantity the ≥10× reduction target is measured on —
    and ``price_evals`` cold Eq. (5) evaluations.
    ``generation_runs``/``generation_hits`` track the shared
    candidate-generation cache (one generation per ``(usable order,
    rate-tie signature, gang size, free-capacity vector)``),
    ``slot_reads`` the slots the runs read from the slot book,
    ``dp_prunes`` the skip branches the exact DP's utility bound cut,
    ``current_certified`` the calls answered by the current-placement
    certificate without a candidate generation,
    ``physics_evals``/``physics_hits`` the job-independent gang-physics
    layer (bottleneck rate, comm penalty, price cost), and
    ``calib_jobs``/``calib_dirty`` the incremental price calibration's
    dirty set (jobs seen vs. jobs whose Eq. (8) record had to be
    recomputed).
    """

    find_alloc_calls: int = 0
    candidate_evals: int = 0
    candidate_hits: int = 0
    price_evals: int = 0
    price_hits: int = 0
    generation_runs: int = 0
    generation_hits: int = 0
    physics_evals: int = 0
    physics_hits: int = 0
    calib_jobs: int = 0
    calib_dirty: int = 0
    slot_reads: int = 0
    """Slot-book moves plus the slots each generation run reads: every
    class's free vector (a class-walk template hit reads it as its key)
    and each processed tier's gathered prefixes (counted also when both
    of the tier's walks are skipped)."""
    dp_prunes: int = 0
    """Skip branches the exact DP left unexplored because its suffix
    utility bound was below the allocate branch's value."""
    state_limit_hits: int = 0
    """Exact DP searches abandoned at ``DPConfig.state_limit`` memo
    entries (each one fell back to the payoff-density greedy)."""
    current_certified: int = 0
    """``FIND_ALLOC`` calls that returned the job's current placement
    because a bound proved no other gang could beat it."""

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SlotBook:
    """The round's free slots, kept in the orders candidate generation walks.

    One book serves a round.  It starts empty (every slot at zero free)
    and :meth:`sync` moves it to whatever state key it is handed by
    re-filing only the slots whose free count differs — all of them the
    first time, at most a gang's slots after a commit or release:

    * ``order[t]`` — type ``t``'s free slots as ``(price, node, free)``,
      ascending.  A slot's Eq. (5) price moves with its free count, so a
      moved slot leaves and re-enters its list by bisection;
    * ``type_free[t]`` — the free devices of type ``t``;
    * ``price_of`` — each free slot's current price;
    * ``classes`` — ``(inventory id, free vector)`` → the node ids in
      that server class, ascending; ``inventories[id]`` is the class's
      ``((type, capacity), ...)``.  Nodes of one class offer the same
      consolidated gangs at the same prices.  A flat int stands for the
      inventory, so regrouping a node hashes its free counts only.

    The book learns which slots to re-file from the keys themselves: a
    key derived from the book's key (its
    :class:`~repro.cluster.state.StateKey` ``base``) names the positions
    its commits and releases touched, so the greedy's commits, the exact
    DP's steps into a branch and the decision record's leave-one-out
    probes cost their gangs' slots.  Any other jump — the first fill, the
    exact DP returning from a branch — diffs the whole vector, in blocks
    of 32 compared in C.
    """

    __slots__ = ("key", "order", "type_free", "price_of", "classes",
                 "inventories", "_slots", "_span", "_class_of")

    def __init__(self, caps: dict[tuple[int, str], int], types: tuple[str, ...]):
        self._slots = tuple(caps)  # canonical (sorted) slot order
        self.key = StateKey.of((0,) * len(self._slots))
        self.order: dict[str, list[tuple[float, int, int]]] = {t: [] for t in types}
        self.type_free = dict.fromkeys(types, 0)
        self.price_of: dict[tuple[int, str], float] = {}
        self.classes: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        self.inventories: list[tuple[tuple[str, int], ...]] = []
        self._span: dict[int, tuple[int, int, int]] = {}
        self._class_of: dict[int, tuple[int, tuple[int, ...]]] = {}
        # Canonical slot order is by node, so each node's slots are a run.
        runs: dict[int, list[int]] = {}
        for i, (node_id, _) in enumerate(self._slots):
            runs.setdefault(node_id, [i, i])[1] = i + 1
        ids: dict[tuple, int] = {}
        for node_id, (lo, hi) in runs.items():
            inventory = tuple((s[1], caps[s]) for s in self._slots[lo:hi])
            inv = ids.get(inventory)
            if inv is None:
                inv = ids[inventory] = len(self.inventories)
                self.inventories.append(inventory)
            self._span[node_id] = (inv, lo, hi)
            ck = self._class_of[node_id] = (inv, self.key.vec[lo:hi])
            self.classes.setdefault(ck, []).append(node_id)

    def sync(self, key: StateKey, price) -> int:
        """Move the book to state key ``key``; returns the slots moved.

        Moved slots are priced with ``price(slot, free)``, passed in so
        the book holds no reference back to its context.
        """
        if key is self.key:
            return 0
        moved = _moved_between(self.key, key)
        self.key, old, new = key, self.key.vec, key.vec
        if moved is None:
            # Blocks of 32 compare in C; only a differing block is read by entry.
            diff = [
                i
                for lo in range(0, len(new), 32)
                if new[lo : lo + 32] != old[lo : lo + 32]
                for i in range(lo, min(lo + 32, len(new)))
                if new[i] != old[i]
            ]
        else:
            diff = [i for i in moved if new[i] != old[i]]
        order, price_of, nodes = self.order, self.price_of, {}
        for i in diff:
            slot = self._slots[i]
            node_id, t = slot
            was, now = old[i], new[i]
            if was:
                entries = order[t]
                del entries[bisect_left(entries, (price_of.pop(slot), node_id))]
            if now:
                p = price_of[slot] = price(slot, now)
                insort(order[t], (p, node_id, now))
            self.type_free[t] += now - was
            nodes[node_id] = None
        classes, class_of = self.classes, self._class_of
        for node_id in nodes:
            members = classes[class_of[node_id]]
            del members[bisect_left(members, node_id)]
            if not members:
                del classes[class_of[node_id]]
            inv, lo, hi = self._span[node_id]
            ck = class_of[node_id] = (inv, new[lo:hi])
            insort(classes.setdefault(ck, []), node_id)
        return len(diff)


def _moved_between(old: StateKey, key: StateKey) -> Optional[dict[int, None]]:
    """Positions where ``key`` may differ from ``old`` when it was derived
    from ``old``, else ``None``."""
    return key.moved if key.base is old else None


class JobView:
    """One job's round-frozen search inputs (see the module docstring).

    ``current`` is the job's current gang as sorted picks — ``None`` when
    it holds none, when a picked type is unusable for its model, or when
    it names a slot outside the round's universe (such a gang never
    fits).  ``current_at`` holds the picks' positions in a state key and
    ``current_counts`` their worker counts, so a search reads the picked
    free counts off the key it is handed.  ``held`` is the
    ``rt.allocation`` object the view was built for.  ``certified`` is
    ``(state key, picked free counts, candidate)`` of the job's latest
    current-placement certificate, or ``None``.
    """

    __slots__ = (
        "rt",
        "held",
        "model",
        "w",
        "model_bytes",
        "rate_of",
        "usable_desc",
        "move_delay",
        "age",
        "remaining",
        "current",
        "current_at",
        "current_counts",
        "memo",
        "physics",
        "certified",
    )

    def __init__(self, ctx: "RoundContext", rt: "JobRuntime"):
        job = rt.job
        self.rt = rt
        self.held = rt.allocation
        model = self.model = job.model.name
        w = self.w = job.num_workers
        self.model_bytes = job.model.model_bytes
        rate_of = self.rate_of = ctx.rates_for(model)
        self.usable_desc = ctx.usable_desc(model)
        # A job no type can run is never searched past its usable order.
        self.move_delay = ctx.delay_estimator(rt) if self.usable_desc else 0.0
        age = ctx.now - job.arrival_time
        self.age = age if age > 0.0 else 0.0
        self.remaining = rt.remaining_iterations
        self.current = self.current_at = self.current_counts = None
        if rt.allocation:
            picks = tuple(
                sorted((n, t, c) for (n, t), c in rt.allocation.placements.items())
            )
            index = ctx.slot_index
            if all((n, t) in index for n, t, _ in picks) and all(
                (rate_of.get(t) or ctx.matrix.rate(model, t)) > 0.0
                for _, t, _ in picks
            ):
                self.current = picks
                self.current_at = tuple([index[n, t] for n, t, _ in picks])
                self.current_counts = tuple([c for _, _, c in picks])
        # (picks, picked free counts, is_current) → costing (any payoff
        # sign), or None for a gang with no usable rate.
        self.memo: dict[tuple, Optional[tuple]] = {}
        self.physics: dict[tuple, Optional[tuple]] = ctx.physics_memo[model, w]
        self.certified: Optional[
            tuple[tuple[int, ...], tuple[int, ...], "AllocationCandidate"]
        ] = None

    def refresh(self, ctx: "RoundContext") -> None:
        """Bring a view built in an earlier round up to ``ctx``'s round.

        Valid only for the runtime and ``rt.allocation`` objects it was
        built for, under the matrix object, slot universe and checkpoint
        model of its build: the fields kept are then the ones a fresh
        build computes, and every other field is set here with the
        constructor's own expression.
        """
        model = self.model
        age = ctx.now - self.rt.job.arrival_time
        self.age = age if age > 0.0 else 0.0
        self.remaining = self.rt.remaining_iterations
        self.rate_of = ctx.rates_for(model)
        self.usable_desc = ctx.usable_desc(model)
        self.memo = {}
        self.physics = ctx.physics_memo[model, self.w]
        self.certified = None

    def evaluate(
        self,
        ctx: "RoundContext",
        picks: tuple[tuple[int, str, int], ...],
        frees: tuple[int, ...],
        is_current: bool,
    ) -> Optional[tuple]:
        """Cost one candidate cold: shared physics, per-job economics.

        Returns ``(cost, utility, payoff, rate, jct, multi_node)`` whatever
        the payoff's sign — ``None`` only for a gang with no usable rate —
        and files it in :attr:`memo`; the search skips payoffs ``<= 0``.
        Every float expression mirrors the straight-line specification
        (``tests/core/reference_find_alloc.py``).
        """
        stats = ctx.stats
        stats.candidate_evals += 1
        pkey = (picks, frees)
        phys = self.physics.get(pkey, _MISS)
        if phys is _MISS:
            stats.physics_evals += 1
            rate_of, model = self.rate_of, self.model
            bottleneck = min(
                rate_of.get(t) or ctx.matrix.rate(model, t) for _, t, _ in picks
            )
            if bottleneck <= 0.0:
                phys = None
            else:
                w = self.w
                multi_node = len({n for n, _, _ in picks}) > 1
                penalty = ctx.cluster.comm.throughput_penalty_n(
                    w, multi_node, self.model_bytes, 1.0 / bottleneck
                )
                base_rate = bottleneck * w * penalty
                # Identical accumulation order to the reference's
                # sum-over-picks with the same Eq. (5) price values.
                price = ctx.price
                base_cost = sum(
                    price((n, t), f) * c for (n, t, c), f in zip(picks, frees)
                )
                phys = (base_cost / penalty, base_rate, multi_node)
            self.physics[pkey] = phys
        else:
            stats.physics_hits += 1
        cached = None
        if phys is not None:
            cost, rate, multi_node = phys
            rt = self.rt
            if is_current:
                # Keeping a straggling gang keeps its degradation; a fresh
                # placement starts with healthy workers (straggler awareness).
                if rt.slowdown < 1.0:
                    rate = rate * rt.slowdown
                delay = 0.0
            else:
                delay = self.move_delay
            jct = self.age + delay + self.remaining / rate
            u = ctx.utility.value_for(rt, jct, ctx.now)
            cached = (cost, u, u - cost, rate, jct, multi_node)
        self.memo[picks, frees, is_current] = cached
        return cached


class RoundContext:
    """Shared per-round lookup tables and caches (see the module docstring)."""

    __slots__ = (
        "prices",
        "matrix",
        "cluster",
        "utility",
        "now",
        "delay_estimator",
        "stats",
        "_caps",
        "_types",
        "_price_cache",
        "_rates",
        "_usable",
        "_rate_rank",
        "slot_index",
        "views",
        "_carried",
        "_allocations",
        "physics_memo",
        "class_walks",
        "_at",
        "_book",
        "__weakref__",  # lets a test watch a kept context go
    )

    def __init__(
        self,
        *,
        prices: "PriceBook",
        matrix: "ThroughputMatrix",
        cluster: "Cluster",
        utility: "Utility",
        now: float,
        delay_estimator: "DelayEstimator",
        state: "ClusterState",
        views: Optional[dict[int, JobView]] = None,
    ):
        self.prices = prices
        self.matrix = matrix
        self.cluster = cluster
        self.utility = utility
        self.now = now
        self.delay_estimator = delay_estimator
        self.stats = RoundStats()
        # The slot universe (and each slot's capacity) is immutable for the
        # round; only free counts move, and they arrive as explicit args.
        self._caps: dict[tuple[int, str], int] = {
            slot: state.capacity(*slot) for slot in state.slots
        }
        self._types: tuple[str, ...] = tuple(
            sorted({t for (_, t) in self._caps})
        )
        self._price_cache: dict[tuple[tuple[int, str], int], float] = {}
        self._rates: dict[str, dict[str, float]] = {}
        self._usable: dict[str, tuple[str, ...]] = {}
        self._rate_rank: dict[str, tuple[dict[str, int], tuple[int, ...]]] = {}
        # Each slot's position in a state key (the canonical slot order).
        self.slot_index: dict[tuple[int, str], int] = {
            slot: i for i, slot in enumerate(self._caps)
        }
        # This round's views by job id; ``views`` are an earlier round's,
        # refreshed on first use (:meth:`view`).
        self.views: dict[int, JobView] = {}
        self._carried: dict[int, JobView] = views if views is not None else {}
        # Picks → the round's one Allocation of them (:meth:`allocation`).
        self._allocations: dict[tuple, Allocation] = {}
        # (model, W) → (picks, picked free counts) → (cost, rate,
        # multi_node), or None for an unusable gang: no job economics.
        self.physics_memo: defaultdict[tuple[str, int], dict] = defaultdict(dict)
        # Shape → server class ``(inventory id, free vector)`` → the class's
        # consolidated walk templates (``find_alloc._class_template``).
        self.class_walks: defaultdict[tuple, dict] = defaultdict(dict)
        # State key → (shape → generation, type order → tier floors): one
        # state's entries sit in one record and drop together
        # (:meth:`leave_state`).
        self._at: dict[StateKey, tuple[dict[tuple, tuple], dict[tuple, tuple]]] = {}
        self._book: Optional[SlotBook] = None

    # -- incremental pricing ------------------------------------------------
    def price(self, slot: tuple[int, str], free: int) -> float:
        """Eq. (5) price of ``slot`` at ``free`` unclaimed devices.

        Memoized per ``(slot, free)``: a branch state's
        ``allocate``/``release`` only changes the free counts of the slots
        it touches, so untouched slots keep hitting their cached entries.
        """
        key = (slot, free)
        hit = self._price_cache.get(key)
        if hit is not None:
            self.stats.price_hits += 1
            return hit
        self.stats.price_evals += 1
        value = self.prices.price_given(slot[1], self._caps.get(slot, 0), free)
        self._price_cache[key] = value
        return value

    # -- frozen per-model tables --------------------------------------------
    def rates_for(self, model: str) -> dict[str, float]:
        """Per-worker rate of ``model`` on every GPU type in the cluster."""
        table = self._rates.get(model)
        if table is None:
            rate = self.matrix.rate
            table = {t: rate(model, t) for t in self._types}
            self._rates[model] = table
        return table

    def usable_desc(self, model: str) -> tuple[str, ...]:
        """Usable types fastest-first (the bottleneck-tier order)."""
        order = self._usable.get(model)
        if order is None:
            rates = self.rates_for(model)
            order = tuple(
                sorted((t for t, r in rates.items() if r > 0.0),
                       key=lambda t: (-rates[t], t))
            )
            self._usable[model] = order
        return order

    def rate_rank(self, model: str) -> tuple[dict[str, int], tuple[int, ...]]:
        """Rate-tie group index per usable type, plus its signature tuple.

        Walking :meth:`usable_desc` (fastest-first), each strictly slower
        rate opens a new group; exactly-equal rates share one.  For slots
        of usable types, sorting by ``rank[t]`` therefore agrees with
        sorting by ``-rate[t]`` comparison-for-comparison — the rank is a
        model-free stand-in for the rate in cross-server sort keys, which
        lets models with different rate *values* but the same type order
        and tie structure share one candidate generation per state.
        """
        hit = self._rate_rank.get(model)
        if hit is None:
            rates = self.rates_for(model)
            rank: dict[str, int] = {}
            sig: list[int] = []
            prev: Optional[float] = None
            group = -1
            for t in self.usable_desc(model):
                r = rates[t]
                if r != prev:
                    group += 1
                    prev = r
                rank[t] = group
                sig.append(group)
            hit = (rank, tuple(sig))
            self._rate_rank[model] = hit
        return hit

    def view(self, rt: "JobRuntime") -> JobView:
        """The job's :class:`JobView`, handed out on its first search this
        round: an earlier round's view of the same runtime and gang objects,
        refreshed, or else a new one."""
        view = self.views.get(rt.job_id)
        if view is None:
            view = self._carried.pop(rt.job_id, None)
            if view is None or view.rt is not rt or view.held is not rt.allocation:
                view = JobView(self, rt)
            else:
                view.refresh(self)
            self.views[rt.job_id] = view
        return view

    def allocation(self, picks: tuple[tuple[int, str, int], ...]) -> Allocation:
        """The round's one :class:`Allocation` of ``picks`` (sorted
        ``(node, type, count)`` triples), built on first request."""
        allocation = self._allocations.get(picks)
        if allocation is None:
            allocation = self._allocations[picks] = Allocation.from_pairs(picks)
        return allocation

    def slot_book(self, state_key: StateKey) -> SlotBook:
        """The round's :class:`SlotBook`, moved to ``state_key``."""
        book = self._book
        if book is None:
            book = self._book = SlotBook(self._caps, self._types)
        self.stats.slot_reads += book.sync(state_key, self.price)
        return book

    def tier_floors(
        self, usable_desc: tuple[str, ...], state_key: StateKey
    ) -> tuple[tuple[str, float, int], ...]:
        """``(t_k, pmin_k, free_k)`` per bottleneck tier at ``state_key``.

        Walking ``usable_desc`` fastest-first, a tier ``t_k`` with free
        devices yields the cheapest Eq. (5) price over the free slots of
        ``t_1..t_k`` and the free devices of ``t_1..t_k``.  A tier whose
        own type has nothing free is left out: no gang can have it as its
        slowest type.  Memoized per ``(usable_desc, state_key)``, so every
        job of one type order shares it at each state.
        """
        at = self._at.get(state_key)
        if at is None:
            at = self._at[state_key] = ({}, {})
        by_order = at[1]
        tiers = by_order.get(usable_desc)
        if tiers is None:
            book = self.slot_book(state_key)
            out = []
            pmin = float("inf")
            total = 0
            for t in usable_desc:
                free = book.type_free[t]
                if free:
                    total += free
                    p = book.order[t][0][0]
                    if p < pmin:
                        pmin = p
                    out.append((t, pmin, total))
            tiers = by_order[usable_desc] = tuple(out)
        return tiers

    # -- memo layers ----------------------------------------------------------
    def generations(self, state_key: StateKey) -> dict[tuple, tuple]:
        """The shared candidate generations memoized at ``state_key``, per shape.

        Candidate *generation* (the consolidated and cross-server gang
        families of Algorithm 2, lines 24-25, and their dominance pruning)
        reads the model's rates only through order comparisons — the
        usable-type order and its rate-tie structure (:meth:`rate_rank`)
        — plus the gang size, the free vector, and the round-frozen
        prices; never the job's identity or the rate *values*.  A shape is
        ``(usable_desc, rank_sig, W)``, so even different models share one
        generation per reachable state when their type orders agree.  One
        probe of the key's carried hash serves the lookup and the fill.
        """
        at = self._at.get(state_key)
        if at is None:
            at = self._at[state_key] = ({}, {})
        return at[0]

    def leave_state(self, state_key: StateKey) -> None:
        """Drop the generations and tier floors memoized at ``state_key``.

        For walks that never return to a state they left — the greedy
        allocation pass only ever commits — the entries are dead weight:
        each key is a tuple over the whole slot universe, and a cold
        8,192-job decision reached thousands of them.  One probe of the
        key's carried hash drops both.  Value-preserving like every memo
        here: an entry dropped and needed again would only be recomputed.
        """
        self._at.pop(state_key, None)
