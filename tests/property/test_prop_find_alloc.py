"""Property-based tests: FIND_ALLOC and DP_allocation invariants."""

import json
import sys
from collections import Counter
from itertools import product
from unittest import mock

import numpy as np
import pytest

import repro.core.dp as dp_module
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import EMPTY_ALLOCATION, Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.topology import CommunicationModel
from repro.core.dp import DPAllocator, DPConfig
from repro.core.find_alloc import cached_find_alloc, explain_alloc, find_alloc
from repro.core.pricing import PriceBook
from repro.core.round_context import RoundContext
from repro.core.utility import (
    EffectiveThroughputUtility,
    FinishTimeFairnessUtility,
    MakespanUtility,
    NormalizedThroughputUtility,
)
from repro.sim.checkpoint import (
    FixedDelayCheckpoint,
    ModelAwareCheckpoint,
    NoOverheadCheckpoint,
)
from repro.sim.progress import JobRuntime, JobState
from repro.workload.models import model_spec
from repro.workload.job import Job
from repro.workload.throughput import ThroughputMatrix, default_throughput_matrix

from tests.core.reference_find_alloc import (
    explanation_fields,
    reference_explain,
    state_at,
)

MATRIX = default_throughput_matrix()
UTILITY = NormalizedThroughputUtility()
NO_DELAY = lambda rt: 0.0  # noqa: E731

CLUSTER = Cluster(
    [
        Node(0, {"V100": 2, "K80": 2}),
        Node(1, {"P100": 3}),
        Node(2, {"V100": 2, "P100": 1}),
    ],
    comm=CommunicationModel.disabled(),
)
MODELS = ("resnet18", "resnet50", "cyclegan", "transformer", "a3c")
# Same inventory with the ring-allreduce penalty on, so scattered gangs
# pay the comm surcharge the search must cost identically.
COMM_CLUSTER = Cluster([Node(n.node_id, dict(n.gpus)) for n in CLUSTER.nodes])
MOVE_DELAY = lambda rt: 30.0  # noqa: E731
GPU_TYPES = ("V100", "P100", "K80")


@st.composite
def clusters(draw):
    """Comm-on clusters built from runs of identical servers.

    Identical servers give equal-cost consolidated gangs in one
    (spans-servers, bottleneck-group) group — the groups dominance
    pruning thins out.
    """
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        gpus = draw(
            st.dictionaries(
                st.sampled_from(GPU_TYPES), st.integers(1, 4),
                min_size=1, max_size=2,
            )
        )
        for _ in range(draw(st.integers(1, 5))):
            nodes.append(Node(len(nodes), dict(gpus)))
    return Cluster(nodes)


@st.composite
def tied_matrices(draw):
    """Every model ranks the GPU types in one drawn order, with drawn ties.

    Rates fall strictly along the order except where two neighbours are
    in name order and draw a tie (``usable_desc`` breaks rate ties by
    name, so only those may tie without reordering).  Models then share
    one usable-type order yet differ in their rate-tie structure — the
    case where the generation memo must key on the tie signature.
    """
    order = draw(st.permutations(GPU_TYPES))
    rates = {}
    for model in MODELS:
        rate = 4.0
        row = {order[0]: rate}
        for prev, t in zip(order, order[1:]):
            if not (prev < t and draw(st.booleans())):
                rate -= 1.0
            row[t] = rate
        rates[model] = row
    return ThroughputMatrix(rates)


@st.composite
def queues(draw):
    n = draw(st.integers(1, 6))
    out = []
    for i in range(n):
        job = Job(
            job_id=i,
            model=model_spec(draw(st.sampled_from(MODELS))),
            arrival_time=0.0,
            num_workers=draw(st.sampled_from([1, 2, 4])),
            epochs=draw(st.integers(1, 5)),
            iters_per_epoch=draw(st.integers(100, 3000)),
        )
        rt = JobRuntime(job=job)
        rt.state = JobState.QUEUED
        out.append(rt)
    return out


def prices_for(queue, cluster=CLUSTER, matrix=MATRIX):
    return PriceBook.calibrate(
        queue, matrix, UTILITY, cluster.fresh_state(), 0.0
    )


@given(queue=queues(), occupied=st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_find_alloc_invariants(queue, occupied):
    """FIND_ALLOC: exact gang size, fits free capacity, positive payoff."""
    state = CLUSTER.fresh_state()
    # Occupy a few V100s to vary the search space.
    take = min(occupied, 2)
    if take:
        state.allocate(Allocation({(0, "V100"): take}))
    prices = prices_for(queue)
    rt = queue[0]
    cand = find_alloc(
        rt, state, prices, MATRIX, CLUSTER, UTILITY, 0.0, NO_DELAY
    )
    if cand is None:
        return
    assert cand.allocation.total_workers == rt.job.num_workers
    assert state.can_fit(cand.allocation)
    assert cand.payoff > 0
    assert cand.rate > 0
    assert cand.utility == pytest.approx(cand.payoff + cand.cost)


@given(queue=queues())
@settings(max_examples=40, deadline=None)
def test_dp_plan_always_feasible(queue):
    """The DP's chosen plan fits capacity jointly and honours gangs."""
    prices = prices_for(queue)
    state = CLUSTER.fresh_state()
    allocator = DPAllocator(
        _round_context(CLUSTER, prices, state, 0.0, delay=NO_DELAY),
        DPConfig(queue_limit=6),
    )
    chosen = allocator.allocate(list(queue), state)
    probe = CLUSTER.fresh_state()
    for job_id, cand in chosen.items():
        rt = next(r for r in queue if r.job_id == job_id)
        assert cand.allocation.total_workers == rt.job.num_workers
        probe.allocate(cand.allocation)  # raises if jointly infeasible
    assert probe.key() == state.key()


@given(queue=queues())
@settings(max_examples=25, deadline=None)
def test_exact_dp_payoff_dominates_greedy(queue):
    prices = prices_for(queue)

    def total_payoff(config):
        state = CLUSTER.fresh_state()
        allocator = DPAllocator(
            _round_context(CLUSTER, prices, state, 0.0, delay=NO_DELAY), config
        )
        chosen = allocator.allocate(list(queue), state)
        return sum(c.payoff for c in chosen.values())

    exact = total_payoff(DPConfig(queue_limit=8))
    greedy = total_payoff(DPConfig(queue_limit=0))
    assert exact >= greedy - 1e-9


def _round_context(cluster, prices, state, now, matrix=MATRIX, delay=MOVE_DELAY):
    return RoundContext(
        prices=prices, matrix=matrix, cluster=cluster, utility=UTILITY,
        now=now, delay_estimator=delay, state=state,
    )


def _pruned(cluster, prices, state, now, rt, matrix):
    """Whether a cold search costed fewer candidates than there are servers
    able to host the whole gang — each such server contributes a distinct
    consolidated candidate, so fewer costings means pruning fired."""
    ctx = _round_context(cluster, prices, state, now, matrix)
    cached_find_alloc(ctx, rt, state)
    usable = set(ctx.usable_desc(rt.job.model.name))
    free: dict[int, int] = {}
    for (node_id, type_name), count in state.free_slots():
        if type_name in usable:
            free[node_id] = free.get(node_id, 0) + count
    hosts = sum(1 for count in free.values() if count >= rt.job.num_workers)
    return ctx.stats.candidate_evals < hosts


FIND_ALLOC_MODULE = sys.modules[cached_find_alloc.__module__]


def _walked_tiers(ctx, rt, book):
    """Tiers whose cross-server walks a generation miss considers: those
    adding free devices once ``W`` are free over the tier and faster ones."""
    w = rt.job.num_workers
    total = tiers = 0
    for t in ctx.usable_desc(rt.job.model.name):
        free = book.type_free[t]
        total += free
        tiers += bool(free) and total >= w
    return tiers


@given(
    cluster=st.one_of(st.just(COMM_CLUSTER), clusters()),
    matrix=st.one_of(st.just(MATRIX), tied_matrices()),
    queue=queues(),
    data=st.data(),
    now=st.floats(0.0, 7200.0),
)
@settings(max_examples=80, deadline=None)
def test_search_matches_straight_line_reference(cluster, matrix, queue, data, now):
    """The cached search equals the straight-line reference's best, bit for bit.

    One context serves a chain of searches while the state moves under
    it both ways, as the exact DP's backtracking moves it: after each
    search the reference's gang may be committed, or an earlier commit
    (or a gang of the initial occupancy) released.  The shared slot book,
    generation, physics, candidate and price memos are all exercised;
    the reference gets a fresh context per call, recomputes everything
    and prunes nothing.  Jobs may hold current gangs, some straggling.
    Clusters with runs of identical servers make the search's class walk
    and dominance pruning fire (reported as a hypothesis event); tied
    matrices give jobs of one usable-type order different rate-tie
    structures, which must not share a generation or a class template.
    Events also report a generation that reused a class template walked
    at an earlier state, and one that skipped a repeat tier walk.
    Neither search writes the state it is shown: its serialized form,
    insertion order included, is unchanged.
    """
    state = cluster.fresh_state()
    held: list[Allocation] = []
    for slot in sorted(state.slots):
        taken = data.draw(st.integers(0, state.capacity(*slot)))
        if taken:
            held.append(Allocation({slot: taken}))
            state.allocate(held[-1])
    for rt in queue:
        if data.draw(st.booleans()):
            # A current gang drawn over the whole inventory: it may or may
            # not still fit the occupied state.
            need = rt.job.num_workers
            gang = {}
            for slot in data.draw(st.permutations(sorted(state.slots))):
                take = min(need, state.capacity(*slot))
                if take:
                    gang[slot] = take
                    need -= take
                if not need:
                    break
            rt.allocation = Allocation(gang)
            rt.slowdown = data.draw(st.sampled_from([1.0, 0.6]))
    prices = prices_for(queue, cluster, matrix)
    ctx = _round_context(cluster, prices, state, now, matrix)
    for _ in range(data.draw(st.integers(len(queue), 4 * len(queue)))):
        rt = data.draw(st.sampled_from(queue))
        before = json.dumps(state.state_dict())
        reference = reference_explain(
            _round_context(cluster, prices, state, now, matrix), rt, state
        ).best
        if _pruned(cluster, prices, state, now, rt, matrix):
            event("dominance pruning fired")
        runs = ctx.stats.generation_runs
        templates = sum(map(len, ctx.class_walks.values()))
        with mock.patch.object(
            FIND_ALLOC_MODULE, "_tier_walk", wraps=FIND_ALLOC_MODULE._tier_walk
        ) as tier_walk:
            assert cached_find_alloc(ctx, rt, state) == reference
        if ctx.stats.generation_runs > runs:
            # A generation miss looks up every class's template.
            book = ctx.slot_book(state.key())
            walked = sum(map(len, ctx.class_walks.values())) - templates
            if walked < len(book.classes):
                event("a class template walked at another state was reused")
            if tier_walk.call_count < 2 * _walked_tiers(ctx, rt, book):
                event("a repeat tier walk was skipped")
        assert cached_find_alloc(ctx, rt, state) == reference  # warm memos
        assert json.dumps(state.state_dict()) == before
        move = data.draw(st.sampled_from(["commit", "release", "stay"]))
        if move == "commit" and reference is not None:
            held.append(reference.allocation)
            state.allocate(reference.allocation)
        elif move == "release" and held:
            state.release(held.pop(data.draw(st.integers(0, len(held) - 1))))


@st.composite
def tiny_clusters(draw):
    """At most 3 comm-on servers over at most 2 GPU types."""
    types = draw(
        st.lists(st.sampled_from(GPU_TYPES), min_size=1, max_size=2, unique=True)
    )
    nodes = []
    for node_id in range(draw(st.integers(1, 3))):
        gpus = draw(
            st.dictionaries(st.sampled_from(types), st.integers(1, 3), min_size=1)
        )
        nodes.append(Node(node_id, gpus))
    return Cluster(nodes)


@given(
    cluster=tiny_clusters(),
    queue=queues(),
    objective=st.sampled_from(["payoff", "cost"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_exact_dp_matches_brute_force_oracle(cluster, queue, objective, data):
    """``_solve_exact`` finds the best of every include/exclude vector.

    The oracle enumerates all 2^n vectors in queue order.  An included
    job takes ``reference_explain(...).best`` at the walk's current state and
    commits it; the vector is infeasible when that is ``None``.  As in
    the recursion, a full cluster ends the walk.  A vector's total
    accumulates from the back as the recursion's branch values do: the
    payoff of each admitted job, or under ``branch_objective="cost"`` the
    cost of each admitted job plus the forgone utility of each skipped
    one.  The DP's plan must be a vector with the best total (largest
    payoff, smallest cost) and place every job as that vector's walk does.
    """
    state = cluster.fresh_state()
    for slot in sorted(state.slots):
        taken = data.draw(st.integers(0, state.capacity(*slot)))
        if taken:
            state.allocate(Allocation({slot: taken}))
    prices = prices_for(queue, cluster)
    reference = _round_context(cluster, prices, state, 0.0)
    allocator = DPAllocator(
        _round_context(cluster, prices, state, 0.0),
        DPConfig(queue_limit=6, branch_objective=objective),
    )
    _, plan = allocator._solve_exact(queue, state, allocator.context)

    def total(steps):
        value = 0.0
        for rt, cand in reversed(steps):
            if objective == "payoff":
                value = value if cand is None else cand.payoff + value
            elif cand is None:
                value = value + allocator._forgone_utility(reference, rt)
            else:
                value = cand.cost + value
        return value

    walks = {}
    for vector in product((False, True), repeat=len(queue)):
        walk, steps = state.copy(), []
        for rt, include in zip(queue, vector):
            if walk.is_full():
                break
            cand = reference_explain(reference, rt, walk).best if include else None
            if include and cand is None:
                steps = None
                break
            steps.append((rt, cand))
            if cand is not None:
                walk.allocate(cand.allocation)
        if steps is not None:
            walks[vector] = (total(steps), {rt.job_id: c for rt, c in steps if c})

    pick = max if objective == "payoff" else min
    best = pick(total for total, _ in walks.values())
    chosen = tuple(rt.job_id in plan for rt in queue)
    assert walks[chosen][0] == best
    assert walks[chosen][1] == plan


UTILITIES = (
    NormalizedThroughputUtility(),
    EffectiveThroughputUtility(),
    MakespanUtility(matrix=MATRIX),
    FinishTimeFairnessUtility(matrix=MATRIX),
)


def _unbounded_exact(allocator, queue, state, ctx):
    """The specification of ``DPAllocator._solve_exact``: Algorithm 2's
    memoized recursion with the skip branch first and every branch
    explored — no utility bound."""
    memo = {}
    maximize = allocator.config.branch_objective == "payoff"

    def recurse(idx, branch_state):
        if idx >= len(queue) or branch_state.is_full():
            return 0.0, {}
        key = (idx, branch_state.key())
        if key in memo:
            return memo[key]
        rt = queue[idx]
        skip_value, skip_plan = recurse(idx + 1, branch_state)
        if not maximize:
            skip_value = skip_value + allocator._forgone_utility(ctx, rt)
        best = (skip_value, skip_plan)
        cand = cached_find_alloc(ctx, rt, branch_state)
        if cand is not None:
            sub_state = branch_state.copy()
            sub_state.allocate(cand.allocation)
            sub_value, sub_plan = recurse(idx + 1, sub_state)
            take_value = (
                cand.payoff + sub_value if maximize else cand.cost + sub_value
            )
            if take_value > best[0] if maximize else take_value < best[0]:
                plan = dict(sub_plan)
                plan[rt.job_id] = cand
                best = (take_value, plan)
        memo[key] = best
        return best

    return recurse(0, state)


@st.composite
def live_queues(draw, cluster):
    """Up to 8 jobs that arrived at different times, some running on a
    current gang drawn over the inventory (it may no longer fit), part
    done and straggling."""
    slots = sorted(cluster.fresh_state().slots)
    out = []
    for i in range(draw(st.integers(1, 8))):
        job = Job(
            job_id=i,
            model=model_spec(draw(st.sampled_from(MODELS))),
            arrival_time=draw(st.floats(0.0, 3600.0)),
            num_workers=draw(st.sampled_from([1, 2, 4])),
            epochs=draw(st.integers(1, 5)),
            iters_per_epoch=draw(st.integers(100, 3000)),
        )
        rt = JobRuntime(job=job)
        rt.state = JobState.QUEUED
        if draw(st.booleans()):
            rt.state = JobState.RUNNING
            rt.iterations_done = job.total_iterations * draw(st.floats(0.0, 0.9))
            need, gang = job.num_workers, {}
            for node_id, type_name in draw(st.permutations(slots)):
                take = min(need, cluster.node(node_id).gpus[type_name])
                gang[node_id, type_name] = take
                need -= take
                if not need:
                    break
            rt.allocation = Allocation(gang)
            rt.slowdown = draw(st.sampled_from([1.0, 0.6]))
        out.append(rt)
    return out


@given(
    cluster=clusters(),
    utility=st.sampled_from(UTILITIES),
    objective=st.sampled_from(["payoff", "cost"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_bounded_dp_matches_unbounded_recursion(cluster, utility, objective, data):
    """The utility bound changes which branches the exact DP explores,
    never what it returns: ``_solve_exact`` gives the unbounded
    recursion's plan (same jobs, same candidates, same order) and its
    value bit for bit, for every shipped utility and both objectives, on
    comm-on clusters with a move delay and jobs that have waited."""
    queue = data.draw(live_queues(cluster))
    now = max(rt.job.arrival_time for rt in queue) + data.draw(
        st.floats(1.0, 7200.0)
    )
    state = cluster.fresh_state()
    for slot in sorted(state.slots):
        taken = data.draw(st.integers(0, state.capacity(*slot)))
        if taken:
            state.allocate(Allocation({slot: taken}))
    prices = PriceBook.calibrate(queue, MATRIX, utility, cluster.fresh_state(), now)

    def context():
        return RoundContext(
            prices=prices, matrix=MATRIX, cluster=cluster, utility=utility,
            now=now, delay_estimator=MOVE_DELAY, state=state,
        )

    ctx = context()
    allocator = DPAllocator(ctx, DPConfig(branch_objective=objective))
    value, plan = allocator._solve_exact(queue, state, ctx)
    ref_value, ref_plan = _unbounded_exact(allocator, queue, state, context())
    if ctx.stats.dp_prunes:
        event("the bound cut a skip branch")
    assert value.hex() == ref_value.hex()
    assert list(plan.items()) == list(ref_plan.items())


# -- the current-placement certificate -----------------------------------------

CHECKPOINTS = (
    NoOverheadCheckpoint(),
    FixedDelayCheckpoint(),
    ModelAwareCheckpoint(),
)


def _certifies(ctx, rt, state, current_payoff):
    """The certificate from its definition, at one state.

    ``P`` (the current gang's delay-free payoff) must be positive and
    beat ``B_k = value_for(age + d + remaining / (rate(t_k) * W)) - W *
    pmin_k * (1 - 2**-40)`` for every tier ``t_k`` of the fastest-first
    usable order whose free devices of ``t_1..t_k`` number at least
    ``W`` and include a ``t_k``, where ``pmin_k`` is the cheapest Eq. (5)
    price over those free slots.
    """
    if current_payoff is None or not current_payoff > 0.0:
        return False
    job = rt.job
    w = job.num_workers
    rates = ctx.rates_for(job.model.name)
    order = ctx.usable_desc(job.model.name)
    head = max(ctx.now - job.arrival_time, 0.0) + ctx.delay_estimator(rt)
    free = [(slot, f) for slot, f in state.free_slots() if f]
    for k, t in enumerate(order):
        slots = [(slot, f) for slot, f in free if slot[1] in order[: k + 1]]
        if sum(f for _, f in slots) < w or all(s[1] != t for s, _ in slots):
            continue
        pmin = min(
            ctx.prices.price_given(s[1], state.capacity(*s), f) for s, f in slots
        )
        bound = ctx.utility.value_for(
            rt, head + rt.remaining_iterations / (rates[t] * w), ctx.now
        ) - w * pmin * (1.0 - 2.0**-40)
        if not current_payoff > bound:
            return False
    return True


def _int(rng, lo, hi):
    return int(rng.integers(lo, hi, endpoint=True))


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _shuffled(rng, seq):
    return [seq[i] for i in rng.permutation(len(seq))]


def _running_round(rng):
    """A drawn round of running jobs: ``(queue, state, held, context)``,
    or ``None`` when no job's gang fits the drawn cluster.

    The cluster, utility and checkpoint model are drawn; every job runs
    on a current gang, on one server or spread over several, some
    straggling, part done.  Other gangs (``held``, one per slot) take
    part of the current gangs' slots — sometimes so much that a current
    gang no longer fits.  ``context()`` builds a fresh context for the
    round on the state as it stands.
    """
    nodes = []
    for _ in range(_int(rng, 1, 3)):
        types = _shuffled(rng, GPU_TYPES)[: _int(rng, 1, 2)]
        gpus = {t: _int(rng, 1, 4) for t in types}
        for _ in range(_int(rng, 1, 3)):
            nodes.append(Node(len(nodes), dict(gpus)))
    cluster = Cluster(nodes)
    utility = _pick(rng, UTILITIES)
    checkpoint = _pick(rng, CHECKPOINTS)
    slots = sorted(cluster.fresh_state().slots)
    caps = {slot: cluster.node(slot[0]).gpus[slot[1]] for slot in slots}

    queue = []
    for i in range(_int(rng, 1, 6)):
        job = Job(
            job_id=i,
            model=model_spec(_pick(rng, MODELS)),
            arrival_time=float(rng.uniform(0.0, 3600.0)),
            num_workers=_pick(rng, [1, 2, 4]),
            epochs=_int(rng, 1, 5),
            iters_per_epoch=_int(rng, 100, 3000),
        )
        rt = JobRuntime(job=job)
        rt.state = JobState.RUNNING
        rt.iterations_done = job.total_iterations * float(rng.uniform(0.0, 0.9))
        rt.slowdown = _pick(rng, [1.0, 1.0, 0.6])
        hosts = [
            n.node_id for n in cluster.nodes
            if sum(n.gpus.values()) >= job.num_workers
        ]
        if hosts and rng.random() < 0.5:
            host = _pick(rng, hosts)
            walk = [s for s in slots if s[0] == host]
        else:
            walk = _shuffled(rng, slots)
        need, gang = job.num_workers, {}
        for slot in walk:
            take = min(need, caps[slot])
            if take:
                gang[slot] = take
                need -= take
            if not need:
                break
        if need:
            continue  # the cluster is smaller than the gang
        rt.allocation = Allocation(gang)
        queue.append(rt)
    if not queue:
        return None

    state = cluster.fresh_state()
    held = []
    for slot in slots:
        taken = _pick(rng, [0, 0, _int(rng, 0, caps[slot])])
        if taken:
            held.append(Allocation({slot: taken}))
            state.allocate(held[-1])
    now = max(rt.job.arrival_time for rt in queue) + float(rng.uniform(1.0, 7200.0))
    prices = PriceBook.calibrate(queue, MATRIX, utility, cluster.fresh_state(), now)

    def context():
        return RoundContext(
            prices=prices, matrix=MATRIX, cluster=cluster, utility=utility,
            now=now, state=state,
            delay_estimator=lambda rt: checkpoint.move_delay(rt.job, rt.allocation),
        )

    return queue, state, held, context


def _certificate_round(rng):
    """One round of running jobs searched on one context, as the greedy
    searches them: returns each search's outcome.

    Each search must equal the straight-line reference's best, and it must be
    answered by the certificate exactly when :func:`_certifies` holds.
    Between searches the reference's gang may be committed, so the tier
    floors are read at several states and certificates are carried.
    """
    drawn = _running_round(rng)
    if drawn is None:
        return []
    queue, state, _, context = drawn
    ctx = context()
    outcomes = []
    for rt in _shuffled(rng, queue) * 2:
        explanation = reference_explain(context(), rt, state)
        certified = ctx.stats.current_certified
        assert cached_find_alloc(ctx, rt, state) == explanation.best
        certified = ctx.stats.current_certified > certified
        assert certified == _certifies(
            ctx, rt, state, explanation.current_payoff
        )
        outcomes.append("certified" if certified else "searched")
        if explanation.best is not None and rng.random() < 0.5:
            state.allocate(explanation.best.allocation)
    return outcomes


def _carried_round(rng):
    """Certify one job at a state ``S``, move the state one way, search
    again; returns which move was made, or ``None`` when nothing could
    be tried.

    * ``"elsewhere"`` — a commit on slots the job's gang does not use
      (the state falls, the job's own slots keep their free counts): the
      certified candidate itself must come back, no bound re-read;
    * ``"own slot"`` — a commit of one device on a slot of the job's
      gang: the gang's cost moves, so the certificate must not be reused;
    * ``"above"`` — a release of another gang, off the job's slots: the
      state rises above ``S`` on a slot, and a cheaper gang may have
      opened there, so the certificate must not be reused.

    Every search equals ``reference_explain(...).best`` at its state.
    """
    drawn = _running_round(rng)
    if drawn is None:
        return None
    queue, state, held, context = drawn
    for rt in _shuffled(rng, queue):  # the first job certified at S
        ctx = context()
        first = cached_find_alloc(ctx, rt, state)
        assert first == reference_explain(context(), rt, state).best
        if ctx.stats.current_certified:
            break
    else:
        return None
    own = set(rt.allocation.placements)
    free = [(slot, f) for slot, f in state.free_slots()]
    moves = {
        "elsewhere": [s for s, _ in free if s not in own],
        "own slot": [s for s, _ in free if s in own],
        "above": [a for a in held if not own & set(a.placements)],
    }
    choices = [m for m, options in moves.items() if options]
    if not choices:
        return None
    move = _pick(rng, choices)
    target = _pick(rng, moves[move])
    if move == "above":
        state.release(target)
    else:
        state.allocate(Allocation({target: _int(rng, 1, state.free(*target))}))
    found = cached_find_alloc(ctx, rt, state)
    assert found == reference_explain(context(), rt, state).best
    assert (found is first) == (move == "elsewhere")
    return move


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_current_certificate_matches_reference(seed):
    """Certified or not, the search returns the reference's best, and it
    is certified exactly when the bound says so."""
    for outcome in _certificate_round(np.random.default_rng(seed)):
        event(outcome)


def test_current_certificate_fires_and_falls_through():
    """Over a fixed sweep of rounds both outcomes occur: the certificate
    answers some searches and leaves others to the full search."""
    outcomes = Counter()
    for seed in range(80):
        outcomes.update(_certificate_round(np.random.default_rng(seed)))
    assert outcomes["certified"] > 0
    assert outcomes["searched"] > 0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=600, deadline=None)
def test_carried_certificate_matches_reference(seed):
    """A certificate carries to a lower state that keeps the job's own
    free counts, and only there."""
    move = _carried_round(np.random.default_rng(seed))
    event(f"moved: {move}")


def test_carried_certificate_sweep_tries_every_move():
    """Over a fixed sweep of rounds each move is tried: the carried
    certificate is reused and refused."""
    moves = Counter(_carried_round(np.random.default_rng(seed)) for seed in range(200))
    assert moves["elsewhere"] and moves["own slot"] and moves["above"]


def _two_server_round(rt, checkpoint, types=("V100", "V100")):
    cluster = Cluster(
        [Node(0, {types[0]: 1}), Node(1, {types[1]: 1})],
        comm=CommunicationModel.disabled(),
    )
    state = cluster.fresh_state()
    prices = PriceBook.calibrate([rt], MATRIX, UTILITY, state, 3600.0)
    return state, lambda: RoundContext(
        prices=prices, matrix=MATRIX, cluster=cluster, utility=UTILITY,
        now=3600.0, state=state,
        delay_estimator=lambda rt: checkpoint.move_delay(rt.job, rt.allocation),
    )


def _running(model, gang):
    job = Job(
        job_id=0, model=model_spec(model), arrival_time=0.0,
        num_workers=1, epochs=1, iters_per_epoch=1000,
    )
    rt = JobRuntime(job=job)
    rt.state = JobState.RUNNING
    rt.allocation = Allocation(gang)
    return rt


def test_exact_tie_reaches_the_full_search():
    """With free moves, a job on server 1 ties a gang on identical, idle
    server 0 exactly.  The search breaks that tie towards the lower picks
    and moves the job; the certificate must not keep it."""
    rt = _running("resnet18", {(1, "V100"): 1})
    state, context = _two_server_round(rt, NoOverheadCheckpoint())
    ctx = context()
    explanation = reference_explain(context(), rt, state)
    assert explanation.current_payoff == explanation.best.payoff
    assert explanation.best.allocation == Allocation({(0, "V100"): 1})
    assert cached_find_alloc(ctx, rt, state) == explanation.best
    assert ctx.stats.current_certified == 0
    assert ctx.stats.generation_runs == 1


def test_move_delay_enters_the_bound():
    """A job one iteration from done on a K80 earns more on the idle V100
    when moves are free; a 10 s pause makes staying better, and the
    certificate must see that without generating any candidate."""
    rt = _running("resnet50", {(1, "K80"): 1})
    rt.iterations_done = 999
    state, context = _two_server_round(
        rt, FixedDelayCheckpoint(), types=("V100", "K80")
    )
    ctx = context()
    explanation = reference_explain(context(), rt, state)
    assert explanation.best.allocation == rt.allocation
    assert cached_find_alloc(ctx, rt, state) == explanation.best
    assert ctx.stats.current_certified == 1
    assert ctx.stats.generation_runs == 0


# -- the decision record's explanation -----------------------------------------


@given(
    cluster=clusters(),
    matrix=st.one_of(st.just(MATRIX), tied_matrices()),
    utility=st.sampled_from(UTILITIES),
    checkpoint=st.sampled_from(CHECKPOINTS),
    queue_limit=st.sampled_from([0, 8]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_explanation_matches_straight_line_reference(
    cluster, matrix, utility, checkpoint, queue_limit, data
):
    """``explain_alloc`` on a round's own warm context reports all five
    fields of the straight-line reference's explanation, floats as
    ``float.hex``.

    The round runs the DP (exact or greedy) on a context; then every job
    is explained on that context at states the DP's walks searched it at,
    at the post-decision state and, for an admitted job, at its
    leave-one-out probe (the post-decision state with its own gang
    released).  Clusters with runs of identical servers and tied matrices
    fill the pruning groups.  Some jobs already run on the gang the
    search would give them — the cheapest member of its pruning group,
    whose runner-up must survive pruning — at full rate or straggling.
    """
    queue = data.draw(live_queues(cluster))
    now = max(rt.job.arrival_time for rt in queue) + data.draw(
        st.floats(1.0, 7200.0)
    )
    state = cluster.fresh_state()
    for slot in sorted(state.slots):
        taken = data.draw(st.integers(0, state.capacity(*slot)))
        if taken:
            state.allocate(Allocation({slot: taken}))
    prices = PriceBook.calibrate(queue, matrix, utility, cluster.fresh_state(), now)

    def context():
        return RoundContext(
            prices=prices, matrix=matrix, cluster=cluster, utility=utility,
            now=now, state=state,
            delay_estimator=lambda rt: checkpoint.move_delay(rt.job, rt.allocation),
        )

    for rt in queue:
        if data.draw(st.booleans()):
            rt.allocation = EMPTY_ALLOCATION
            pick = reference_explain(context(), rt, state).best
            if pick is not None:
                rt.state = JobState.RUNNING
                rt.allocation = pick.allocation
                rt.slowdown = data.draw(st.sampled_from([1.0, 0.6]))
                event("a job runs on the search's own pick")

    ctx = context()
    searched = {}

    def recording(ctx, rt, branch_state, state_key=None):
        searched.setdefault((rt.job_id, branch_state.key()), rt)
        return cached_find_alloc(ctx, rt, branch_state, state_key)

    with mock.patch.object(dp_module, "cached_find_alloc", recording):
        chosen = DPAllocator(ctx, DPConfig(queue_limit=queue_limit)).allocate(
            queue, state
        )
    cases = [(rt, key) for (_, key), rt in searched.items()]
    cases = cases[:: max(1, len(cases) // 16)]
    for rt in queue:
        probe = state.copy()
        if rt.job_id in chosen:
            probe.release(chosen[rt.job_id].allocation)
        cases.append((rt, probe.key()))
    for rt, key in cases:
        got = explain_alloc(ctx, rt, key)
        want = reference_explain(context(), rt, state_at(state, key.vec))
        assert explanation_fields(got) == explanation_fields(want)
        event(f"reason: {want.reason or 'placed'}")
