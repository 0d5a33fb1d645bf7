"""Golden-parity suite for the round-scoped allocation engine.

The round caches (``RoundContext`` price/generation/physics/candidate
memos plus the incremental ``ClusterState.key``) are pure performance
work: every test here pins the cached search to **byte-identical** scheduling decisions
against ``tests/core/golden_hotpath.json``, a fingerprint file captured
from the pre-``RoundContext`` implementation, and against whole
simulations driven by the straight-line reference
(``tests/core/reference_find_alloc.py``) in place of the search.

Also covers the unit-level cache contracts: Eq. (5) price memoization
keyed on free counts (so ``allocate``/``release`` "invalidate" exactly
the touched slots) and the O(delta) incremental state key.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

import repro.core.dp as dp_module
import repro.core.round_context as round_context_module
from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState
from repro.core.pricing import PriceBook
from repro.core.round_context import RoundContext
from repro.core.scheduler import HadarScheduler
from repro.core.utility import NormalizedThroughputUtility
from repro.experiments.scalability import _context_for as fig7_context

from tests._hostile_env import hostile_environment
from tests.core._hotpath_fingerprint import (
    SCHEDULER_NAMES,
    SEEDS,
    digest,
    fingerprint,
    run_scenario,
    run_scheduler,
)
from tests.core.reference_find_alloc import reference_explain

GOLDEN_PATH = Path(__file__).with_name("golden_hotpath.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

# The last counters of the retired ``DPConfig(round_caching=False)`` mode
# (every cache off), per seed of the Hadar parity scenario.  They are
# deterministic, so they stay the yardstick for the cache layers' work
# reduction.  This is the only copy of the row.
RETIRED_REFERENCE_COUNTERS = {
    1: {"find_alloc_calls": 68915, "candidate_evals": 1032984},
    2: {"find_alloc_calls": 22432, "candidate_evals": 284632},
    3: {"find_alloc_calls": 10816, "candidate_evals": 162240},
}

# Each simulation takes seconds; share runs across the assertions below.
_RESULTS: dict[tuple, object] = {}


def _run(name: str, seed: int):
    key = (name, seed)
    if key not in _RESULTS:
        _RESULTS[key] = run_scenario(name, seed)
    return _RESULTS[key]


def _reference_find_alloc(ctx, rt, state, state_key=None):
    """The DP's ``FIND_ALLOC`` hook answered by the straight-line reference."""
    ctx.stats.find_alloc_calls += 1
    return reference_explain(ctx, rt, state).best


class _FullRescanHadar(HadarScheduler):
    """Hadar with every job's Eq. (8) record re-derived each round —
    :meth:`PriceBook.calibrate`'s full rescan instead of the persistent
    calibrator's reuse."""

    def schedule(self, ctx):
        self._calibrator = None
        return super().schedule(ctx)


# -- golden parity: cached search ---------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_cached_path_matches_golden(name: str, seed: int, monkeypatch) -> None:
    """The shipped (caching) implementation reproduces the pre-RoundContext
    schedules bit-for-bit, for Hadar and both baselines — under jumping
    clocks and reseeded global RNGs, so no decision reads either.  The
    run is shared with the counter tests below."""
    hostile_environment(monkeypatch, seed)
    result = _RESULTS[(name, seed)] = run_scenario(name, seed)
    golden = GOLDEN[f"{name}/{seed}"]
    assert digest(fingerprint(result)) == golden["sha256"]
    assert repr(result.makespan()) == golden["makespan"]
    assert len(result.completed) == golden["completed"]


# -- golden parity: the straight-line reference --------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_mode_matches_golden(seed: int) -> None:
    """Every DP ``FIND_ALLOC`` call answered by the straight-line reference — no
    generation, physics or candidate cache — lands on the
    identical schedule, through the same logical calls (only Hadar
    exercises the DP hot path)."""
    with mock.patch.object(dp_module, "cached_find_alloc", _reference_find_alloc):
        result = run_scenario("hadar", seed)
    assert digest(fingerprint(result)) == GOLDEN[f"hadar/{seed}"]["sha256"]
    assert (
        result.hotpath_stats["find_alloc_calls"]
        == _run("hadar", seed).hotpath_stats["find_alloc_calls"]
    )


# -- golden parity: calibration ------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_calibration_matches_golden(seed: int) -> None:
    """Rebuilding the Eq. 6-8 price book from scratch every round lands on
    the golden schedule too: the persistent calibrator's record reuse
    (covered by the cached-path tests above) is byte-identical to it."""
    result = run_scheduler(_FullRescanHadar(), seed)
    assert digest(fingerprint(result)) == GOLDEN[f"hadar/{seed}"]["sha256"]
    stats = result.hotpath_stats
    assert stats["calib_dirty"] == stats["calib_jobs"]


# -- cache effectiveness -------------------------------------------------------


# ``FIND_ALLOC`` calls per seed of the Hadar parity scenario once the exact
# DP's utility bound cuts skip branches that cannot win.  The retired mode
# explored every branch; the bound lowers the logical demand by design and
# leaves every schedule unchanged (the golden tests above).
FIND_ALLOC_CALLS = {1: 12867, 2: 8001, 3: 4595}
# Of those, the calls the current-placement certificate answered without
# generating a candidate (every call still counts above).
CURRENT_CERTIFIED = {1: 12800, 2: 6066, 3: 4557}


@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_evals_reduced_at_least_10x(seed: int) -> None:
    """>=10x fewer cold candidate costings than with every cache off, and
    fewer logical ``FIND_ALLOC`` calls than the unbounded DP made.  The
    counters are deterministic, so the call count and the certified
    calls among them are pinned exactly."""
    cached = _run("hadar", seed).hotpath_stats
    reference = RETIRED_REFERENCE_COUNTERS[seed]
    assert cached["candidate_evals"] * 10 <= reference["candidate_evals"]
    assert cached["find_alloc_calls"] == FIND_ALLOC_CALLS[seed]
    assert FIND_ALLOC_CALLS[seed] < reference["find_alloc_calls"]
    assert cached["current_certified"] == CURRENT_CERTIFIED[seed]


def test_cold_fig7_decision_costs_few_candidates_per_call() -> None:
    """A cold 256-job decision on the Fig. 7 cluster for that size
    (``simulated_cluster(scale=8)``: 480 GPUs in 120 single-type servers)
    costs a handful of candidates per ``FIND_ALLOC`` call: dominance
    pruning keeps about 4 of the ~60 gangs the consolidated family offers
    (3.7 per call measured; about 60 without pruning).  Counters only, so
    the bound is exact."""
    scheduler = HadarScheduler()
    scheduler.schedule(fig7_context(256, seed=1))
    stats = scheduler.last_round_stats
    assert stats["candidate_evals"] <= 8 * stats["find_alloc_calls"]


def test_cold_fig7_generation_reads_flat_per_call() -> None:
    """Candidate generation reads about as many slots per ``FIND_ALLOC``
    call in a cold 1024-job decision on 1,920 GPUs as in a 256-job one on
    480: the slot book re-files only the slots a commit changed, and its
    walks stop after W GPUs.  Rebuilding the families on every generation
    miss read every usable slot, about 4x as many per call at 1024 jobs.
    Counters only, so the bound is exact."""
    per_call = {}
    for jobs in (256, 1024):
        scheduler = HadarScheduler()
        scheduler.schedule(fig7_context(jobs, seed=1))
        stats = scheduler.last_round_stats
        per_call[jobs] = stats["slot_reads"] / stats["find_alloc_calls"]
    assert per_call[1024] <= 1.5 * per_call[256]


def test_cold_fig7_commits_move_the_slot_book_by_their_gangs() -> None:
    """In a cold 1024-job decision (480 slots, greedy only) the slot book
    diffs the whole vector once, to fill itself from empty.  Every later
    move is handed by the keys' steps and examines only the slots the
    commits since the book's last move touched, so the walk's moves
    examine at most the committed gangs' slots."""
    handed: list[int] = []
    full = [0]
    between = round_context_module._moved_between

    def moved_between(old, key):
        moved = between(old, key)
        if moved is None:
            full[0] += 1
        else:
            handed.append(len(moved))
        return moved

    scheduler = HadarScheduler()
    with mock.patch.object(round_context_module, "_moved_between", moved_between):
        target = scheduler.schedule(fig7_context(1024, seed=1))
    committed = sum(len(alloc.placements) for alloc in target.values())
    assert full[0] == 1
    assert len(handed) > 800  # every generation miss after the first
    assert sum(handed) <= committed


def test_cache_layers_actually_engage() -> None:
    cached = _run("hadar", SEEDS[0]).hotpath_stats
    for counter in (
        "candidate_hits",
        "price_hits",
        "generation_hits",
        "physics_hits",
    ):
        assert cached[counter] > 0, counter


# -- unit: price cache keyed on free counts ------------------------------------


def _make_prices(state: ClusterState) -> PriceBook:
    # Bounds sized so a small gang's payoff is positive on an idle
    # cluster (per-worker utilities here are ~0.06) yet prices still
    # rise visibly with occupancy.
    types = sorted({t for (_, t) in state.slots})
    return PriceBook(
        u_min={t: 1e-3 for t in types},
        u_max={t: 0.05 for t in types},
        eta=1.0,
    )


def _make_ctx(state, matrix, cluster, prices=None) -> RoundContext:
    return RoundContext(
        prices=prices if prices is not None else _make_prices(state),
        matrix=matrix,
        cluster=cluster,
        utility=NormalizedThroughputUtility(),
        now=0.0,
        delay_estimator=lambda rt: 10.0,
        state=state,
    )


class TestPriceCache:
    def test_matches_pricebook_at_every_occupancy(self, small_cluster, matrix):
        """ctx.price(slot, free) equals the book's state-based price for
        every reachable free count of every slot."""
        state = ClusterState.from_cluster(small_cluster)
        prices = _make_prices(state)
        ctx = _make_ctx(state, matrix, small_cluster, prices=prices)
        for node_id, type_name in state.slots:
            cap = state.capacity(node_id, type_name)
            for free in range(cap + 1):
                probe = ClusterState.from_cluster(small_cluster)
                probe.allocate(
                    Allocation.from_pairs([(node_id, type_name, cap - free)])
                )
                expected = prices.price(node_id, type_name, probe)
                assert ctx.price((node_id, type_name), free) == expected

    def test_allocate_release_invalidate_by_key_change(
        self, small_cluster, matrix
    ):
        """Mutating the state changes the free count — the cache key — so
        the context serves fresh prices for touched slots and cached ones
        for everything else, with no explicit invalidation hook."""
        state = ClusterState.from_cluster(small_cluster)
        prices = _make_prices(state)
        ctx = _make_ctx(state, matrix, small_cluster, prices=prices)
        slot = (0, "V100")
        idle = ctx.price(slot, state.free(*slot))
        assert idle == prices.price(0, "V100", state)

        gang = Allocation.from_pairs([(0, "V100", 2)])
        state.allocate(gang)
        busy = ctx.price(slot, state.free(*slot))
        assert busy == prices.price(0, "V100", state)
        assert busy > idle  # Eq. (5) prices rise with occupancy

        evals = ctx.stats.price_evals
        state.release(gang)
        # Back at the original free count: the key matches again, so the
        # idle price is served from cache (a hit, not a recomputation).
        assert ctx.price(slot, state.free(*slot)) == idle
        assert ctx.stats.price_evals == evals
        assert ctx.stats.price_hits >= 1


# -- unit: incremental ClusterState.key ----------------------------------------


class TestIncrementalStateKey:
    def _reference_key(self, state: ClusterState) -> tuple[int, ...]:
        """The pre-optimization definition: sort the slots, read the frees."""
        return tuple(
            state.free(node_id, type_name)
            for node_id, type_name in sorted(state.slots)
        )

    def test_tracks_allocate_and_release(self, small_cluster):
        state = ClusterState.from_cluster(small_cluster)
        assert state.key().vec == self._reference_key(state)
        moves = [
            Allocation.from_pairs([(0, "V100", 2), (0, "K80", 1)]),
            Allocation.from_pairs([(1, "P100", 1)]),
            Allocation.from_pairs([(2, "P100", 2), (2, "K80", 1)]),
        ]
        for alloc in moves:
            state.allocate(alloc)
            assert state.key().vec == self._reference_key(state)
        for alloc in reversed(moves):
            state.release(alloc)
            assert state.key().vec == self._reference_key(state)

    def test_copies_diverge_independently(self, small_cluster):
        state = ClusterState.from_cluster(small_cluster)
        state.allocate(Allocation.from_pairs([(0, "V100", 1)]))
        parent_key = state.key()
        clone = state.copy()
        assert clone.key() == parent_key
        clone.allocate(Allocation.from_pairs([(1, "V100", 2)]))
        assert state.key() == parent_key  # parent unaffected
        assert clone.key().vec == self._reference_key(clone)
        assert clone.key() != parent_key

    def test_key_is_a_stable_snapshot(self, small_cluster):
        """key() returns a frozen tuple — later mutation must not alter a
        previously returned key (DP memo entries rely on this)."""
        state = ClusterState.from_cluster(small_cluster)
        before = state.key()
        snapshot = tuple(before.vec)
        state.allocate(Allocation.from_pairs([(0, "V100", 2)]))
        assert before.vec == snapshot
        assert state.key() != before
