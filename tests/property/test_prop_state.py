"""Property-based tests: ClusterState invariants under arbitrary
allocate/release sequences, and the identity of its state keys."""

from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.cluster.state as state_module
from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState, StateKey
from repro.core.round_context import SlotBook

TYPES = ("V100", "P100", "K80")


@st.composite
def capacities(draw):
    n_nodes = draw(st.integers(1, 4))
    caps = {}
    for node in range(n_nodes):
        for t in TYPES:
            c = draw(st.integers(0, 4))
            if c:
                caps[(node, t)] = c
    if not caps:
        caps[(0, "V100")] = 1
    return caps


@st.composite
def sub_allocation(draw, free: dict):
    """An allocation drawn within the currently-free capacity."""
    picks = {}
    for slot, avail in free.items():
        if avail > 0 and draw(st.booleans()):
            picks[slot] = draw(st.integers(1, avail))
    return Allocation(picks)


@given(caps=capacities(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_allocate_release_never_violates_bounds(caps, data):
    """0 ≤ free ≤ capacity after any valid allocate/release interleaving."""
    state = ClusterState(caps)
    live: list[Allocation] = []
    for _ in range(data.draw(st.integers(1, 10))):
        do_alloc = data.draw(st.booleans()) or not live
        if do_alloc:
            free = {slot: state.free(*slot) for slot in caps}
            alloc = data.draw(sub_allocation(free))
            if alloc and state.can_fit(alloc):
                state.allocate(alloc)
                live.append(alloc)
        elif live:
            idx = data.draw(st.integers(0, len(live) - 1))
            state.release(live.pop(idx))
        for slot, cap in caps.items():
            assert 0 <= state.free(*slot) <= cap
    # Conservation: used equals what the live allocations hold.
    held = sum(a.total_workers for a in live)
    assert state.total_used() == held


@given(caps=capacities(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_copy_isolation(caps, data):
    state = ClusterState(caps)
    free = {slot: state.free(*slot) for slot in caps}
    alloc = data.draw(sub_allocation(free))
    clone = state.copy()
    if alloc and clone.can_fit(alloc):
        clone.allocate(alloc)
    assert state.total_used() == 0
    assert state.key() == ClusterState(caps).key()


@given(caps=capacities(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_key_roundtrip(caps, data):
    """key() is a faithful fingerprint: equal states ⇔ equal keys."""
    a = ClusterState(caps)
    b = ClusterState(caps)
    free = {slot: a.free(*slot) for slot in caps}
    alloc = data.draw(sub_allocation(free))
    if alloc:
        a.allocate(alloc)
        assert a.key() != b.key()
        b.allocate(alloc)
    assert a.key() == b.key()
    assert a == b


# -- state keys: the carried hash --------------------------------------------


def _vector(state: ClusterState) -> tuple[int, ...]:
    return tuple(state.free(*slot) for slot in state.slots)


@given(caps=capacities(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_keys_name_free_vectors(caps, data):
    """After any mix of allocate/release/copy/fail/restore/load_state_dict
    over a family of states, keys are equal exactly when free vectors are,
    every key's carried hash is its vector's hash computed afresh (so equal
    keys hash equally), and a memo holds one entry per distinct vector."""
    states = [ClusterState(caps)]
    failed: list[list[tuple[int, str, int]]] = [[]]
    for _ in range(data.draw(st.integers(1, 14))):
        i = data.draw(st.integers(0, len(states) - 1))
        state = states[i]
        op = data.draw(
            st.sampled_from(
                ["allocate", "release", "copy", "fail", "restore", "load", "key"]
            )
        )
        if op == "allocate":
            free = {slot: state.free(*slot) for slot in caps}
            alloc = data.draw(sub_allocation(free))
            if alloc:
                state.allocate(alloc)
        elif op == "release":
            used = {slot: state.used(*slot) for slot in caps}
            alloc = data.draw(sub_allocation(used))
            if alloc:
                state.release(alloc)
        elif op == "copy":
            states.append(state.copy())
            failed.append(list(failed[i]))
        elif op == "fail":
            free = [slot for slot in caps if state.free(*slot) > 0]
            if free:
                node_id, type_name = data.draw(st.sampled_from(free))
                count = data.draw(st.integers(1, state.free(node_id, type_name)))
                state.fail(node_id, type_name, count)
                failed[i].append((node_id, type_name, count))
        elif op == "restore":
            if failed[i]:
                state.restore(*failed[i].pop())
        elif op == "load":
            j = data.draw(st.integers(0, len(states) - 1))
            state.load_state_dict(states[j].state_dict())
            failed[i] = list(failed[j])
        else:
            state.key()
    keys = [state.key() for state in states]
    vectors = [_vector(state) for state in states]
    for key, vector in zip(keys, vectors):
        assert key.vec == vector
        assert hash(key) == hash(StateKey.of(vector))
        for other, other_vector in zip(keys, vectors):
            assert (key == other) == (vector == other_vector)
    assert len(dict.fromkeys(keys)) == len(set(vectors))


@given(caps=capacities(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_vector_reached_two_ways_hits_one_memo_entry(caps, data):
    """Gangs committed in two orders, keys taken along the way, end on one
    free vector, and both final keys find the one memo entry — also as
    part of a DP-style ``(index, key)`` memo key."""
    root = ClusterState(caps)
    walk = root.copy()
    gangs = []
    for _ in range(data.draw(st.integers(1, 4))):
        free = {slot: walk.free(*slot) for slot in caps}
        alloc = data.draw(sub_allocation(free))
        if alloc:
            walk.allocate(alloc)
            gangs.append(alloc)
    order = data.draw(st.permutations(range(len(gangs))))
    first, second = root.copy(), root.copy()
    for alloc in gangs:
        first.allocate(alloc)
        first.key()
    for index in order:
        second.allocate(gangs[index])
        second.key()
    memo = {first.key(): "entry", (3, first.key()): "dp entry"}
    assert memo.get(second.key()) == "entry"
    assert memo.get((3, second.key())) == "dp entry"


def _book_contents(book: SlotBook):
    return (
        book.key.vec,
        book.order,
        book.type_free,
        book.price_of,
        {
            (book.inventories[inv], frees): nodes
            for (inv, frees), nodes in book.classes.items()
        },
    )


@given(caps=capacities(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_slot_book_moved_by_key_steps_matches_a_fresh_fill(caps, data):
    """One book follows keys taken across a family of states — a key one
    step from the book's re-files only its named positions, any other
    jump diffs the whole vector — and always holds what a fresh book
    filled by the full diff holds."""
    caps = dict(sorted(caps.items()))

    def price(slot, free):
        return float((free * 7 + slot[0]) % 5)

    def fresh(key):
        book = SlotBook(caps, TYPES)
        book.sync(StateKey.of(key.vec), price)
        return _book_contents(book)

    states = [ClusterState(caps)]
    book = SlotBook(caps, TYPES)
    book.sync(states[0].key(), price)
    for _ in range(data.draw(st.integers(1, 16))):
        i = data.draw(st.integers(0, len(states) - 1))
        state = states[i]
        op = data.draw(st.sampled_from(["allocate", "release", "copy", "sync"]))
        if op == "allocate":
            free = {slot: state.free(*slot) for slot in caps}
            alloc = data.draw(sub_allocation(free))
            if alloc:
                state.allocate(alloc)
        elif op == "release":
            used = {slot: state.used(*slot) for slot in caps}
            alloc = data.draw(sub_allocation(used))
            if alloc:
                state.release(alloc)
        elif op == "copy":
            states.append(state.copy())
        key = state.key()
        stepped = key.base is book.key
        book.sync(key, price)
        if stepped:
            event("the book followed a key's step")
        assert _book_contents(book) == fresh(key)


def test_colliding_hashes_still_tell_vectors_apart():
    """With every slot weighted 1, a key's hash is its free total, so two
    vectors with one total share a hash; memo probes still compare the
    whole vector and keep them apart."""
    caps = {(0, "V100"): 2, (1, "V100"): 2, (1, "K80"): 1}
    with mock.patch.object(state_module, "_slot_weights", lambda n: (1,) * n):
        a, b = ClusterState(caps), ClusterState(caps)
        a.allocate(Allocation({(0, "V100"): 1}))
        b.allocate(Allocation({(1, "V100"): 1}))
        ka, kb = a.key(), b.key()
        assert hash(ka) == hash(kb) and ka != kb
        memo = {ka: "a"}
        assert kb not in memo
        memo[kb] = "b"
        assert memo[ka] == "a" and memo[kb] == "b"
        b.release(Allocation({(1, "V100"): 1}))
        b.allocate(Allocation({(0, "V100"): 1}))
        assert memo[b.key()] == "a"
