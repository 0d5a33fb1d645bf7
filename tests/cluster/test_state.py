"""Unit tests for ClusterState bookkeeping."""

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState


@pytest.fixture
def state(small_cluster):
    return small_cluster.fresh_state()


class TestQueries:
    def test_initially_all_free(self, state, small_cluster):
        assert state.total_free() == small_cluster.total_gpus
        assert state.total_used() == 0
        assert not state.is_full()

    def test_free_by_type(self, state):
        assert state.free_by_type() == {"V100": 4, "P100": 3, "K80": 2}

    def test_slots_sorted(self, state):
        assert list(state.slots) == sorted(state.slots)

    def test_free_slots_of_one_type(self, state):
        assert list(state.free_slots_of("V100")) == [(0, 2), (1, 2)]
        assert list(state.free_slots_of("A100")) == []
        clone = state.copy()
        clone.allocate(Allocation({(0, "V100"): 2, (2, "P100"): 1}))
        clone.fail(1, "V100", 1)
        assert list(clone.free_slots_of("V100")) == [(1, 1)]
        assert list(clone.free_slots_of("P100")) == [(1, 1), (2, 1)]
        assert list(state.free_slots_of("V100")) == [(0, 2), (1, 2)]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ClusterState({(0, "V100"): -1})


class TestAllocateRelease:
    def test_roundtrip(self, state):
        alloc = Allocation({(0, "V100"): 2, (2, "K80"): 1})
        assert state.can_fit(alloc)
        state.allocate(alloc)
        assert state.free(0, "V100") == 0
        assert state.used(2, "K80") == 1
        state.release(alloc)
        assert state.total_used() == 0

    def test_overallocate_rejected(self, state):
        with pytest.raises(ValueError, match="does not fit"):
            state.allocate(Allocation({(0, "V100"): 3}))

    def test_allocate_unknown_slot_rejected(self, state):
        assert not state.can_fit(Allocation({(9, "V100"): 1}))
        with pytest.raises(ValueError):
            state.allocate(Allocation({(9, "V100"): 1}))

    def test_over_release_rejected(self, state):
        with pytest.raises(ValueError, match="overflows"):
            state.release(Allocation({(0, "V100"): 1}))

    def test_partial_release_check_is_atomic(self, state):
        state.allocate(Allocation({(0, "V100"): 1}))
        bad = Allocation({(0, "V100"): 1, (1, "V100"): 1})
        with pytest.raises(ValueError):
            state.release(bad)
        # Nothing was released by the failed call.
        assert state.used(0, "V100") == 1
        assert state.used(1, "V100") == 0

    def test_is_full(self):
        state = ClusterState({(0, "V100"): 1})
        state.allocate(Allocation({(0, "V100"): 1}))
        assert state.is_full()


class TestCopyAndKey:
    def test_copy_is_independent(self, state):
        clone = state.copy()
        clone.allocate(Allocation({(0, "V100"): 2}))
        assert state.free(0, "V100") == 2
        assert clone.free(0, "V100") == 0

    def test_key_changes_with_occupancy(self, state):
        k0 = state.key()
        state.allocate(Allocation({(0, "V100"): 1}))
        assert state.key() != k0
        state.release(Allocation({(0, "V100"): 1}))
        assert state.key() == k0

    def test_equality(self, small_cluster):
        a = small_cluster.fresh_state()
        b = small_cluster.fresh_state()
        assert a == b
        a.allocate(Allocation({(0, "V100"): 1}))
        assert a != b

    def test_free_slots_iterates_only_free(self, state):
        state.allocate(Allocation({(0, "V100"): 2, (0, "K80"): 1}))
        slots = dict(state.free_slots())
        assert (0, "V100") not in slots
        assert (0, "K80") not in slots
        assert slots[(1, "V100")] == 2
