"""Mutable free-capacity bookkeeping.

A :class:`ClusterState` tracks, per ``(node, gpu_type)`` slot, how many
devices are free.  Schedulers mutate a state while constructing a round's
allocation (Hadar's DP explores states recursively and therefore relies on
cheap :meth:`ClusterState.copy` and a canonical :meth:`ClusterState.key`
for memoization); the simulation engine keeps one authoritative state for
"what is running right now".

The slot universe is fixed at construction, so the canonical slot order
(and each type's positions in it) is computed once and shared by every
copy: :meth:`allocate` / :meth:`release` update the free-count vector in
``O(slots touched)`` and :meth:`key` never re-sorts — it just freezes
(and caches) the maintained vector.  This is what keeps the DP
recursion's per-node memo lookups flat as the cluster grows (see
``docs/performance.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.allocation import Allocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

__all__ = ["ClusterState"]


class ClusterState:
    """Free GPU counts per ``(node_id, gpu_type)`` slot.

    The slot list is fixed at construction (from the cluster's inventory);
    only the free counts change.  All mutation goes through
    :meth:`allocate` / :meth:`release`, which enforce capacity invariants.
    """

    __slots__ = (
        "_capacity", "_free", "_order", "_index", "_by_type", "_vec", "_key_cache",
    )

    def __init__(self, capacity: dict[tuple[int, str], int]):
        for slot, cap in capacity.items():
            if cap < 0:
                raise ValueError(f"negative capacity for slot {slot}")
        self._capacity: dict[tuple[int, str], int] = dict(capacity)
        self._free: dict[tuple[int, str], int] = dict(capacity)
        # Canonical slot order, shared (immutable) across every copy.
        self._order: tuple[tuple[int, str], ...] = tuple(sorted(self._capacity))
        self._index: dict[tuple[int, str], int] = {
            slot: i for i, slot in enumerate(self._order)
        }
        # Each type's positions in the canonical order, shared like _order.
        by_type: dict[str, list[int]] = {}
        for i, (_, type_name) in enumerate(self._order):
            by_type.setdefault(type_name, []).append(i)
        self._by_type: dict[str, tuple[int, ...]] = {
            type_name: tuple(positions) for type_name, positions in by_type.items()
        }
        # Free counts in canonical order; maintained incrementally so
        # key() needs no sort (and no dict walk).
        self._vec: list[int] = [self._free[slot] for slot in self._order]
        self._key_cache: Optional[tuple[int, ...]] = tuple(self._vec)

    @classmethod
    def from_cluster(cls, cluster: "Cluster") -> "ClusterState":
        capacity = {
            (node.node_id, type_name): count
            for node in cluster.nodes
            for type_name, count in node.gpus.items()
        }
        return cls(capacity)

    # -- queries ---------------------------------------------------------
    @property
    def slots(self) -> tuple[tuple[int, str], ...]:
        """All ``(node_id, type)`` slots, sorted deterministically."""
        return self._order

    def capacity(self, node_id: int, type_name: str) -> int:
        return self._capacity.get((node_id, type_name), 0)

    def free(self, node_id: int, type_name: str) -> int:
        return self._free.get((node_id, type_name), 0)

    def used(self, node_id: int, type_name: str) -> int:
        return self.capacity(node_id, type_name) - self.free(node_id, type_name)

    def free_by_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, type_name), count in self._free.items():
            out[type_name] = out.get(type_name, 0) + count
        return out

    def capacity_by_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, type_name), cap in self._capacity.items():
            out[type_name] = out.get(type_name, 0) + cap
        return out

    def used_by_type(self) -> dict[str, int]:
        free = self.free_by_type()
        return {t: cap - free.get(t, 0) for t, cap in self.capacity_by_type().items()}

    def total_free(self) -> int:
        return sum(self._vec)

    def total_capacity(self) -> int:
        return sum(self._capacity.values())

    def total_used(self) -> int:
        return self.total_capacity() - self.total_free()

    def is_full(self) -> bool:
        """True when no GPU of any type is free."""
        return self.total_free() == 0

    def free_slots(self) -> Iterable[tuple[tuple[int, str], int]]:
        """Yield ``((node_id, type), free_count)`` for slots with free GPUs."""
        vec = self._vec
        for i, slot in enumerate(self._order):
            count = vec[i]
            if count > 0:
                yield slot, count

    def free_slots_of(self, type_name: str) -> Iterable[tuple[int, int]]:
        """Yield ``(node_id, free_count)`` for one type's slots with free
        GPUs, in canonical (node) order; walks only that type's slots."""
        vec = self._vec
        order = self._order
        for i in self._by_type.get(type_name, ()):
            count = vec[i]
            if count > 0:
                yield order[i][0], count

    # -- mutation ---------------------------------------------------------
    def can_fit(self, allocation: Allocation) -> bool:
        """Whether the placement fits in the currently free devices."""
        free = self._free
        for slot, count in allocation.placements.items():
            if free.get(slot, 0) < count:
                return False
        return True

    def allocate(self, allocation: Allocation) -> None:
        """Claim the devices of ``allocation``; raises if any slot lacks room."""
        if not self.can_fit(allocation):
            raise ValueError(f"allocation does not fit free capacity: {allocation}")
        for slot, count in allocation.placements.items():
            self._free[slot] -= count
            self._vec[self._index[slot]] -= count
        self._key_cache = None

    def release(self, allocation: Allocation) -> None:
        """Return the devices of ``allocation``; raises on over-release."""
        for slot, count in allocation.placements.items():
            cap = self._capacity.get(slot, 0)
            new_free = self._free.get(slot, 0) + count
            if new_free > cap:
                raise ValueError(
                    f"release overflows capacity at slot {slot}: {new_free} > {cap}"
                )
        for slot, count in allocation.placements.items():
            self._free[slot] += count
            self._vec[self._index[slot]] += count
        self._key_cache = None

    # -- fault capacity ---------------------------------------------------
    def fail(self, node_id: int, type_name: str, count: int) -> None:
        """Remove ``count`` *free* devices from the slot's capacity.

        Fault injection preempts any gang touching the slot first, so the
        failed devices are free by the time capacity shrinks.  ``_capacity``
        is shared across :meth:`copy` clones ("immutable by convention"),
        so the first fault on a state rebinds it copy-on-write — DP branch
        copies taken earlier keep seeing the capacity they were born with.
        """
        if count < 0:
            raise ValueError(f"negative fail count {count}")
        if count == 0:
            return
        slot = (node_id, type_name)
        free = self._free.get(slot, 0)
        if count > free:
            raise ValueError(
                f"cannot fail {count} devices at slot {slot}: only {free} free"
            )
        self._capacity = dict(self._capacity)
        self._capacity[slot] -= count
        self._free[slot] = free - count
        self._vec[self._index[slot]] -= count
        self._key_cache = None

    def restore(self, node_id: int, type_name: str, count: int) -> None:
        """Return ``count`` previously failed devices to the slot.

        The caller (the fault phase) restores exactly what the matching
        failure removed, so nominal capacity is never exceeded.
        """
        if count < 0:
            raise ValueError(f"negative restore count {count}")
        if count == 0:
            return
        slot = (node_id, type_name)
        if slot not in self._index:
            raise ValueError(f"cannot restore unknown slot {slot}")
        self._capacity = dict(self._capacity)
        self._capacity[slot] = self._capacity.get(slot, 0) + count
        self._free[slot] = self._free.get(slot, 0) + count
        self._vec[self._index[slot]] += count
        self._key_cache = None

    # -- copies / keys ----------------------------------------------------
    def copy(self) -> "ClusterState":
        clone = ClusterState.__new__(ClusterState)
        clone._capacity = self._capacity  # immutable by convention: shared
        clone._free = dict(self._free)
        clone._order = self._order  # shared: the slot universe never changes
        clone._index = self._index
        clone._by_type = self._by_type
        clone._vec = list(self._vec)
        clone._key_cache = self._key_cache
        return clone

    def key(self) -> tuple[int, ...]:
        """Canonical hashable snapshot of free counts (for DP memoization)."""
        cached = self._key_cache
        if cached is None:
            cached = self._key_cache = tuple(self._vec)
        return cached

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """Capacity and free counts per slot, in dict insertion order.

        Capacity is part of the state (not just the free counts): fault
        injection shrinks it copy-on-write via :meth:`fail`, so a restored
        state must reproduce the surviving inventory, not the as-built one.
        The list preserves ``_capacity``'s insertion order because
        ``free_by_type``/``used_by_type`` walk the dicts and downstream
        consumers serialize their output order.  The derived members
        (``_vec``/``_key_cache``) rebuild from the two dicts.
        """
        return {
            "slots": [
                [node_id, type_name, cap, self._free[(node_id, type_name)]]
                for (node_id, type_name), cap in self._capacity.items()
            ]
        }

    def load_state_dict(self, state: dict) -> None:
        for node_id, type_name, _cap, _free in state["slots"]:
            if (int(node_id), str(type_name)) not in self._index:
                raise ValueError(
                    f"snapshot references unknown slot {(node_id, type_name)}"
                )
        self._capacity = {
            (int(n), str(t)): int(cap) for n, t, cap, _ in state["slots"]
        }
        self._free = {
            (int(n), str(t)): int(free) for n, t, _, free in state["slots"]
        }
        self._vec = [self._free[slot] for slot in self._order]
        self._key_cache = tuple(self._vec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterState):
            return NotImplemented
        return self._capacity == other._capacity and self._free == other._free

    def __str__(self) -> str:  # pragma: no cover - repr helper
        by_type = self.free_by_type()
        parts = ", ".join(f"{t}:{c} free" for t, c in sorted(by_type.items()))
        return f"ClusterState({parts})"
