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
(and caches) the maintained vector.

A key is a :class:`StateKey`: the free vector's tuple with its own
hash, so a memo probe costs ``O(1)`` however large the cluster is, and
equality still compares the whole vector, on a hit only.  The hash is
``Σ free[i] · R[i] mod 2**61 − 1`` with fixed per-slot weights ``R``:
it depends on the vector alone, so one vector reached along two branch
orders hits one memo entry.  A state records the positions its
mutations touched since its last key, so a new key's hash costs those
positions and not the cluster (mutations outnumber keys: the engine and
the validator apply every gang without keying the state, so the sum is
updated per key, not per mutation).  The key names its *base* — the key
it was derived from — and those positions, which lets the round's slot
book follow a commit by re-filing them only (see
``docs/performance.md``, "State identity at per-gang cost").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.allocation import Allocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

__all__ = ["ClusterState", "StateKey"]

_MODULUS = (1 << 61) - 1
"""A Mersenne prime: the key hash lives in ``[0, 2**61 - 1)``, which is
also the range CPython hashes an ``int`` into."""

_WEIGHTS: list[int] = []


def _slot_weights(n: int) -> tuple[int, ...]:
    """The fixed hash weights of the first ``n`` slot positions.

    A splitmix64 stream from a constant seed, reduced mod ``2**61 - 1``:
    the same for every state and every process, so equal vectors hash
    equally wherever they were built.
    """
    while len(_WEIGHTS) < n:
        z = (len(_WEIGHTS) + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        _WEIGHTS.append((z ^ (z >> 31)) % _MODULUS)
    return tuple(_WEIGHTS[:n])


class StateKey:
    """A free vector in canonical slot order that carries its hash.

    ``vec`` is the tuple of free counts and ``h`` the state's weighted
    sum, so a memo probe reads one int however large the cluster is, and
    equality compares ``vec`` — on a hash hit only.  A key equals other
    keys only, never a plain tuple (whose hash differs).

    ``base`` is the key this one was derived from, or ``None``, and
    ``moved`` holds (as a dict's keys) the positions where the two may
    differ.  They are a hint that only the slot book reads; a key clears
    its base's ``base`` when it is derived, so a walk never chains its
    keys together.  A slotted object rather than a tuple subclass, so a
    key costs one plain tuple copy and no attribute dict.
    """

    __slots__ = ("vec", "h", "base", "moved")

    def __hash__(self) -> int:
        return self.h

    def __eq__(self, other: object) -> bool:
        if type(other) is not StateKey:
            return NotImplemented
        return self.vec == other.vec

    def __repr__(self) -> str:
        return f"StateKey{self.vec!r}"

    @classmethod
    def of(
        cls, counts: Iterable[int], weights: Optional[tuple[int, ...]] = None
    ) -> "StateKey":
        """The key of ``counts``, hashed afresh, with no base."""
        key = _new(cls)
        vec = key.vec = tuple(counts)
        if weights is None:
            weights = _slot_weights(len(vec))
        key.h = sum(map(int.__mul__, vec, weights)) % _MODULUS
        key.base = key.moved = None
        return key


_new = object.__new__


class ClusterState:
    """Free GPU counts per ``(node_id, gpu_type)`` slot.

    The slot list is fixed at construction (from the cluster's inventory);
    only the free counts change.  All mutation goes through
    :meth:`allocate` / :meth:`release`, which enforce capacity invariants.
    """

    __slots__ = (
        "_capacity", "_free", "_order", "_index", "_by_type", "_vec", "_key_cache",
        "_weights", "_base", "_touched",
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
        self._weights = _slot_weights(len(self._order))
        # The last key handed out (or None after a mutation), the key the
        # next one derives from, and the positions touched since it.
        key = StateKey.of(self._vec, self._weights)
        self._key_cache: Optional[StateKey] = key
        self._base: StateKey = key
        self._touched: dict[int, None] = {}

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
            i = self._index[slot]
            self._vec[i] -= count
            self._touched[i] = None
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
            i = self._index[slot]
            self._vec[i] += count
            self._touched[i] = None
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
        i = self._index[slot]
        self._vec[i] -= count
        self._touched[i] = None
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
        i = self._index[slot]
        self._vec[i] += count
        self._touched[i] = None
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
        clone._weights = self._weights
        clone._base = self._base
        clone._touched = dict(self._touched)
        return clone

    def key(self) -> StateKey:
        """Canonical hashable snapshot of free counts (for memoization).

        Cached until the next mutation.  A new key's hash is its base's
        plus the weighted change at the touched positions, and the key
        names that base and those positions (see :class:`StateKey`).
        """
        key = self._key_cache
        if key is None:
            base, vec, weights = self._base, self._vec, self._weights
            was, moved = base.vec, self._touched
            h = base.h
            for i in moved:
                h += (vec[i] - was[i]) * weights[i]
            key = _new(StateKey)
            key.vec = tuple(vec)
            key.h = h % _MODULUS
            key.base, key.moved = base, moved
            base.base = None
            self._key_cache = self._base = key
            self._touched = {}
        return key

    # -- engine snapshot support ----------------------------------------------
    def snapshot_token(self) -> tuple[dict, tuple[int, ...]]:
        """``(capacity map, free vector)``: what :meth:`state_dict` is
        built from.  The capacity map is rebound, never changed in place,
        whenever capacity moves, so two tokens with the same map object
        and equal free vectors have equal :meth:`state_dict` values."""
        return self._capacity, tuple(self._vec)

    def state_dict(self) -> dict:
        """Capacity and free counts per slot, in dict insertion order.

        Capacity is part of the state (not just the free counts): fault
        injection shrinks it copy-on-write via :meth:`fail`, so a restored
        state must reproduce the surviving inventory, not the as-built one.
        The list preserves ``_capacity``'s insertion order because
        ``free_by_type``/``used_by_type`` walk the dicts and downstream
        consumers serialize their output order.  The derived members
        (``_vec`` and the key with its hash) rebuild from the two dicts.
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
        self._key_cache = self._base = StateKey.of(self._vec, self._weights)
        self._touched = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterState):
            return NotImplemented
        return self._capacity == other._capacity and self._free == other._free

    def __str__(self) -> str:  # pragma: no cover - repr helper
        by_type = self.free_by_type()
        parts = ", ".join(f"{t}:{c} free" for t, c in sorted(by_type.items()))
        return f"ClusterState({parts})"
