"""Gang-packing helpers shared by the baselines.

All baselines need to turn "give job j its ``W_j`` workers" into a
concrete :class:`~repro.cluster.allocation.Allocation` against the free
capacity.  Two flavours:

* :func:`pack_gang` — type-blind packing (YARN-CS, random): any free
  devices, preferring as few servers as possible (consolidation first),
  optionally restricted to device types the model supports;
* :func:`pack_gang_single_type` — Gavel's job-level constraint, which
  Tiresias shares: all ``W_j`` workers on *one* device type, again on as
  few servers as possible.

Both return ``None`` when the gang cannot be packed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.allocation import Allocation
from repro.cluster.state import ClusterState

__all__ = ["pack_gang", "pack_gang_single_type"]


def _take_from_nodes(
    state: ClusterState,
    workers: int,
    allowed_types: Sequence[str],
    type_preference: dict[str, int],
) -> Optional[Allocation]:
    """Fill a gang node-by-node, fullest (w.r.t. allowed types) node first."""
    allowed = set(allowed_types)
    per_node: dict[int, list[tuple[str, int]]] = {}
    for (node_id, type_name), free in state.free_slots():
        if type_name in allowed:
            per_node.setdefault(node_id, []).append((type_name, free))
    if sum(f for slots in per_node.values() for _, f in slots) < workers:
        return None

    # Fullest node first consolidates the gang onto the fewest servers.
    node_order = sorted(
        per_node.items(),
        key=lambda item: (-sum(f for _, f in item[1]), item[0]),
    )
    need = workers
    picks: list[tuple[int, str, int]] = []
    for node_id, slots in node_order:
        slots.sort(key=lambda s: (type_preference.get(s[0], 0), s[0]))
        for type_name, free in slots:
            take = min(free, need)
            if take > 0:
                picks.append((node_id, type_name, take))
                need -= take
            if need == 0:
                break
        if need == 0:
            break
    if need:
        return None
    return Allocation.from_pairs(picks)


def pack_gang(
    state: ClusterState,
    workers: int,
    allowed_types: Optional[Sequence[str]] = None,
    preferred_types: Optional[Sequence[str]] = None,
) -> Optional[Allocation]:
    """Pack ``workers`` devices from the free capacity, type-blind.

    ``allowed_types`` restricts the device types considered (defaults to
    every type present).  ``preferred_types`` orders types within a node
    (earlier = taken first); the default order is alphabetical, i.e.
    genuinely heterogeneity-unaware.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if allowed_types is None:
        allowed_types = sorted({t for (_, t) in state.slots})
    preference = {t: i for i, t in enumerate(preferred_types or [])}
    return _take_from_nodes(state, workers, allowed_types, preference)


def pack_gang_single_type(
    state: ClusterState,
    workers: int,
    type_name: str,
) -> Optional[Allocation]:
    """Pack ``workers`` devices of exactly one type (Gavel's constraint).

    Fullest slot first, ties by node id: the order :func:`pack_gang`'s
    node walk gives when one type is allowed, but over that type's slots
    only.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    slots = sorted(state.free_slots_of(type_name), key=lambda s: (-s[1], s[0]))
    need = workers
    picks: list[tuple[int, str, int]] = []
    for node_id, free in slots:
        take = min(free, need)
        picks.append((node_id, type_name, take))
        need -= take
        if need == 0:
            return Allocation.from_pairs(picks)
    return None
