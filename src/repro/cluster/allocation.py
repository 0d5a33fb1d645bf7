"""Task-level placements.

An :class:`Allocation` records, for one job's gang, how many GPUs of each
type on each node the job occupies: a mapping ``(node_id, gpu_type) ->
count``.  This is the object the Hadar/Gavel/Tiresias/YARN schedulers hand
back to the simulation engine and the unit the engine diffs to detect
preemptions.

Hadar's distinguishing capability is exactly that one allocation may span
*multiple GPU types* (task-level heterogeneity); Gavel-style allocations
always use a single type per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = ["Allocation", "EMPTY_ALLOCATION"]


@dataclass(frozen=True)
class Allocation:
    """Immutable placement of one job's workers.

    Parameters
    ----------
    placements:
        Mapping ``(node_id, gpu_type_name) -> worker count``.  Zero-count
        entries are dropped at construction.
    """

    placements: Mapping[tuple[int, str], int]

    def __post_init__(self) -> None:
        cleaned: dict[tuple[int, str], int] = {}
        for (node_id, type_name), count in self.placements.items():
            if count < 0:
                raise ValueError(
                    f"negative worker count {count} for ({node_id}, {type_name})"
                )
            if count:
                cleaned[(int(node_id), str(type_name))] = int(count)
        object.__setattr__(self, "placements", cleaned)
        # Canonical tuple used for hashing / equality / memoization keys.
        object.__setattr__(
            self, "_key", tuple(sorted(cleaned.items()))
        )

    # -- identity ------------------------------------------------------
    def __hash__(self) -> int:
        return hash(self._key)  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._key == other._key  # type: ignore[attr-defined]

    def __bool__(self) -> bool:
        return bool(self.placements)

    def __iter__(self) -> Iterator[tuple[tuple[int, str], int]]:
        """The placements in sorted order (the canonical key, built once)."""
        return iter(self._key)  # type: ignore[attr-defined]

    # -- views ---------------------------------------------------------
    @property
    def total_workers(self) -> int:
        """Total number of GPUs (== gang size when non-empty)."""
        return sum(self.placements.values())

    @property
    def gpu_types(self) -> frozenset[str]:
        """The set of GPU types this gang touches."""
        return frozenset(t for (_, t) in self.placements)

    @property
    def node_ids(self) -> frozenset[int]:
        """The set of servers this gang touches."""
        return frozenset(n for (n, _) in self.placements)

    @property
    def is_consolidated(self) -> bool:
        """True when all workers sit on a single server (or empty)."""
        return len(self.node_ids) <= 1

    @property
    def is_homogeneous(self) -> bool:
        """True when all workers use one GPU type (or empty).

        Gavel-style (job-level) allocations are always homogeneous;
        Hadar may return heterogeneous ones.
        """
        return len(self.gpu_types) <= 1

    def count_by_type(self) -> dict[str, int]:
        """Workers aggregated per GPU type."""
        out: dict[str, int] = {}
        for (_, type_name), count in self.placements.items():
            out[type_name] = out.get(type_name, 0) + count
        return out

    def count_on_node(self, node_id: int) -> int:
        """Workers placed on a given server."""
        return sum(c for (n, _), c in self.placements.items() if n == node_id)

    # -- algebra ---------------------------------------------------------
    def merged_with(self, other: "Allocation") -> "Allocation":
        """Union of two placements (counts add)."""
        merged = dict(self.placements)
        for key, count in other.placements.items():
            merged[key] = merged.get(key, 0) + count
        return Allocation(merged)

    @staticmethod
    def single(node_id: int, type_name: str, count: int) -> "Allocation":
        """Convenience constructor for a one-entry placement."""
        return Allocation({(node_id, type_name): count})

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, str, int]]) -> "Allocation":
        """Build from ``(node_id, type_name, count)`` triples (counts add)."""
        placements: dict[tuple[int, str], int] = {}
        for node_id, type_name, count in pairs:
            key = (node_id, type_name)
            placements[key] = placements.get(key, 0) + count
        return Allocation(placements)

    def __str__(self) -> str:  # pragma: no cover - repr helper
        if not self.placements:
            return "Allocation(<empty>)"
        parts = ", ".join(
            f"node{n}:{c}×{t}" for (n, t), c in sorted(self.placements.items())
        )
        return f"Allocation({parts})"


EMPTY_ALLOCATION = Allocation({})
"""The canonical "job holds no GPUs" placement."""
