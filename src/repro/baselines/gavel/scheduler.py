"""Gavel's round-based scheduling realization.

Gavel converts its optimal time-fraction matrix ``Y`` into per-round
decisions through a priority matrix: ``priority[j, r] = Y[j, r] /
rounds_received[j, r]`` — a job that has received fewer rounds on a type
than its optimal share owes has higher claim (a job that never ran on a
promised type has effectively infinite priority).  Each round, (job,
type) pairs are served in priority order, each admitted job receiving a
*homogeneous* gang of ``W_j`` type-``r`` devices — the job-level
constraint that Hadar's task-level allocation relaxes, and the reason
Gavel strands capacity when no single type has ``W_j`` devices free.

The allocation matrix is recomputed whenever the set of active jobs
changes (arrivals/completions), mirroring Gavel's "compute allocation on
job events" design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.baselines.gavel.policy import AllocationMatrix, max_min_allocation_matrix
from repro.baselines.gavel.solver import POLICIES
from repro.baselines.packing import pack_gang_single_type
from repro.cluster.allocation import Allocation
from repro.sim.interface import Scheduler, SchedulerContext

__all__ = ["GavelConfig", "GavelScheduler"]

_UNSERVED_BOOST = 1.0e9
"""Priority multiplier standing in for "infinite" when rounds_received = 0."""

_MEMO_SIZE = 256
"""Solved LP inputs a scheduler remembers; the least recently used goes.
A fault-injected 14-job run sees up to about 250 distinct inputs."""


@dataclass(frozen=True, slots=True)
class GavelConfig:
    """Gavel knobs.

    ``policy`` is the allocation LP's objective (``"max-min"`` or
    ``"max-sum"``); ``min_fraction`` ignores Y entries below this
    threshold when building priorities (LP noise floor).
    """

    policy: str = "max-min"
    min_fraction: float = 1e-6

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.min_fraction < 0:
            raise ValueError("min_fraction must be non-negative")


class GavelScheduler(Scheduler):
    """The paper's closest state-of-the-art baseline."""

    round_based = True
    reacts_to_events = False

    def __init__(self, config: Optional[GavelConfig] = None):
        self.config = config or GavelConfig()
        self._cached_matrix: Optional[AllocationMatrix] = None
        self._cached_key: Optional[tuple] = None
        self._memo: dict[tuple, AllocationMatrix] = {}
        """Solved matrices of this run, keyed like ``_cached_key``: under
        faults capacity flips back and forth between a few values.  Job
        ids name jobs only within one run, so :meth:`reset` clears it;
        snapshots leave it out, as a re-solve gives the same matrix."""
        self._solved_last_round = 0
        self.last_round_stats: dict[str, int] = {}
        """Per-round counters (LP solves vs matrix-cache reuses, priority
        entries, admissions) the engine aggregates into
        ``SimulationResult.hotpath_stats`` and the metrics registry."""

    @property
    def name(self) -> str:
        return "gavel"

    def reset(self) -> None:
        self._cached_matrix = None
        self._cached_key = None
        self._memo.clear()
        self._solved_last_round = 0
        self.last_round_stats = {}

    # ---------------------------------------------------- engine snapshots --
    def state_dict(self) -> dict:
        """The matrix cache (key + solved ``Y``), for engine snapshots.

        The solved matrix itself is captured — not just the key — so a
        restored run reuses the exact LP solution the uninterrupted run
        would have reused, independent of any solver-level variation.
        ``_solved_last_round``/``last_round_stats`` are per-round
        transients (overwritten before any cross-round read) and waived;
        so is the memo, which only saves re-solving.
        """
        cached = self._cached_matrix
        return {
            "cached_key": (
                None
                if self._cached_key is None
                else [list(self._cached_key[0]),
                      [[t, c] for t, c in self._cached_key[1]]]
            ),
            "cached_matrix": (
                None
                if cached is None
                else {
                    "job_ids": list(cached.job_ids),
                    "types": list(cached.types),
                    "values": [[float(v) for v in row] for row in cached.values],
                }
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        import numpy as np

        key = state["cached_key"]
        self._cached_key = (
            None
            if key is None
            else (
                tuple(int(j) for j in key[0]),
                tuple((str(t), int(c)) for t, c in key[1]),
            )
        )
        cached = state["cached_matrix"]
        if cached is None:
            self._cached_matrix = None
        else:
            self._cached_matrix = AllocationMatrix(
                job_ids=tuple(int(j) for j in cached["job_ids"]),
                types=tuple(str(t) for t in cached["types"]),
                values=np.asarray(cached["values"], dtype=float).reshape(
                    len(cached["job_ids"]), len(cached["types"])
                ),
            )

    @property
    def last_allocation_matrix(self) -> Optional[AllocationMatrix]:
        """The ``Y`` matrix behind the most recent decision (introspection
        surface for :class:`~repro.analysis.sanitizer.InvariantSanitizer`;
        ``None`` before the first scheduling round)."""
        return self._cached_matrix

    # ------------------------------------------------------------------ API --
    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        active = ctx.active
        if not active:
            self.last_round_stats = {}
            return {}
        self._solved_last_round = 0
        # One all-free state per round: the LP plans against its surviving
        # capacity, then the round's gangs are packed into it.
        state = ctx.fresh_state()
        allocation_matrix = self._allocation_matrix(ctx, state.capacity_by_type())

        # Priority matrix: optimal share per round actually received.
        entries: list[tuple[float, int, str]] = []
        for rt in active:
            for type_name in allocation_matrix.types:
                y = allocation_matrix.fraction(rt.job_id, type_name)
                if y <= self.config.min_fraction:
                    continue
                received = rt.rounds_by_type.get(type_name, 0)
                if received == 0:
                    priority = y * _UNSERVED_BOOST
                else:
                    priority = y / received
                entries.append((priority, rt.job_id, type_name))
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))

        runtimes = {rt.job_id: rt for rt in active}
        target: dict[int, Allocation] = {}
        for _, job_id, type_name in entries:
            if job_id in target:
                continue
            rt = runtimes[job_id]
            gang = pack_gang_single_type(state, rt.job.num_workers, type_name)
            if gang is None:
                continue
            state.allocate(gang)
            target[job_id] = gang
        self.last_round_stats = {
            "jobs_considered": len(active),
            "jobs_admitted": len(target),
            "matrix_solves": self._solved_last_round,
            "priority_entries": len(entries),
        }
        return target

    # ---------------------------------------------------------------- internal --
    def _allocation_matrix(
        self, ctx: SchedulerContext, capacity: dict[str, int]
    ) -> AllocationMatrix:
        active = ctx.active
        # The LP promises time fractions the round realization must be
        # able to deliver, so it plans against *surviving* capacity —
        # under fault injection the nominal inventory overstates what
        # exists (and the sanitizer's feasibility residual checks the
        # matrix against the surviving counts).  Without faults the two
        # are identical.  A job no type can currently host simply waits
        # this round instead of poisoning the LP.
        placeable = tuple(
            rt for rt in active
            if any(
                capacity.get(t, 0) >= rt.job.num_workers
                and ctx.matrix.rate(rt.job.model.name, t) > 0
                for t in ctx.cluster.gpu_types
            )
        )
        key = (
            tuple(sorted(rt.job_id for rt in placeable)),
            tuple(sorted(capacity.items())),
        )
        if key != self._cached_key or self._cached_matrix is None:
            # ``matrix_solves`` counts input changes, memo hits included,
            # so a restored run (empty memo) counts what the original did.
            self._solved_last_round += 1
            solved = self._memo.pop(key, None)
            if solved is None:
                solved = max_min_allocation_matrix(
                    jobs=placeable,
                    types=ctx.cluster.gpu_types,
                    capacity=capacity,
                    matrix=ctx.matrix,
                    policy=self.config.policy,
                )
                if len(self._memo) >= _MEMO_SIZE:
                    del self._memo[next(iter(self._memo))]
            self._memo[key] = solved
            self._cached_matrix = solved
            self._cached_key = key
        return self._cached_matrix
