"""The scheduler-facing simulation API.

Every scheduler (Hadar and the baselines) implements :class:`Scheduler`:
given a :class:`SchedulerContext` snapshot, return the *target* allocation
map ``{job_id: Allocation}`` for the jobs that should hold GPUs next.  The
engine diffs the target against reality, applying preemption overheads to
every changed job.  Jobs absent from the map hold nothing.

:func:`realized_rate` centralizes the paper's progress model (constraints
1a-1b): a gang's iteration rate is the *bottleneck* per-worker rate across
the GPU types it touches, times the gang size, times the communication
penalty for non-consolidated placements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.sim.progress import JobRuntime
from repro.workload.job import Job
from repro.workload.throughput import ThroughputMatrix

__all__ = [
    "SchedulerContext",
    "Scheduler",
    "SchedulerProtocolError",
    "realized_rate",
    "unwrap",
    "validate_gang",
]


class SchedulerProtocolError(RuntimeError):
    """A scheduler returned an invalid decision (gang/capacity violation)."""


def realized_rate(
    job: Job,
    allocation: Allocation,
    matrix: ThroughputMatrix,
    cluster: Cluster,
) -> float:
    """Iterations/second of a full gang under the paper's progress model.

    ``x_j(t) = min_r { X_j^r : gang uses type r }`` (the parameter-sync
    barrier, constraint 1b), total rate ``x_j(t) × W_j`` (constraint 1a),
    scaled by the ring-allreduce penalty when the gang spans servers.
    """
    if not allocation:
        return 0.0
    model = job.model.name
    rates = [matrix.rate(model, t) for t in sorted(allocation.gpu_types)]
    if min(rates) <= 0.0:
        bad = [t for t in sorted(allocation.gpu_types) if matrix.rate(model, t) <= 0.0]
        raise ValueError(f"model {model!r} cannot run on GPU type(s) {bad}")
    bottleneck = min(rates)
    penalty = cluster.comm.throughput_penalty(
        allocation, job.model.model_bytes, 1.0 / bottleneck
    )
    return bottleneck * allocation.total_workers * penalty


def unwrap(scheduler: Any, attr: str) -> Any:
    """The first scheduler in the ``inner`` chain of wrappers exposing ``attr``.

    Wrappers (:class:`~repro.core.estimator.ProfilingScheduler`,
    :class:`~repro.sim.replay.RecordingScheduler`) hold the scheduler they
    wrap as ``inner``.  Every observer reads a scheduler's per-round
    surface (``last_round_stats``, ``decision_record``, Hadar's prices,
    Gavel's matrix) through this one lookup, so a wrapped scheduler is
    observed exactly as a bare one.  ``None`` when nothing in the chain
    has ``attr``.
    """
    inner = scheduler
    while inner is not None and not hasattr(inner, attr):
        inner = getattr(inner, "inner", None)
    return inner


def validate_gang(job: Job, allocation: Allocation) -> None:
    """Enforce the all-or-nothing constraint (1e): 0 or exactly ``W_j`` workers."""
    n = allocation.total_workers
    if n not in (0, job.num_workers):
        raise ValueError(
            f"job {job.job_id} requires 0 or {job.num_workers} workers, "
            f"allocation has {n}"
        )


@dataclass(frozen=True)
class SchedulerContext:
    """Everything a scheduler may look at when making a decision.

    Runtimes are handed out directly (not copies) so schedulers can read
    progress/served-time statistics; schedulers must treat them as
    read-only and communicate decisions exclusively through the returned
    allocation map.
    """

    now: float
    cluster: Cluster
    matrix: ThroughputMatrix
    round_length: float
    waiting: Sequence[JobRuntime]
    running: Sequence[JobRuntime]
    failed: Mapping[tuple[int, str], int] = field(default_factory=dict)
    """Devices currently lost to injected faults, per ``(node, type)`` slot
    (empty unless a :class:`~repro.faults.FaultModel` is attached).  The
    state builders below subtract these, so every scheduler that plans on
    :meth:`fresh_state` / :meth:`occupied_state` sees surviving capacity —
    and Eq. 5 prices, which read capacity off the state, rise with it."""
    unreachable: frozenset[int] = frozenset()
    """Nodes isolated by an active network partition.  Their devices did
    not fail, but no new gang can reach them: :meth:`fresh_state` hides
    their capacity (minus what running gangs already hold there, so the
    keep-current candidate of a fully-inside gang still fits), and Eq. 5
    prices rise exactly as under physical capacity loss."""

    @cached_property
    def active(self) -> tuple[JobRuntime, ...]:
        """All schedulable jobs, queued and running interleaved, in arrival
        order (ties by job id).  Built once per context."""
        combined = list(self.waiting) + list(self.running)
        combined.sort(key=lambda rt: (rt.job.arrival_time, rt.job_id))
        return tuple(combined)

    def fresh_state(self) -> ClusterState:
        """An all-free state: schedulers that re-plan from scratch start here.

        "All-free" means *surviving* capacity: devices currently failed
        (see :attr:`failed`) are subtracted before the scheduler plans.
        Capacity on :attr:`unreachable` (partitioned) nodes is hidden
        too, except devices held by running gangs — so keeping an
        in-partition gang in place stays feasible, while nothing new can
        be planned onto the far side of the cut.  (Accepted edge: a
        scheduler can hand those held devices to a *different* job only
        by simultaneously evicting the holder; otherwise the joint
        capacity check rejects the decision.)
        """
        state = self.cluster.fresh_state()
        if self.failed:
            for (node_id, type_name), count in sorted(self.failed.items()):
                state.fail(node_id, type_name, count)
        if self.unreachable:
            held: dict[tuple[int, str], int] = {}
            for rt in self.running:
                if rt.allocation:
                    for slot, count in rt.allocation.placements.items():
                        if slot[0] in self.unreachable:
                            held[slot] = held.get(slot, 0) + count
            for slot in sorted(state.slots):
                if slot[0] not in self.unreachable:
                    continue
                hide = state.capacity(*slot) - held.get(slot, 0)
                if hide > 0:
                    state.fail(slot[0], slot[1], hide)
        return state

    def occupied_state(self) -> ClusterState:
        """State with the *running* jobs' current allocations claimed."""
        state = self.fresh_state()
        for rt in self.running:
            if rt.allocation:
                state.allocate(rt.allocation)
        return state

    def runtime(self, job_id: int) -> JobRuntime:
        for rt in self.active:
            if rt.job_id == job_id:
                return rt
        raise KeyError(f"no active job {job_id}")


class Scheduler(ABC):
    """Base class for all cluster schedulers.

    Class attributes declare *when* the engine consults the scheduler:

    * ``round_based`` — invoked at every round boundary (Hadar, Gavel,
      Tiresias);
    * ``reacts_to_events`` — additionally invoked on every job arrival and
      completion (YARN-CS, which admits work the moment capacity frees).
    """

    round_based: bool = True
    reacts_to_events: bool = False

    @property
    @abstractmethod
    def name(self) -> str:
        """Short display name used in reports (``"hadar"``, ``"gavel"``...)."""

    @abstractmethod
    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        """Return the target allocation for every job that should run.

        The returned map must satisfy, for each entry, the gang constraint
        (exactly ``W_j`` workers) and jointly fit cluster capacity; the
        engine verifies both and raises on violations.
        """

    def reset(self) -> None:
        """Clear any cross-round internal state (called once per simulation)."""

    def state_dict(self) -> dict:
        """Cross-round internal state for engine snapshots (JSON-able).

        Stateless schedulers inherit this empty default.  Schedulers with
        cross-round memory (Hadar's price calibrator, Gavel's cached
        matrix, Tiresias's demoted set, seeded randomness) override both
        this and :meth:`load_state_dict` so a restored engine continues
        bit-identically; see :mod:`repro.sim.snapshot`.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        Called on a freshly :meth:`reset` scheduler during engine restore.
        """
