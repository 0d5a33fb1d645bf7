"""Reject-and-repair guard between schedulers and the cluster state.

Every decision a scheduler returns passes through a
:class:`DecisionValidator` before the engine applies it.  In ``strict``
mode (the default, and the engine's historical behaviour) any malformed
entry raises :class:`~repro.sim.interface.SchedulerProtocolError` — a
buggy scheduler fails loudly.  In ``repair`` mode (selected automatically
when fault injection is attached) the offending entry is *dropped*
instead: the job is re-queued rather than corrupting cluster state, and a
typed :class:`DecisionRejected` outcome records what happened — so
Gavel/Tiresias survive failure rounds even if their plans momentarily
reference capacity a fault just removed.

The checks, in order per entry: known job id, not completed, arrived,
gang size 0 or exactly ``W_j`` (constraint 1e), then a joint fit of every
gang against a probe of *surviving* capacity (constraint 1d).  Capacity
misfits are classified against the nominal inventory: ``nonexistent_gpu``
(slot was never in the cluster), ``failed_gpu`` (slot capacity currently
reduced by a fault), ``occupied_gpu`` (free devices exhausted by earlier
entries of the same decision), or ``overcommit`` (more devices than the
slot ever had).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro.cluster.allocation import Allocation
from repro.sim.interface import SchedulerProtocolError, validate_gang
from repro.sim.progress import JobRuntime, JobState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.state import ClusterState

__all__ = ["DecisionRejected", "DecisionValidator", "REJECT_REASONS"]

REJECT_REASONS = (
    "unknown_job",      # job id absent from this run
    "completed_job",    # non-empty allocation for a finished job
    "not_arrived",      # allocation before the job's arrival event
    "bad_gang",         # worker count neither 0 nor W_j
    "nonexistent_gpu",  # placement on a slot the cluster never had
    "failed_gpu",       # placement exceeds surviving (fault-reduced) capacity
    "occupied_gpu",     # free devices exhausted by earlier gangs this round
    "overcommit",       # placement exceeds even nominal capacity
)


@dataclass(frozen=True, slots=True)
class DecisionRejected:
    """One rejected decision entry (typed outcome, never an exception)."""

    job_id: int
    reason: str
    detail: str
    repaired: bool
    """True when the entry was dropped and the job safely re-queued —
    repair mode always repairs; the field exists so consumers can assert
    "zero unrepaired rejections" uniformly."""

    def as_record(self) -> dict:
        return {
            "job_id": self.job_id,
            "reason": self.reason,
            "detail": self.detail,
            "repaired": self.repaired,
        }


class DecisionValidator:
    """Validates one decision map per round; strict or repair mode."""

    def __init__(self, mode: str = "strict"):
        if mode not in ("strict", "repair"):
            raise ValueError(f"mode must be 'strict' or 'repair', got {mode!r}")
        self.mode = mode
        self.rejections: list[DecisionRejected] = []
        """Every rejection over the run (repair mode only)."""
        self.last_rejections: list[DecisionRejected] = []
        """Rejections of the most recent :meth:`check` call."""

    @property
    def unrepaired(self) -> list[DecisionRejected]:
        return [r for r in self.rejections if not r.repaired]

    def check(
        self,
        target: Mapping[int, Allocation],
        runtimes: Mapping[int, JobRuntime],
        probe: "ClusterState",
        nominal: Optional[Mapping[tuple[int, str], int]] = None,
    ) -> dict[int, Allocation]:
        """Validate ``target`` and return the (possibly repaired) decision.

        ``probe`` must be a fresh state at *surviving* capacity; it is
        consumed (gangs are allocated into it for the joint check).
        ``nominal`` maps slots to as-built capacity, used only to
        classify capacity misfits in repair mode.
        """
        self.last_rejections = []
        entries: dict[int, Allocation] = {}
        for job_id, alloc in target.items():
            rt = runtimes.get(job_id)
            if rt is None:
                self._reject(job_id, "unknown_job",
                             f"unknown job id {job_id} in decision")
                continue
            if rt.state is JobState.COMPLETE and alloc:
                self._reject(job_id, "completed_job",
                             f"scheduler allocated completed job {job_id}")
                continue
            if rt.state is JobState.PENDING and alloc:
                self._reject(
                    job_id, "not_arrived",
                    f"scheduler allocated job {job_id} before its arrival",
                )
                continue
            try:
                validate_gang(rt.job, alloc)
            except ValueError as exc:
                self._reject(job_id, "bad_gang", str(exc))
                continue
            entries[job_id] = alloc
        # Joint capacity check against surviving capacity, decision order.
        repaired: dict[int, Allocation] = {}
        for job_id, alloc in entries.items():
            if not alloc:
                repaired[job_id] = alloc
                continue
            try:
                probe.allocate(alloc)  # raises before claiming any device
            except ValueError:
                self._reject(
                    job_id,
                    self._capacity_reason(alloc, probe, nominal),
                    f"decision overcommits capacity at job {job_id}: {alloc}",
                )
                continue
            repaired[job_id] = alloc
        return repaired

    # ------------------------------------------------------------ internals --
    def _reject(self, job_id: int, reason: str, detail: str) -> None:
        if self.mode == "strict":
            raise SchedulerProtocolError(detail)
        rejection = DecisionRejected(
            job_id=job_id, reason=reason, detail=detail, repaired=True
        )
        self.last_rejections.append(rejection)
        self.rejections.append(rejection)

    @staticmethod
    def _capacity_reason(
        alloc: Allocation,
        probe: "ClusterState",
        nominal: Optional[Mapping[tuple[int, str], int]],
    ) -> str:
        for slot, count in sorted(alloc.placements.items()):
            node_id, type_name = slot
            cap = probe.capacity(node_id, type_name)
            if count > cap:
                if nominal is None:
                    return "failed_gpu"
                built = nominal.get(slot, 0)
                if built == 0:
                    return "nonexistent_gpu"
                if count > built:
                    return "overcommit"
                return "failed_gpu"
        for slot, count in sorted(alloc.placements.items()):
            if count > probe.free(*slot):
                return "occupied_gpu"
        return "overcommit"  # pragma: no cover - allocate refused some other way
