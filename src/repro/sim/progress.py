"""Per-job runtime state and the progress ledger.

A :class:`JobRuntime` wraps an immutable :class:`~repro.workload.job.Job`
with everything that changes during simulation: iterations completed, the
current allocation and its realized rate, pause windows for checkpoint
overhead, and the bookkeeping metrics consume afterwards (queuing delay,
preemption count, attained service).

The :class:`ProgressLedger` is layer 2 of the engine pipeline (see
:mod:`repro.sim.engine`): it owns the **live set** of queued and running
jobs, integrates their continuous-rate progress up to each event time,
finalizes completions, and tracks the **dirty set** — the jobs whose
rate, pause window, or allocation changed since the last flush and
therefore need a fresh completion prediction.  Jobs untouched by a round keep their outstanding predicted
completion instead of being broadly re-predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.cluster.allocation import EMPTY_ALLOCATION, Allocation
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.state import ClusterState
    from repro.sim.kernel import EventKernel

__all__ = ["JobState", "JobRuntime", "ProgressLedger"]

_COMPLETION_EPS = 1e-6
"""Iterations within this of the target count as done (float-integration slack)."""


class JobState(Enum):
    """Lifecycle of a job inside the simulator."""

    PENDING = "pending"  # not yet arrived
    QUEUED = "queued"  # arrived, waiting for an allocation
    RUNNING = "running"  # holds its full gang
    COMPLETE = "complete"


@dataclass
class JobRuntime:
    """Mutable simulation state of one job."""

    job: Job
    state: JobState = JobState.PENDING
    iterations_done: float = 0.0
    allocation: Allocation = EMPTY_ALLOCATION
    rate: float = 0.0
    """Realized iterations/second of the whole gang (bottleneck × W × comm
    penalty × current slowdown)."""
    slowdown: float = 1.0
    """Straggler degradation of the *current* gang (1.0 = healthy); moving
    the job resets it (fresh workers)."""
    straggler_events: int = 0
    """Straggler onsets this job has suffered (failure-injection metric)."""
    checkpoint_iterations: float = 0.0
    """Iterations captured by the last checkpoint save.  Saves happen at
    placement and at every round boundary the job survives (the periodic
    save whose cost is ``CheckpointModel.steady_state_overhead``); a
    device failure rolls ``iterations_done`` back to this value."""
    failures: int = 0
    """Device/node failures that hit this job's gang (fault injection)."""
    rollbacks: int = 0
    """Crash-restart rollbacks to the last checkpoint this job suffered."""
    rollback_seconds: float = 0.0
    """Simulated work-seconds lost to rollbacks (progress since the last
    checkpoint save, re-done after each crash restart)."""
    rollback_iterations: float = 0.0
    """Iterations discarded across all rollbacks."""
    resume_time: float = 0.0
    """Time until which the job is paused for checkpoint/restart overhead."""
    last_integrated: float = 0.0
    """Timestamp up to which ``iterations_done`` is accurate."""
    generation: int = 0
    """Bumped on every rate change; validates completion predictions."""
    alloc_epoch: int = 0
    """Bumped only on allocation *changes*; validates straggler events."""
    first_start_time: Optional[float] = None
    finish_time: Optional[float] = None
    preemptions: int = 0
    allocation_changes: int = 0
    overhead_seconds: float = 0.0
    """Total seconds spent paused on checkpoint save/load/warmup."""
    attained_service: float = 0.0
    """GPU-seconds of service received so far (Tiresias' LAS statistic)."""
    waiting_seconds: float = 0.0
    """Total time spent queued (arrived, holding no allocation)."""
    rounds_scheduled: int = 0
    rounds_by_type: dict[str, int] = field(default_factory=dict)
    """Rounds in which the gang's *bottleneck* type was each type (Gavel priority)."""
    history: list[tuple[float, "Allocation"]] = field(default_factory=list)
    """(time, allocation) at every placement change, in order; the empty
    allocation marks preemptions and completion.  Feeds the timeline views."""

    def record_placement(self, time: float, allocation: Allocation) -> None:
        """Append a placement change (deduplicating repeats)."""
        if self.history and self.history[-1][1] == allocation:
            return
        self.history.append((time, allocation))

    # -- work accounting -----------------------------------------------------
    @property
    def job_id(self) -> int:
        return self.job.job_id

    @property
    def remaining_iterations(self) -> float:
        return max(0.0, self.job.total_iterations - self.iterations_done)

    @property
    def is_done(self) -> bool:
        return self.remaining_iterations <= _COMPLETION_EPS

    @property
    def is_running(self) -> bool:
        return self.state is JobState.RUNNING

    # -- prediction -------------------------------------------------------------
    def predicted_completion(self, now: float) -> Optional[float]:
        """When the job will finish at the current rate (None if stalled)."""
        if self.state is not JobState.RUNNING or self.rate <= 0.0:
            return None
        start = max(now, self.resume_time)
        return start + self.remaining_iterations / self.rate

    # -- metric views ------------------------------------------------------------
    @property
    def completion_time(self) -> Optional[float]:
        """JCT ``f_j − a_j`` once finished, else None."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.job.arrival_time

    @property
    def queuing_delay(self) -> Optional[float]:
        """Time from arrival to first allocation, else None if never started."""
        if self.first_start_time is None:
            return None
        return self.first_start_time - self.job.arrival_time

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return (
            f"JobRuntime(job={self.job_id}, {self.state.value}, "
            f"{self.iterations_done:.0f}/{self.job.total_iterations} iters)"
        )

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """Every mutable field plus the immutable job spec, JSON-able.

        Floats are stored as plain JSON numbers: CPython's ``repr``/parse
        round-trip is exact for finite doubles, which is all the engine
        ever produces here.
        """
        record = self.mutable_state_dict()
        record["job"] = self.job.to_record()
        record["history"] = self.history_record()
        return record

    def history_record(self, start: int = 0) -> list:
        """:attr:`history` from entry ``start`` on, as JSON-able
        ``[time, placements]`` pairs."""
        return [[t, _alloc_to_record(alloc)] for t, alloc in self.history[start:]]

    def mutable_state_dict(self) -> dict:
        """:meth:`state_dict` without ``job`` and ``history``: the part
        that can change at every event (the snapshot cache keeps the job
        spec, which never changes, and the append-only history).  Keys
        are in sorted order, which the canonical encoder sorts fastest."""
        return {
            "alloc_epoch": self.alloc_epoch,
            "allocation": _alloc_to_record(self.allocation),
            "allocation_changes": self.allocation_changes,
            "attained_service": self.attained_service,
            "checkpoint_iterations": self.checkpoint_iterations,
            "failures": self.failures,
            "finish_time": self.finish_time,
            "first_start_time": self.first_start_time,
            "generation": self.generation,
            "iterations_done": self.iterations_done,
            "last_integrated": self.last_integrated,
            "overhead_seconds": self.overhead_seconds,
            "preemptions": self.preemptions,
            "rate": self.rate,
            "resume_time": self.resume_time,
            "rollback_iterations": self.rollback_iterations,
            "rollback_seconds": self.rollback_seconds,
            "rollbacks": self.rollbacks,
            "rounds_by_type": dict(self.rounds_by_type),
            "rounds_scheduled": self.rounds_scheduled,
            "slowdown": self.slowdown,
            "state": self.state.value,
            "straggler_events": self.straggler_events,
            "waiting_seconds": self.waiting_seconds,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "JobRuntime":
        rt = cls(job=Job.from_record(state["job"]))
        rt.state = JobState(state["state"])
        rt.iterations_done = float(state["iterations_done"])
        rt.allocation = _alloc_from_record(state["allocation"])
        rt.rate = float(state["rate"])
        rt.slowdown = float(state["slowdown"])
        rt.straggler_events = int(state["straggler_events"])
        rt.checkpoint_iterations = float(state["checkpoint_iterations"])
        rt.failures = int(state["failures"])
        rt.rollbacks = int(state["rollbacks"])
        rt.rollback_seconds = float(state["rollback_seconds"])
        rt.rollback_iterations = float(state["rollback_iterations"])
        rt.resume_time = float(state["resume_time"])
        rt.last_integrated = float(state["last_integrated"])
        rt.generation = int(state["generation"])
        rt.alloc_epoch = int(state["alloc_epoch"])
        first = state["first_start_time"]
        rt.first_start_time = None if first is None else float(first)
        finish = state["finish_time"]
        rt.finish_time = None if finish is None else float(finish)
        rt.preemptions = int(state["preemptions"])
        rt.allocation_changes = int(state["allocation_changes"])
        rt.overhead_seconds = float(state["overhead_seconds"])
        rt.attained_service = float(state["attained_service"])
        rt.waiting_seconds = float(state["waiting_seconds"])
        rt.rounds_scheduled = int(state["rounds_scheduled"])
        rt.rounds_by_type = {
            str(t): int(c) for t, c in state["rounds_by_type"].items()
        }
        rt.history = [
            (float(t), _alloc_from_record(rec)) for t, rec in state["history"]
        ]
        return rt


def _alloc_to_record(alloc: Allocation) -> list[list]:
    """An allocation as a sorted, JSON-able placement list."""
    return [[node_id, type_name, count] for (node_id, type_name), count in alloc]


def _alloc_from_record(record: list) -> Allocation:
    if not record:
        return EMPTY_ALLOCATION
    return Allocation(
        {(int(n), str(t)): int(c) for n, t, c in record}
    )


class ProgressLedger:
    """The live set, progress integration and dirty-set re-prediction (layer 2).

    The ledger owns the analytic side of the continuous-rate model: at
    every event it advances each live job exactly to the event time, and
    it converts "this job's rate/pause/allocation just changed" into a
    fresh completion prediction.  The **dirty set** is insertion-ordered,
    and :meth:`flush_repredictions` pushes in that order — completions at
    equal ``(time, kind)`` tie-break on push sequence, so preserving the
    marking order preserves the engine's deterministic event ordering.

    :attr:`live` holds the QUEUED and RUNNING runtimes in the runtimes
    table's order, so every per-event walk skips pending and finished
    jobs.  Only two transitions change it: :meth:`admit` adds a job and
    :meth:`finalize_completions` retires one; QUEUED↔RUNNING moves
    (placement, preemption, fault rollback) keep the job in place.
    :attr:`queued` counts the QUEUED members; :meth:`admit` and
    :meth:`move` (the one way between QUEUED and RUNNING) keep it, so the
    per-event queue-depth sample reads it instead of walking the set.
    """

    __slots__ = ("runtimes", "live", "queued", "_seeded", "_dirty")

    def __init__(self, runtimes: dict[int, JobRuntime]):
        self.runtimes = runtimes
        self._seeded = len(runtimes)
        """Size of the table at construction: the trace's jobs.  Entries
        past it are streamed jobs :meth:`admit` appended."""
        self._dirty: dict[int, JobRuntime] = {}
        self._rebuild_live()

    def _rebuild_live(self) -> None:
        self.live: dict[int, JobRuntime] = {
            job_id: rt
            for job_id, rt in self.runtimes.items()
            if rt.state in (JobState.QUEUED, JobState.RUNNING)
        }
        self.queued = sum(1 for rt in self.live.values() if rt.state is JobState.QUEUED)

    def admit(self, rt: JobRuntime, now: float) -> None:
        """Enter an arrived job into the system: queued, waiting from ``now``.

        A streamed job not yet in the table joins its end.  Trace jobs
        are admitted in table order, so appending keeps :attr:`live` in
        table order — unless a streamed job, which the table keeps after
        every trace job, was admitted first; then the set is re-derived.
        """
        rt.state = JobState.QUEUED
        rt.last_integrated = now
        if rt.job_id not in self.runtimes:
            self.runtimes[rt.job_id] = rt
        elif len(self.runtimes) > self._seeded:
            self._rebuild_live()
            return
        self.live[rt.job_id] = rt
        self.queued += 1

    def move(self, rt: JobRuntime, state: JobState) -> None:
        """Move a live job to QUEUED or RUNNING, keeping :attr:`queued`."""
        self.queued += (state is JobState.QUEUED) - (rt.state is JobState.QUEUED)
        rt.state = state

    # -- integration ----------------------------------------------------------
    def integrate_to(self, now: float) -> None:
        """Advance every live job's progress exactly to ``now``.

        The one home of the integration rule.  A RUNNING job with a
        positive rate gains ``rate × active`` iterations, capped at its
        total, and ``active × W`` GPU-seconds of attained service, where
        ``active`` is the part of ``(last_integrated, now]`` after its
        pause window (``resume_time``); a QUEUED job accrues waiting time.
        Each conditional keeps the operand Python's ``max``/``min`` would
        return (the first unless the second is strictly larger or
        smaller), so the floats equal the ``max``/``min`` formulation bit
        for bit; ``tests/sim/test_progress.py`` keeps that formulation as
        the reference.  W is ``job.num_workers``: ``validate_gang`` admits
        only full gangs, so it equals the allocation's worker count for
        every RUNNING job.
        """
        running, queued = JobState.RUNNING, JobState.QUEUED
        for rt in self.live.values():
            last = rt.last_integrated
            if now < last - 1e-9:
                raise ValueError(
                    f"time went backwards for job {rt.job.job_id}: {now} < {last}"
                )
            state = rt.state
            if state is running:
                rate = rt.rate
                if rate > 0.0:
                    resume = rt.resume_time
                    active = now - (resume if resume > last else last)
                    active = active if active > 0.0 else 0.0
                    job = rt.job
                    total = float(job.total_iterations)
                    done = rt.iterations_done + rate * active
                    rt.iterations_done = done if done < total else total
                    rt.attained_service += active * job.num_workers
            elif state is queued:
                waited = now - last
                rt.waiting_seconds += waited if waited > 0.0 else 0.0
            if now > last:
                rt.last_integrated = now

    def finalize_completions(self, state: "ClusterState", now: float) -> int:
        """Mark done jobs complete, free their devices; returns the count.

        Done is :attr:`JobRuntime.is_done` written out: at most
        ``_COMPLETION_EPS`` iterations left.
        """
        running = JobState.RUNNING
        done = [
            rt
            for rt in self.live.values()
            if rt.state is running
            and rt.job.total_iterations - rt.iterations_done <= _COMPLETION_EPS
        ]
        for rt in done:
            del self.live[rt.job_id]
            rt.state = JobState.COMPLETE
            rt.finish_time = now
            rt.rate = 0.0
            rt.generation += 1
            if rt.allocation:
                state.release(rt.allocation)
                rt.allocation = EMPTY_ALLOCATION
            rt.record_placement(now, EMPTY_ALLOCATION)
        return len(done)

    # -- dirty set ------------------------------------------------------------
    def mark_dirty(self, rt: JobRuntime) -> None:
        """Note that ``rt``'s completion prediction is invalid.

        Callers bump ``rt.generation`` themselves (that is what lazily
        deletes the outstanding prediction); the mark only queues the
        *new* prediction for the next flush.
        """
        self._dirty[rt.job_id] = rt

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def flush_repredictions(self, kernel: "EventKernel", now: float) -> int:
        """Push one fresh completion prediction per dirty job, in mark order."""
        pushed = 0
        if self._dirty:
            for rt in self._dirty.values():
                if kernel.push_completion(rt, now) is not None:
                    pushed += 1
            self._dirty.clear()
        return pushed

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """The dirty set's job ids in mark order (runtimes are captured by
        the engine, which owns their insertion order)."""
        return {"dirty": list(self._dirty.keys())}

    def load_state_dict(self, state: dict) -> None:
        """Load the dirty set and re-derive :attr:`live` from the restored
        table (the set is never captured: the table's states define it)."""
        self._dirty = {
            int(job_id): self.runtimes[int(job_id)] for job_id in state["dirty"]
        }
        self._rebuild_live()
