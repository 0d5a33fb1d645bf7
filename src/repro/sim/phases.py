"""The engine's phase pipeline — layers 3 and 4 over the kernel/ledger.

:mod:`repro.sim.engine` orchestrates four layers per event:

1. the :class:`~repro.sim.kernel.EventKernel` pops the event and decides
   staleness;
2. the :class:`~repro.sim.progress.ProgressLedger` integrates the live
   jobs' progress and finalizes completions;
3. the :class:`SchedulerPhase` (this module) invokes the scheduler
   behind the :class:`~repro.sim.interface.Scheduler` contract,
   validates the decision, applies the diff, and flushes the ledger's
   dirty set into fresh completion predictions;
4. the :class:`TelemetryPhase` and :class:`TracePhase` hook utilization
   recording and decision tracing into the pipeline without being
   inlined in the event loop.

Observers reach a scheduler's per-round surface (``last_round_stats``,
``decision_record``) through :func:`~repro.sim.interface.unwrap`, so a
wrapped scheduler is observed exactly as a bare one, and only after the
timed ``schedule()`` call has returned.

:class:`PhaseTimings` is the wall-clock breakdown across those layers,
surfaced as :attr:`SimulationResult.phase_timings` and on the
``repro_engine_phase_seconds`` gauge so the next engine bottleneck is
measured rather than guessed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.cluster.allocation import EMPTY_ALLOCATION, Allocation
from repro.cluster.cluster import Cluster
from repro.faults.validator import DecisionValidator
from repro.sim.checkpoint import CheckpointModel
from repro.sim.interface import (
    Scheduler,
    SchedulerContext,
    SchedulerProtocolError,
    realized_rate,
    unwrap,
)
from repro.sim.kernel import EventKernel
from repro.sim.progress import JobRuntime, JobState, ProgressLedger
from repro.sim.telemetry import UtilizationRecorder
from repro.workload.job import Job
from repro.workload.models import ModelSpec
from repro.workload.throughput import ThroughputMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.state import ClusterState
    from repro.faults.phase import FaultPhase
    from repro.obs.tracer import DecisionTracer

__all__ = [
    "PhaseTimings",
    "SchedulerPhase",
    "TelemetryPhase",
    "TracePhase",
    "SchedulerProtocolError",
]


@dataclass
class PhaseTimings:
    """Wall-clock seconds per engine phase over a whole simulation.

    ``event_dispatch_s`` is the loop residual — popping/filtering events,
    kind dispatch, applying validated decisions, and telemetry — i.e.
    total loop time minus the three explicitly-timed phases below it.
    """

    event_dispatch_s: float = 0.0
    integration_s: float = 0.0
    repredict_s: float = 0.0
    decision_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "event_dispatch_s": self.event_dispatch_s,
            "integration_s": self.integration_s,
            "repredict_s": self.repredict_s,
            "decision_s": self.decision_s,
        }

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict[str, float]:
        return self.as_dict()

    def load_state_dict(self, state: Mapping[str, float]) -> None:
        self.event_dispatch_s = float(state["event_dispatch_s"])
        self.integration_s = float(state["integration_s"])
        self.repredict_s = float(state["repredict_s"])
        self.decision_s = float(state["decision_s"])


def _arrival_order(rt: JobRuntime) -> tuple[float, int]:
    """The order the scheduler sees jobs in: arrival, then job id."""
    return (rt.job.arrival_time, rt.job_id)


class SchedulerPhase:
    """Layer 3: one scheduling decision — invoke, validate, apply, flush.

    Owns the per-run accumulators the old monolithic engine kept as
    locals: the ``invocations`` count, ``decision_seconds`` (one entry
    per invocation since the phase was built or restored) and the
    aggregated ``hotpath_stats`` of schedulers that publish
    ``last_round_stats`` (wrapped ones included).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        cluster: Cluster,
        matrix: ThroughputMatrix,
        round_length: float,
        checkpoint: CheckpointModel,
        on_place: Optional[Callable[[JobRuntime, float], None]] = None,
        validator: Optional[DecisionValidator] = None,
        fault_phase: Optional["FaultPhase"] = None,
    ):
        self.scheduler = scheduler
        self.cluster = cluster
        self.matrix = matrix
        self.round_length = round_length
        self.checkpoint = checkpoint
        self.on_place = on_place
        """Called for every (re)placed gang — the engine hooks straggler
        fault scheduling here without the phase knowing about faults."""
        self.on_decision: Optional[Callable[[Scheduler], None]] = None
        """Called with the scheduler after the decision timer stops and
        before the diff is validated and applied — the engine hooks the
        :class:`TracePhase` here when a tracer is attached, so the
        decision record reads the runtimes the round decided on and its
        cost stays out of :attr:`decision_seconds`."""
        self.validator = validator if validator is not None else DecisionValidator()
        """Strict by default (malformed decisions raise, the historical
        contract); the engine switches to ``repair`` mode when fault
        injection is attached."""
        self.fault_phase = fault_phase
        """Source of the live failed-capacity mask handed to every
        :class:`SchedulerContext` (None without fault injection)."""
        nominal_state = cluster.fresh_state()
        self._nominal = {
            slot: nominal_state.capacity(*slot) for slot in nominal_state.slots
        }
        self.invocations = 0
        self.decision_seconds: list[float] = []
        """Wall-clock latency of each decision this process made: a
        measurement, not run state, so snapshots leave it out."""
        self.hotpath_stats: dict[str, int] = {}
        self.capture_changes = False
        """Keep the applied diff of each invocation in :attr:`last_changes`
        (set by the engine when a decision tracer is enabled; the
        tracing-off cost is one bool test per invocation)."""
        self.last_changes: list[tuple[int, Allocation, Allocation]] = []
        """``(job_id, old, new)`` per job the latest decision moved,
        paused, or placed — captured before the diff is applied."""
        self.last_queue_depth: tuple[int, int] = (0, 0)
        """``(queued, running)`` jobs presented to the latest invocation."""
        self._rates: dict[tuple[ModelSpec, Allocation], float] = {}
        self._bottlenecks: dict[tuple[str, Allocation], str] = {}
        """Pure memos of :func:`realized_rate` and the bottleneck type per
        ``(model, gang)``: the matrix, cluster and communication model are
        fixed for the phase's life.  Never snapshotted; only successful
        results are stored, so an unusable gang raises every time."""

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """Per-run accumulators, including the validator's rejection log.

        ``decision_seconds`` is left out: it measures this process's wall
        clock, no decision reads it, and one float per round would make
        every snapshot larger than the last.
        ``capture_changes``/``on_place``/``on_decision``/``fault_phase``
        are wiring the engine reattaches at restore.  ``last_queue_depth`` is captured:
        ``status()`` and the queue-depth gauge read the latest decision's
        depth before the next invocation overwrites it.  ``last_changes``
        and the validator's ``last_rejections`` are per-round transients
        the next invocation overwrites before any read, so they are not
        captured.
        ``tests/core/test_chaos_snapshot.py`` checks that a restored run
        reproduces every output of the uninterrupted one.
        """
        return {
            "invocations": self.invocations,
            "hotpath_stats": dict(self.hotpath_stats),
            "last_queue_depth": list(self.last_queue_depth),
            "rejections": [r.as_record() for r in self.validator.rejections],
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.faults.validator import DecisionRejected

        self.invocations = int(state["invocations"])
        self.decision_seconds = []
        self.hotpath_stats = {
            str(k): int(v) for k, v in state["hotpath_stats"].items()
        }
        self.last_queue_depth = (
            int(state["last_queue_depth"][0]),
            int(state["last_queue_depth"][1]),
        )
        self.validator.rejections = [
            DecisionRejected(
                job_id=int(r["job_id"]),
                reason=str(r["reason"]),
                detail=str(r["detail"]),
                repaired=bool(r["repaired"]),
            )
            for r in state["rejections"]
        ]

    def invoke(
        self,
        ledger: ProgressLedger,
        kernel: EventKernel,
        state: "ClusterState",
        now: float,
        timings: PhaseTimings,
    ) -> bool:
        """Run one scheduling decision and apply the diff; True if changed."""
        waiting: list[JobRuntime] = []
        running: list[JobRuntime] = []
        for rt in ledger.live.values():
            (running if rt.state is JobState.RUNNING else waiting).append(rt)
        waiting.sort(key=_arrival_order)
        running.sort(key=_arrival_order)
        self.last_queue_depth = (len(waiting), len(running))
        ctx = SchedulerContext(
            now=now,
            cluster=self.cluster,
            matrix=self.matrix,
            round_length=self.round_length,
            waiting=tuple(waiting),
            running=tuple(running),
            failed=(
                dict(self.fault_phase.failed)
                if self.fault_phase is not None
                else {}
            ),
            unreachable=(
                self.fault_phase.unreachable_nodes
                if self.fault_phase is not None
                else frozenset()
            ),
        )
        t0 = _time.perf_counter()
        target = dict(self.scheduler.schedule(ctx))
        elapsed = _time.perf_counter() - t0
        self.invocations += 1
        self.decision_seconds.append(elapsed)
        timings.decision_s += elapsed

        source = unwrap(self.scheduler, "last_round_stats")
        if source is not None and source.last_round_stats:
            stats = self.hotpath_stats
            for counter, value in source.last_round_stats.items():
                stats[counter] = stats.get(counter, 0) + value
        if self.on_decision is not None:
            self.on_decision(self.scheduler)

        # Reject-and-repair (or raise, in strict mode) against a probe at
        # *surviving* capacity — same mask the scheduler planned with.
        target = self.validator.check(
            target, ledger.runtimes, ctx.fresh_state(), nominal=self._nominal
        )
        changed = self.apply(target, ledger, kernel, state, now, timings)
        return changed

    @property
    def last_rejections(self):
        """Typed ``DecisionRejected`` outcomes of the latest invocation."""
        return self.validator.last_rejections

    def apply(
        self,
        target: dict[int, Allocation],
        ledger: ProgressLedger,
        kernel: EventKernel,
        state: "ClusterState",
        now: float,
        timings: PhaseTimings,
    ) -> bool:
        """Two-phase diff: release every changed job, then place the new gangs.

        Only the jobs this decision actually touched — moved, paused, or
        charged a steady-state checkpoint — enter the ledger's dirty set;
        the flush at the end re-predicts exactly those completions, in
        mark order (changed jobs first, then kept jobs, matching the
        deterministic push order the goldens pin).
        """
        changed_jobs: list[tuple[JobRuntime, Allocation]] = []
        kept_jobs: list[JobRuntime] = []
        for rt in ledger.live.values():
            new = target.get(rt.job.job_id, EMPTY_ALLOCATION)
            if new is rt.allocation or new == rt.allocation:
                if rt.state is JobState.RUNNING and rt.allocation:
                    kept_jobs.append(rt)
                continue
            changed_jobs.append((rt, new))

        if self.capture_changes:
            # Snapshot old→new before any mutation below rewrites
            # ``rt.allocation``; allocations are immutable values.
            self.last_changes = [
                (rt.job_id, rt.allocation, new) for rt, new in changed_jobs
            ]

        for rt, _ in changed_jobs:
            if rt.allocation:
                state.release(rt.allocation)

        for rt, new in changed_jobs:
            old = rt.allocation
            if new:
                state.allocate(new)  # validated jointly above
                delay = self.checkpoint.reallocation_delay(rt.job, old, new)
                rt.allocation = new
                ledger.move(rt, JobState.RUNNING)
                rt.rate = self._realized_rate(rt.job, new)
                rt.resume_time = now + delay
                rt.overhead_seconds += delay
                rt.allocation_changes += 1
                rt.slowdown = 1.0  # fresh workers start healthy
                rt.alloc_epoch += 1
                if self.fault_phase is not None:
                    # The new gang inherits the live topology: degraded
                    # nodes throttle it, an active partition it spans
                    # stalls it (and a moved gang sheds any old stall).
                    self.fault_phase.note_placement(rt)
                if self.on_place is not None:
                    self.on_place(rt, now)
                if rt.first_start_time is None:
                    rt.first_start_time = now
                if old:
                    rt.preemptions += 1
            else:
                rt.allocation = EMPTY_ALLOCATION
                ledger.move(rt, JobState.QUEUED)
                rt.rate = 0.0
                rt.preemptions += 1
                if self.fault_phase is not None:
                    # A paused gang sheds its partition stall entry.
                    self.fault_phase.note_placement(rt)
            # A scheduler-driven change is graceful: state is saved before
            # the gang moves or pauses, unlike a crash (see FaultPhase).
            rt.checkpoint_iterations = rt.iterations_done
            rt.generation += 1
            rt.record_placement(now, rt.allocation)
            ledger.mark_dirty(rt)

        # Jobs keeping their allocation still pay the periodic checkpoint save.
        for rt in kept_jobs:
            steady = self.checkpoint.steady_state_overhead(rt.job)
            if steady > 0:
                rt.resume_time = max(rt.resume_time, now) + steady
                rt.overhead_seconds += steady
                rt.generation += 1
                ledger.mark_dirty(rt)
            # The periodic save itself: a crash later in the round rolls
            # back only to this boundary's progress.
            rt.checkpoint_iterations = rt.iterations_done
            self.bookkeep_round(rt)
        for rt, new in changed_jobs:
            if new:
                self.bookkeep_round(rt)

        if ledger.dirty_count:
            t0 = _time.perf_counter()
            ledger.flush_repredictions(kernel, now)
            timings.repredict_s += _time.perf_counter() - t0
        return bool(changed_jobs)

    def _realized_rate(self, job: Job, gang: Allocation) -> float:
        """:func:`realized_rate` of ``gang`` for ``job``'s model, memoized."""
        key = (job.model, gang)
        rate = self._rates.get(key)
        if rate is None:
            rate = self._rates[key] = realized_rate(job, gang, self.matrix, self.cluster)
        return rate

    def bookkeep_round(self, rt: JobRuntime) -> None:
        """Track per-type round counts (consumed by Gavel-style priorities)."""
        gang = rt.allocation
        if not gang:
            return
        rt.rounds_scheduled += 1
        model = rt.job.model.name
        key = (model, gang)
        bottleneck = self._bottlenecks.get(key)
        if bottleneck is None:
            # Sorted so rate ties attribute the round to the same type every run.
            bottleneck = self._bottlenecks[key] = min(
                sorted(gang.gpu_types), key=lambda t: self.matrix.rate(model, t)
            )
        rt.rounds_by_type[bottleneck] = rt.rounds_by_type.get(bottleneck, 0) + 1


class TelemetryPhase:
    """Layer 4a: utilization/queue-depth sampling behind one seam."""

    __slots__ = ("recorder",)

    def __init__(self, recorder: Optional[UtilizationRecorder] = None):
        self.recorder = recorder if recorder is not None else UtilizationRecorder()

    def record_utilization(self, now: float, state: "ClusterState") -> None:
        self.recorder.record(now, state.used_by_type())

    def record_queue_depth(self, now: float, queued: int) -> None:
        """Sample how many jobs are queued (the ledger's count)."""
        self.recorder.record_queue(now, queued)


class TracePhase:
    """Layer 4c: opt-in structured decision tracing (no-op without a tracer).

    Builds one schema-versioned record per scheduling round from what the
    round already produced — the scheduler's ``decision_record()`` and
    ``last_round_stats`` introspection surfaces and the
    :class:`SchedulerPhase`'s captured diff — and hands it to the
    :class:`~repro.obs.tracer.DecisionTracer`.  The decision record is
    taken by :meth:`capture_decision`, which the engine hooks into the
    scheduler phase between the timed decision and the diff.  Schedulers
    that publish no decision record (the baselines) get a generic record:
    outcomes reconstructed from the applied diff, skipped jobs tagged
    ``not_traced``.  When no tracer is attached every entry point is a
    single attribute test.
    """

    __slots__ = ("tracer", "_decision")

    def __init__(self, tracer: Optional["DecisionTracer"] = None):
        self.tracer = tracer
        self._decision: Optional[dict] = None

    def capture_decision(self, scheduler: Scheduler) -> None:
        """Take the scheduler's decision record for :meth:`after_decision`."""
        source = unwrap(scheduler, "decision_record")
        self._decision = None if source is None else source.decision_record()

    def emit_meta(
        self,
        scheduler: Scheduler,
        cluster: Cluster,
        round_length: float,
        num_jobs: int,
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.emit(
            {
                "kind": "meta",
                "scheduler": scheduler.name,
                "round_length_s": round_length,
                "cluster": {
                    "total_gpus": cluster.total_gpus,
                    "gpus_by_type": dict(
                        sorted(cluster.capacity_by_type().items())
                    ),
                },
                "num_jobs": num_jobs,
            }
        )

    def after_decision(
        self,
        round_index: int,
        now: float,
        runtimes: Mapping[int, JobRuntime],
        scheduler: Scheduler,
        scheduler_phase: SchedulerPhase,
    ) -> None:
        if self.tracer is None:
            return
        from repro.obs.tracer import placements_list

        for rejection in scheduler_phase.last_rejections:
            self.tracer.emit({
                "kind": "decision_rejected",
                "round": round_index,
                "t": now,
                **rejection.as_record(),
            })
        queued, running = scheduler_phase.last_queue_depth
        record: dict = {
            "kind": "round",
            "round": round_index,
            "t": now,
            "queued": queued,
            "running": running,
        }
        if scheduler_phase.decision_seconds:
            record["decision_s"] = scheduler_phase.decision_seconds[-1]
        decision, self._decision = self._decision, None
        if decision is not None:
            record["jobs"] = decision["jobs"]
            record["prices"] = decision["prices"]
            record["alpha"] = decision["alpha"]
            record["eta"] = decision["eta"]
        else:
            record["jobs"] = self._generic_jobs(runtimes, scheduler_phase)
        source = unwrap(scheduler, "last_round_stats")
        if source is not None and source.last_round_stats:
            record["counters"] = dict(source.last_round_stats)
        record["changes"] = [
            {
                "job_id": job_id,
                "change": (
                    "preempt" if not new else ("place" if not old else "migrate")
                ),
                "old": placements_list(old),
                "new": placements_list(new),
            }
            for job_id, old, new in scheduler_phase.last_changes
        ]
        self.tracer.emit(record)

    @staticmethod
    def _generic_jobs(
        runtimes: Mapping[int, JobRuntime], scheduler_phase: SchedulerPhase
    ) -> list[dict]:
        """Outcomes reconstructed from post-apply state (baseline fallback)."""
        from repro.obs.tracer import placements_list

        changed = {job_id for job_id, _, _ in scheduler_phase.last_changes}
        jobs: list[dict] = []
        for rt in sorted(runtimes.values(), key=lambda r: r.job_id):
            if rt.state is JobState.RUNNING and rt.allocation:
                jobs.append(
                    {
                        "job_id": rt.job_id,
                        "outcome": "admitted" if rt.job_id in changed else "kept",
                        "allocation": placements_list(rt.allocation),
                    }
                )
            elif rt.state is JobState.QUEUED:
                jobs.append(
                    {
                        "job_id": rt.job_id,
                        "outcome": "skipped",
                        "reason": "not_traced",
                    }
                )
        return jobs

    def emit_summary(
        self,
        *,
        rounds: int,
        completed: int,
        end_time: float,
        makespan: float,
        truncated: bool,
        phase_timings: Mapping[str, float],
        hotpath_stats: Mapping[str, int],
    ) -> None:
        if self.tracer is None:
            return
        record: dict = {
            "kind": "summary",
            "rounds": rounds,
            "completed": completed,
            "end_time": end_time,
            "makespan": makespan,
            "truncated": truncated,
            "phase_timings": dict(phase_timings),
        }
        if hotpath_stats:
            record["hotpath_stats"] = dict(hotpath_stats)
        self.tracer.emit(record)
