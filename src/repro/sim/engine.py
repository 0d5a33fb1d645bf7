"""The trace-driven simulation engine — orchestration of a layered pipeline.

A continuous-rate discrete-event simulator (see DESIGN.md §4): running
jobs advance at constant rates between events; events are job arrivals,
round boundaries (for round-based schedulers), predicted completions,
streamed submissions, and injected faults.  The engine itself is now a
thin orchestrator over four layers:

1. the **event kernel** (:mod:`repro.sim.kernel`) owns the heap, the
   deterministic same-timestamp ordering, and the lazy-deletion staleness
   rules for revocable events;
2. the **progress ledger** (:mod:`repro.sim.progress`) owns the live set
   of queued and running jobs, integrates their progress to each event
   time, finalizes completions, and tracks the dirty set of jobs needing
   completion re-prediction;
3. the **scheduler phase** (:mod:`repro.sim.phases`) invokes the
   scheduler behind the :class:`~repro.sim.interface.Scheduler` contract,
   validates the decision against the gang constraint (1e) and cluster
   capacity (1d) — a buggy scheduler fails loudly instead of silently
   overcommitting — and applies the diff;
4. the **telemetry/trace phases** hook utilization sampling and decision
   tracing into the pipeline, and an attached sanitizer checks
   invariants after every decision.

Per-phase wall-clock totals are surfaced as
:attr:`SimulationResult.phase_timings`.

Lifecycle
---------
The engine is a checkpointable service, not just a batch loop:

* :meth:`SimulationEngine.start` seeds the kernel and enters the
  ``running`` state; :meth:`~SimulationEngine.step` processes exactly one
  event; :meth:`~SimulationEngine.pause` / :meth:`~SimulationEngine.resume`
  gate stepping; :meth:`~SimulationEngine.stop` finalizes the
  :class:`SimulationResult`.
* :meth:`~SimulationEngine.run` is the trivial batch driver —
  ``start(); while step(): pass; return stop()`` — and produces
  byte-identical results to the historical monolithic loop.
* :meth:`~SimulationEngine.snapshot` captures every piece of mutable run
  state between steps as a versioned
  :class:`~repro.sim.snapshot.EngineState`;
  :meth:`~SimulationEngine.restore` rebuilds a freshly constructed engine
  from one, bit-identically.  **Engine snapshots** (:mod:`repro.sim.snapshot`)
  are distinct from the **job checkpoint model**
  (:mod:`repro.sim.checkpoint`), which simulates reallocation/restart
  overhead of the *jobs* inside the simulation.
* a :class:`~repro.workload.arrivals.SubmissionSource` streams jobs into
  the kernel while the engine runs, so the workload need not be known at
  construction (``repro.cli serve``).
* with a :class:`~repro.obs.registry.MetricsRegistry` attached, a
  decision observes only its latency, churn and queue waits; the other
  families are derived by one collector when the registry is read.
"""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.cluster import Cluster
from repro.faults.model import FaultModel
from repro.faults.phase import FaultPhase
from repro.faults.validator import DecisionRejected, DecisionValidator
from repro.sim.checkpoint import CheckpointModel, FixedDelayCheckpoint
from repro.sim.events import EventKind
from repro.sim.interface import Scheduler
from repro.sim.kernel import EventKernel
from repro.sim.phases import (
    PhaseTimings,
    SchedulerPhase,
    SchedulerProtocolError,
    TelemetryPhase,
    TracePhase,
)
from repro.sim.progress import JobRuntime, ProgressLedger
from repro.sim.snapshot import SnapshotCache
from repro.sim.stragglers import StragglerModel
from repro.sim.telemetry import UtilizationRecorder
from repro.workload.arrivals import SubmissionSource
from repro.workload.throughput import ThroughputMatrix, default_throughput_matrix
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import InvariantSanitizer
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import DecisionTracer
    from repro.sim.snapshot import EngineState
    from repro.workload.job import Job

__all__ = ["SimulationEngine", "SimulationResult", "simulate", "SchedulerProtocolError"]

DEFAULT_ROUND_LENGTH_S = 360.0
"""The paper's 6-minute scheduling round."""


@dataclass
class SimulationResult:
    """Everything a finished (or truncated) simulation produced."""

    scheduler_name: str
    cluster: Cluster
    round_length: float
    runtimes: dict[int, JobRuntime]
    telemetry: UtilizationRecorder
    end_time: float
    scheduling_invocations: int
    decision_seconds: list[float]
    """Wall-clock latency of each decision this engine object made.  A
    restored engine starts the list empty: it covers only the rounds
    since the restore, while ``scheduling_invocations`` counts them all."""
    truncated: bool = False
    rounds_with_change: int = 0
    """Rounds in which at least one job's allocation changed (Sec. IV-A-5)."""
    hotpath_stats: dict[str, int] = field(default_factory=dict)
    """Per-round scheduler counters summed over every round, for
    schedulers that publish ``last_round_stats`` (behind any wrappers):
    Hadar's round-context allocation-engine counters (FIND_ALLOC calls,
    cache hits, candidate/price evaluations, calibration dirty set),
    Gavel's matrix solves, Tiresias's demotions.  Published as the metrics registry's
    ``repro_hotpath_total`` family."""
    phase_timings: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per engine phase (event dispatch, progress
    integration, completion re-prediction, scheduler decision) — see
    :class:`~repro.sim.phases.PhaseTimings` — so the next engine
    bottleneck is measured, not guessed."""
    metrics: dict = field(default_factory=dict)
    """Snapshot of the run's :class:`~repro.obs.registry.MetricsRegistry`
    (phase seconds, round/completion counters, the decision-latency
    histogram, hot-path and calibration counters) — empty unless a
    registry was attached.  JSON-able; see ``docs/observability.md``."""
    fault_stats: dict = field(default_factory=dict)
    """Fault-injection totals (node/GPU faults, recoveries, gangs
    preempted, rollbacks, rollback seconds/iterations, devices still
    failed at end of run) — empty unless ``faults=`` was attached."""
    rejections: list["DecisionRejected"] = field(default_factory=list)
    """Every decision entry the validator rejected-and-repaired over the
    run (empty in strict mode, where a malformed decision raises)."""

    # -- convenience views -----------------------------------------------------
    @property
    def completed(self) -> list[JobRuntime]:
        done = [rt for rt in self.runtimes.values() if rt.finish_time is not None]
        done.sort(key=lambda rt: rt.job_id)
        return done

    @property
    def all_completed(self) -> bool:
        return len(self.completed) == len(self.runtimes)

    def jcts(self) -> list[float]:
        """Job completion times ``f_j − a_j`` of finished jobs, job-id order."""
        return [rt.completion_time for rt in self.completed]  # type: ignore[misc]

    def makespan(self) -> float:
        """Latest finish time (0 if nothing finished)."""
        return max((rt.finish_time for rt in self.completed), default=0.0)

    def queuing_delays(self) -> list[float]:
        """Arrival-to-first-allocation delays of finished jobs."""
        return [
            rt.queuing_delay
            for rt in self.completed
            if rt.queuing_delay is not None
        ]

    def total_waiting(self) -> list[float]:
        """Lifetime queued (allocation-less) seconds of finished jobs.

        The paper's "queuing delay" comparison (Hadar shortens it 13%
        vs. Gavel) is about time jobs sit without devices, which for
        time-sharing schedulers keeps accruing between their rounds —
        this series captures that; :meth:`queuing_delays` only covers
        the wait before the first allocation.
        """
        return [rt.waiting_seconds for rt in self.completed]

    def gpu_utilization(self) -> float:
        """Mean allocated fraction of the cluster over [0, makespan]."""
        horizon = self.makespan() or self.end_time
        if horizon <= 0:
            return 0.0
        return self.telemetry.average_utilization(
            self.cluster.total_gpus, 0.0, horizon
        )

    def mean_decision_seconds(self) -> float:
        if not self.decision_seconds:
            return 0.0
        return sum(self.decision_seconds) / len(self.decision_seconds)


def _locked(method):
    """Run an engine method under the attached registry's lock: reads see whole steps."""

    @functools.wraps(method)
    def call(self, *args, **kwargs):
        if self.metrics is None:
            return method(self, *args, **kwargs)
        with self.metrics.lock:
            return method(self, *args, **kwargs)

    return call


@dataclass
class SimulationEngine:
    """One simulation run binding a cluster, trace, and scheduler."""

    cluster: Cluster
    trace: Trace
    scheduler: Scheduler
    matrix: ThroughputMatrix = field(default_factory=default_throughput_matrix)
    round_length: float = DEFAULT_ROUND_LENGTH_S
    checkpoint: CheckpointModel = field(default_factory=FixedDelayCheckpoint)
    max_time: float = 10 * 365 * 24 * 3600.0
    stragglers: Optional[StragglerModel] = None
    """Optional failure injection; see :mod:`repro.sim.stragglers`."""
    faults: Optional[FaultModel] = None
    """Optional GPU/node fault injection; see :mod:`repro.faults`.
    Attaching a model (even one with all rates zero) routes decisions
    through a repair-mode :class:`~repro.faults.DecisionValidator`; with
    no model the engine keeps the historical strict contract."""
    sanitizer: Optional["InvariantSanitizer"] = None
    """Optional per-round invariant checks; see :mod:`repro.analysis.sanitizer`."""
    tracer: Optional["DecisionTracer"] = None
    """Optional structured decision tracing; when attached, a
    :class:`~repro.sim.phases.TracePhase` emits one schema-versioned JSONL
    record per scheduling round (see :mod:`repro.obs`)."""
    metrics: Optional["MetricsRegistry"] = None
    """Optional metrics registry; the engine observes decision latencies
    into it, registers a collector for its phase timings, round/completion
    counters and the schedulers' hot-path counters, and snapshots it into
    :attr:`SimulationResult.metrics`."""
    source: Optional[SubmissionSource] = None
    """Optional streaming job source; when attached, the engine pulls jobs
    one at a time and schedules :attr:`EventKind.SUBMISSION` events while
    it runs — the workload need not be known at construction.  Streamed
    job ids must not collide with trace job ids."""

    def __post_init__(self) -> None:
        if self.round_length <= 0:
            raise ValueError("round_length must be positive")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        for job in self.trace:
            if job.num_workers > self.cluster.total_gpus:
                raise ValueError(
                    f"job {job.job_id} requests {job.num_workers} workers but the "
                    f"cluster only has {self.cluster.total_gpus} GPUs"
                )
        self._lifecycle = "created"
        self._paused = False
        self._result: Optional[SimulationResult] = None

    # ------------------------------------------------------------ lifecycle --
    @property
    def is_running(self) -> bool:
        """Started and not yet stopped (paused still counts as running)."""
        return self._lifecycle == "running"

    @property
    def is_paused(self) -> bool:
        return self._lifecycle == "running" and self._paused

    @property
    def tick_count(self) -> int:
        """Events popped from the kernel so far (including stale pops)."""
        return self._ticks if self._lifecycle != "created" else 0

    @property
    def scheduling_invocations(self) -> int:
        """Scheduler rounds run so far (the service front-end's snapshot
        cadence is expressed in these, not in raw event ticks)."""
        if self._lifecycle == "created":
            return 0
        return self._scheduler_phase.invocations

    def _setup(self) -> None:
        """Build the run's layers and zero the loop state (no event seeding)."""
        self.scheduler.reset()
        self._straggler_rng = self.stragglers.rng() if self.stragglers else None
        runtimes: dict[int, JobRuntime] = {
            job.job_id: JobRuntime(job=job) for job in self.trace
        }
        self._runtimes = runtimes
        self._snapshot_cache = SnapshotCache()
        self._state = self.cluster.fresh_state()
        kernel = EventKernel()
        ledger = ProgressLedger(runtimes)
        self._telemetry = TelemetryPhase()
        fault_phase: Optional[FaultPhase] = None
        if self.faults is not None:
            fault_phase = FaultPhase(
                self.faults,
                self.cluster,
                max_time=self.max_time,
                sanitizer=self.sanitizer,
                matrix=self.matrix,
            )
        self._fault_phase = fault_phase
        self._scheduler_phase = SchedulerPhase(
            scheduler=self.scheduler,
            cluster=self.cluster,
            matrix=self.matrix,
            round_length=self.round_length,
            checkpoint=self.checkpoint,
            on_place=self._schedule_straggler_onset if self.stragglers else None,
            validator=(
                DecisionValidator("repair") if fault_phase is not None else None
            ),
            fault_phase=fault_phase,
        )
        self._kernel = kernel
        self._ledger = ledger
        trace_phase = TracePhase(self.tracer)
        self._trace_phase = trace_phase
        tracing = self.tracer is not None
        self._tracing = tracing
        if tracing:
            assert self.tracer is not None
            self._scheduler_phase.on_decision = trace_phase.capture_decision
            if fault_phase is not None:
                fault_phase.emit = self.tracer.emit
        health_phase = None
        if self.metrics is not None:
            from repro.obs.health import ClusterHealthPhase

            health_phase = ClusterHealthPhase(self.metrics, self.scheduler.name)
            self._decision_latency = self.metrics.histogram(
                "repro_decision_seconds", "Per-round scheduler decision latency"
            )
        self._health_phase = health_phase
        # The health phase reads the captured decision diff (churn, queue
        # waits), so capturing is armed whenever either consumer is live.
        self._scheduler_phase.capture_changes = tracing or health_phase is not None
        trace_phase.emit_meta(
            self.scheduler, self.cluster, self.round_length, len(self.trace)
        )
        self._timings = PhaseTimings()
        self._telemetry.record_utilization(0.0, self._state)

        self._completed = 0
        self._now = 0.0
        self._rounds_with_change = 0
        self._truncated = False
        self._loop_s = 0.0
        self._ticks = 0
        self._halted = False
        self._round_scheduled = False
        self._pending_submission: Optional["Job"] = None
        self._restore_fallbacks = 0
        self._paused = False
        self._result = None

    @_locked
    def start(self) -> None:
        """Build the run's state and seed the kernel's initial events."""
        if self._lifecycle != "created":
            raise RuntimeError(
                f"cannot start an engine that is {self._lifecycle}; "
                "build a new engine (or use restore() on a fresh one)"
            )
        self._setup()
        kernel = self._kernel
        for job in self.trace:
            kernel.push_arrival(job.arrival_time, job.job_id)
        if self._fault_phase is not None:
            for index, fault_event in enumerate(self._fault_phase.schedule.events):
                kernel.push_fault(fault_event.time, index)
        if self.scheduler.round_based and len(self.trace):
            first_round = self._round_at_or_after(self.trace[0].arrival_time)
            kernel.push_round_boundary(first_round)
            self._round_scheduled = True
        if self.source is not None:
            self._push_next_submission()
        self._lifecycle = "running"
        if self.metrics is not None:
            self.metrics.add_collector(self._collect_metrics)

    def pause(self) -> None:
        """Make :meth:`step` a no-op until :meth:`resume` (state is kept)."""
        self._require_running("pause")
        self._paused = True

    def resume(self) -> None:
        self._require_running("resume")
        self._paused = False

    def apply_fault_reload(self, spec: str) -> dict:
        """Splice a new fault spec into the live timeline (``repro serve``).

        The spec is parsed with :meth:`FaultModel.from_spec`, its schedule
        generated over the same cluster, and every strictly-future event
        pushed under a fresh *epoch*; already-open windows from prior
        epochs still close, superseded openers drop.  The splice point is
        the engine's current simulated time, is recorded in the fault
        phase's snapshot state (restores replay it), and is traced as a
        ``faultspec_reloaded`` record — so a run with live reloads is
        still deterministic given the trace.
        """
        self._require_running("reload faults")
        if self._fault_phase is None:
            raise RuntimeError(
                "cannot reload faults: engine was built without fault "
                "injection (attach a FaultModel to enable live reload)"
            )
        info = self._fault_phase.reload(spec, self._kernel, self._now)
        return {**info, "t": self._now}

    def note_restore_fallbacks(self, count: int) -> None:
        """Record corrupt snapshots skipped while walking the restore chain.

        Called by the service front-end after a successful fallback
        restore; feeds ``repro_snapshot_restore_fallbacks_total``.
        """
        self._require_running("note restore fallbacks")
        self._restore_fallbacks += int(count)

    @_locked
    def step(self) -> bool:
        """Process at most one event; True while more work remains.

        While paused, does nothing and reports whether work remains.
        """
        self._require_running("step")
        if self._paused:
            return self._has_work()
        if not self._has_work():
            return False
        kernel = self._kernel
        runtimes = self._runtimes
        ledger = self._ledger
        state = self._state
        timings = self._timings

        tick = _time.perf_counter()
        event = kernel.pop()
        self._ticks += 1
        if event.time > self.max_time:
            self._truncated = True
            self._halted = True
            self._loop_s += _time.perf_counter() - tick
            return False
        if kernel.is_stale(event, runtimes):
            self._loop_s += _time.perf_counter() - tick
            return self._has_work()
        now = self._now = event.time

        t0 = _time.perf_counter()
        ledger.integrate_to(now)
        finished = ledger.finalize_completions(state, now)
        timings.integration_s += _time.perf_counter() - t0
        if finished:
            self._completed += finished
            self._telemetry.record_utilization(now, state)

        needs_scheduler = False
        if event.kind is EventKind.ARRIVAL:
            ledger.admit(runtimes[event.payload], now)
            needs_scheduler = self.scheduler.reacts_to_events
        elif event.kind is EventKind.COMPLETION:
            needs_scheduler = self.scheduler.reacts_to_events
        elif event.kind is EventKind.ROUND_BOUNDARY:
            needs_scheduler = True
            self._round_scheduled = False
            self._push_next_round(now)
        elif event.kind is EventKind.STRAGGLER_ONSET:
            self._apply_straggler_onset(runtimes[event.payload], now, timings)
        elif event.kind is EventKind.STRAGGLER_RECOVERY:
            self._apply_straggler_recovery(runtimes[event.payload], now, timings)
        elif event.kind is EventKind.FAULT:
            fault_phase = self._fault_phase
            assert fault_phase is not None
            dirty_before = ledger.dirty_count
            if fault_phase.apply(event.payload, ledger, state, now):
                self._telemetry.record_utilization(now, state)
            if ledger.dirty_count > dirty_before:
                # Partition stalls/heals and degrade windows retune rates
                # without going through the scheduler phase; re-predict
                # completions now so the heap reflects the new rates.
                # (Legacy fail/recover events never mark dirty, keeping
                # golden runs byte-identical.)
                t0 = _time.perf_counter()
                ledger.flush_repredictions(kernel, now)
                timings.repredict_s += _time.perf_counter() - t0
            needs_scheduler = self.scheduler.reacts_to_events
        elif event.kind is EventKind.SUBMISSION:
            self._admit_submission(event.payload, now)
            needs_scheduler = self.scheduler.reacts_to_events

        if needs_scheduler and self._completed < len(runtimes):
            changed = self._scheduler_phase.invoke(
                ledger, kernel, state, now, timings
            )
            self._telemetry.record_utilization(now, state)
            if self.sanitizer is not None:
                fault_phase = self._fault_phase
                self.sanitizer.on_round(
                    round_index=self._scheduler_phase.invocations,
                    now=now,
                    runtimes=runtimes,
                    state=state,
                    scheduler=self.scheduler,
                    failed=fault_phase.failed if fault_phase is not None else None,
                    stalled=(
                        fault_phase.stalled_jobs if fault_phase is not None else None
                    ),
                    live=ledger.live,
                )
            if self._tracing:
                self._trace_phase.after_decision(
                    round_index=self._scheduler_phase.invocations,
                    now=now,
                    runtimes=runtimes,
                    scheduler=self.scheduler,
                    scheduler_phase=self._scheduler_phase,
                )
            if event.kind is EventKind.ROUND_BOUNDARY and changed:
                self._rounds_with_change += 1
            if self._health_phase is not None:
                self._health_phase.after_decision(
                    now=now, runtimes=runtimes, scheduler_phase=self._scheduler_phase
                )
                self._decision_latency.observe(
                    self._scheduler_phase.decision_seconds[-1],
                    labels={"scheduler": self.scheduler.name},
                )
        self._telemetry.record_queue_depth(now, ledger.queued)
        self._loop_s += _time.perf_counter() - tick
        return self._has_work()

    @_locked
    def stop(self) -> SimulationResult:
        """Finalize the run and build the :class:`SimulationResult`.

        Idempotent once stopped (returns the same result object).
        """
        if self._lifecycle == "stopped":
            assert self._result is not None
            return self._result
        self._require_running("stop")
        runtimes = self._runtimes
        timings = self._timings
        scheduler_phase = self._scheduler_phase
        fault_phase = self._fault_phase
        truncated = self._truncated
        completed = self._completed

        if completed < len(runtimes):
            truncated = True
        if truncated:
            # The clock reached past the last finish (telemetry may already
            # hold samples there); close the run where it stopped.
            end_time = self._now
        else:
            end_time = max(
                (rt.finish_time for rt in runtimes.values() if rt.finish_time),
                default=self._now,
            )
        self._telemetry.record_utilization(end_time, self._state)
        self._telemetry.record_queue_depth(end_time, self._ledger.queued)
        # The dispatch bucket is the loop residual: everything outside the
        # explicitly timed integration/re-prediction/decision phases.
        timings.event_dispatch_s = max(
            0.0,
            self._loop_s
            - timings.integration_s
            - timings.repredict_s
            - timings.decision_s,
        )
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            cluster=self.cluster,
            round_length=self.round_length,
            runtimes=runtimes,
            telemetry=self._telemetry.recorder,
            end_time=end_time,
            scheduling_invocations=scheduler_phase.invocations,
            decision_seconds=scheduler_phase.decision_seconds,
            truncated=truncated,
            rounds_with_change=self._rounds_with_change,
            hotpath_stats=scheduler_phase.hotpath_stats,
            phase_timings=timings.as_dict(),
            rejections=list(scheduler_phase.validator.rejections),
        )
        if fault_phase is not None:
            result.fault_stats = {
                **fault_phase.stats,
                "rollback_seconds": fault_phase.rollback_seconds,
                "rollback_iterations": fault_phase.rollback_iterations,
                "capacity_lost": fault_phase.capacity_lost,
            }
        self._trace_phase.emit_summary(
            rounds=result.scheduling_invocations,
            completed=completed,
            end_time=end_time,
            makespan=result.makespan(),
            truncated=truncated,
            phase_timings=result.phase_timings,
            hotpath_stats=result.hotpath_stats,
        )
        if self.metrics is not None:
            result.metrics = self.metrics.snapshot()
        self._lifecycle = "stopped"
        self._paused = False
        self._result = result
        return result

    # ------------------------------------------------------------------ run --
    def run(self) -> SimulationResult:
        """The batch driver: start (or continue), step to exhaustion, stop.

        On a fresh engine this is the historical one-call run.  On an
        engine that was just :meth:`restore`-d it continues from the
        snapshot.  On a stopped engine it starts a fresh run (the
        historical re-run semantics).
        """
        if self._lifecycle == "stopped":
            self._lifecycle = "created"
            if self.metrics is not None:
                # The stored families are run state (a snapshot carries
                # them): a re-run observes its own decisions from zero.
                with self.metrics.lock:
                    self.metrics.load_state_dict({})
        if self._lifecycle == "created":
            self.start()
        if self._paused:
            self.resume()
        while self.step():
            pass
        return self.stop()

    # ---------------------------------------------------- snapshot / restore --
    def snapshot(self) -> "EngineState":
        """Capture every piece of mutable run state between steps.

        This is the *engine* snapshot (service checkpointing, see
        :mod:`repro.sim.snapshot`) — unrelated to the job checkpoint
        overhead model in :mod:`repro.sim.checkpoint`.
        """
        self._require_running("snapshot")
        from repro.sim.snapshot import capture_engine_state

        return capture_engine_state(self)

    @_locked
    def restore(self, state: "EngineState") -> None:
        """Rebuild a freshly constructed engine from a snapshot.

        The engine must be configured identically to the snapshotting one
        (same scheduler/cluster/round length/attachments) and never
        started; after restore it is ``running`` and :meth:`step` /
        :meth:`run` continue bit-identically with the interrupted run.
        """
        if self._lifecycle != "created":
            raise RuntimeError(
                f"restore requires a freshly constructed engine, not {self._lifecycle}"
            )
        from repro.sim.snapshot import apply_engine_state

        self._setup()
        apply_engine_state(self, state)
        self._lifecycle = "running"
        if self.metrics is not None:
            self.metrics.add_collector(self._collect_metrics)

    # ----------------------------------------------------------- internals --
    def _require_running(self, what: str) -> None:
        if self._lifecycle != "running":
            raise RuntimeError(
                f"cannot {what}: engine is {self._lifecycle}, not running"
            )

    def _has_work(self) -> bool:
        """The loop predicate: outstanding events that can still matter."""
        if self._halted:
            return False
        if not self._kernel:
            return False
        if self._completed < len(self._runtimes):
            return True
        if self._pending_submission is not None:
            return True
        return self.source is not None and not self.source.exhausted

    def _push_next_submission(self) -> None:
        """Pull the next streamed job and schedule its SUBMISSION event."""
        assert self.source is not None
        job = self.source.next_job()
        if job is None:
            return
        if job.num_workers > self.cluster.total_gpus:
            raise ValueError(
                f"streamed job {job.job_id} requests {job.num_workers} workers "
                f"but the cluster only has {self.cluster.total_gpus} GPUs"
            )
        if job.job_id in self._runtimes:
            raise ValueError(
                f"streamed job id {job.job_id} collides with an existing job; "
                "configure the source's first_job_id past the trace"
            )
        self._pending_submission = job
        self._kernel.push_submission(job.arrival_time, job.job_id)

    def _admit_submission(self, job_id: int, now: float) -> None:
        """Enter the pending streamed job into the system (like an arrival)."""
        job = self._pending_submission
        assert job is not None and job.job_id == job_id
        self._pending_submission = None
        self._ledger.admit(JobRuntime(job=job), now)
        # Re-seed the round-boundary chain if it died while the system was
        # empty (no active jobs and no pending batch arrivals left).
        if self.scheduler.round_based and not self._round_scheduled:
            self._kernel.push_round_boundary(self._round_at_or_after(now))
            self._round_scheduled = True
        self._push_next_submission()

    # ------------------------------------------------------------- metrics --
    def _collect_metrics(self, registry: "MetricsRegistry") -> None:
        """The engine-owned families, derived from engine state on each
        read of the attached registry (``registry`` is that read's fresh
        registry; the caller holds the attached one's lock).

        Naming follows ``docs/observability.md``: everything ``repro_``-
        prefixed, counters end in ``_total``, timings in ``_seconds``,
        labels low-cardinality (``scheduler``, ``phase``, ``counter``).
        """
        phase = self._scheduler_phase
        fault_phase = self._fault_phase
        labels = {"scheduler": self.scheduler.name}
        arrived = len(self._ledger.live) + self._completed
        for name, help_text, value in (
            ("repro_engine_rounds_total", "Scheduler invocations", phase.invocations),
            ("repro_engine_ticks_total", "Events popped from the kernel", self._ticks),
            ("repro_jobs_completed_total", "Jobs that ran to completion",
             self._completed),
            ("repro_rounds_with_change_total",
             "Rounds in which at least one job's allocation changed",
             self._rounds_with_change),
            ("repro_jobs_arrived_total", "Jobs that have entered the system", arrived),
        ):
            registry.counter(name, help_text).advance_to(value, labels=labels)
        queued, running = phase.last_queue_depth
        depth = registry.gauge(
            "repro_queue_depth", "Jobs by lifecycle state at the last decision"
        )
        depth.set(queued, labels={**labels, "state": "queued"})
        depth.set(running, labels={**labels, "state": "running"})
        registry.gauge(
            "repro_sim_time_seconds", "Simulated clock of the newest event"
        ).set(self._now, labels=labels)
        if self.source is not None:
            registry.counter(
                "repro_submissions_total",
                "Jobs drawn from the streaming submission source",
            ).advance_to(
                self.source.emitted, labels={**labels, "source": "stream"}
            )
        phase_gauge = registry.gauge(
            "repro_engine_phase_seconds",
            "Wall-clock seconds per engine phase so far",
        )
        for bucket, seconds in self._timings.as_dict().items():
            phase_gauge.set(seconds, labels={**labels, "phase": bucket})
        if phase.hotpath_stats:
            registry.count_all(
                "repro_hotpath",
                phase.hotpath_stats,
                labels=labels,
                help="Allocation-engine and calibration hot-path counters",
            )
        if fault_phase is not None:
            faults = registry.counter(
                "repro_faults_total", "Injected fault events by kind"
            )
            for kind in ("node_faults", "gpu_faults", "recoveries", "partitions",
                         "partition_heals", "degraded_windows", "storage_losses"):
                faults.advance_to(
                    fault_phase.stats.get(kind, 0), labels={**labels, "kind": kind}
                )
            registry.counter(
                "repro_rollback_seconds_total",
                "Simulated seconds of progress lost to crash-restart rollbacks",
            ).advance_to(fault_phase.rollback_seconds, labels=labels)
            if fault_phase.stats.get("gangs_stalled", 0):
                registry.counter(
                    "repro_gangs_stalled_total",
                    "Gangs stalled by network partitions (stall policy)",
                ).advance_to(
                    fault_phase.stats["gangs_stalled"], labels=labels
                )
        if self._restore_fallbacks:
            registry.counter(
                "repro_snapshot_restore_fallbacks_total",
                "Snapshots skipped as corrupt while walking the restore chain",
            ).advance_to(self._restore_fallbacks, labels=labels)
        if phase.validator.rejections:
            rejected = registry.counter(
                "repro_decisions_rejected_total",
                "Decision entries rejected-and-repaired by the validator, by reason",
            )
            for rejection in phase.validator.rejections:
                rejected.inc(labels={**labels, "reason": rejection.reason})
        if self._health_phase is not None:
            self._health_phase.collect(
                registry, now=self._now, live=self._ledger.live, state=self._state
            )

    # -------------------------------------------------------------- status --
    def status(self) -> dict:
        """An operational summary for the live ``/status`` endpoint.

        Safe to call from the exposition server's thread while another
        thread steps the engine: only scalar attributes are read (no dict
        iteration), so the worst case is a value one event stale.
        """
        if self._lifecycle == "created":
            return {
                "lifecycle": "created",
                "scheduler": self.scheduler.name,
                "round": 0,
                "ticks": 0,
                "sim_time_s": 0.0,
                "jobs_total": len(self.trace),
                "jobs_completed": 0,
                "jobs_queued": 0,
                "jobs_running": 0,
                "streamed": None,
                "truncated": False,
            }
        phase = self._scheduler_phase
        queued, running = phase.last_queue_depth
        return {
            "lifecycle": "paused" if self.is_paused else self._lifecycle,
            "scheduler": self.scheduler.name,
            "round": phase.invocations,
            "ticks": self._ticks,
            "sim_time_s": self._now,
            "jobs_total": len(self._runtimes),
            "jobs_completed": self._completed,
            "jobs_queued": queued,
            "jobs_running": running,
            "streamed": self.source.emitted if self.source is not None else None,
            "truncated": self._truncated,
        }

    # -------------------------------------------------------------- helpers --
    def _round_at_or_after(self, t: float) -> float:
        """The first round boundary at or after time ``t``."""
        return math.ceil(t / self.round_length - 1e-12) * self.round_length

    def _push_next_round(self, now: float) -> None:
        """Schedule the next boundary, skipping idle gaps before far arrivals.

        Sets ``_round_scheduled`` exactly when a boundary is pushed, so a
        streamed submission re-seeds the chain only after it has died.
        """
        unfinished = len(self._runtimes) - self._completed
        if not unfinished:
            return
        if self._ledger.live:
            nxt = now + self.round_length
        else:
            # Nothing is live, so every unfinished job is a trace job yet
            # to arrive.  Trace jobs arrive in trace order, so they are
            # the trace's last ``unfinished`` jobs; the first comes next.
            arrival = self.trace[len(self.trace) - unfinished].arrival_time
            nxt = self._round_at_or_after(arrival)
            if nxt <= now:
                nxt = now + self.round_length
        self._kernel.push_round_boundary(nxt)
        self._round_scheduled = True

    # ------------------------------------------------------------ stragglers --
    def _schedule_straggler_onset(self, rt: JobRuntime, now: float) -> None:
        if self.stragglers is None:
            return
        delay = self.stragglers.sample_onset_delay(self._straggler_rng)
        self._kernel.push_straggler_onset(now + delay, rt)

    def _repredict(self, rt: JobRuntime, now: float, timings: PhaseTimings) -> None:
        t0 = _time.perf_counter()
        self._ledger.mark_dirty(rt)
        self._ledger.flush_repredictions(self._kernel, now)
        timings.repredict_s += _time.perf_counter() - t0

    def _apply_straggler_onset(
        self, rt: JobRuntime, now: float, timings: PhaseTimings
    ) -> None:
        assert self.stragglers is not None
        rt.slowdown = self.stragglers.slowdown_factor
        rt.rate *= self.stragglers.slowdown_factor
        rt.straggler_events += 1
        rt.generation += 1
        self._repredict(rt, now, timings)
        self._kernel.push_straggler_recovery(now + self.stragglers.duration_s, rt)

    def _apply_straggler_recovery(
        self, rt: JobRuntime, now: float, timings: PhaseTimings
    ) -> None:
        if rt.slowdown >= 1.0:
            return  # already cleared by a reallocation
        rt.rate /= rt.slowdown
        rt.slowdown = 1.0
        rt.generation += 1
        self._repredict(rt, now, timings)
        # The gang is healthy again; the next fault starts its clock now.
        self._schedule_straggler_onset(rt, now)


def simulate(
    cluster: Cluster,
    trace: Trace,
    scheduler: Scheduler,
    *,
    matrix: Optional[ThroughputMatrix] = None,
    round_length: float = DEFAULT_ROUND_LENGTH_S,
    checkpoint: Optional[CheckpointModel] = None,
    max_time: Optional[float] = None,
    stragglers: Optional[StragglerModel] = None,
    faults: Optional[FaultModel] = None,
    sanitizer: Optional["InvariantSanitizer"] = None,
    tracer: Optional["DecisionTracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    source: Optional[SubmissionSource] = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationEngine`."""
    kwargs = {}
    if max_time is not None:
        kwargs["max_time"] = max_time
    engine = SimulationEngine(
        cluster=cluster,
        trace=trace,
        scheduler=scheduler,
        matrix=matrix or default_throughput_matrix(),
        round_length=round_length,
        checkpoint=checkpoint or FixedDelayCheckpoint(),
        stragglers=stragglers,
        faults=faults,
        sanitizer=sanitizer,
        tracer=tracer,
        metrics=metrics,
        source=source,
        **kwargs,
    )
    return engine.run()
