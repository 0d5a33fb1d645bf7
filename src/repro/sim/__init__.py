"""Discrete-event simulation substrate.

The engine is a *continuous-rate* discrete-event simulator: between events
every running job advances at a constant iteration rate, so progress is
integrated exactly (no time-step discretization).  Events are job
arrivals, round boundaries, and (re-schedulable) predicted completions.

* :mod:`repro.sim.events` — the event heap;
* :mod:`repro.sim.kernel` — the event kernel (heap ownership, lazy
  deletion, deterministic same-timestamp ordering);
* :mod:`repro.sim.progress` — per-job runtime state (iterations done,
  current allocation/rate, pause windows, bookkeeping for metrics) and
  the progress ledger (exact integration + dirty-set re-prediction);
* :mod:`repro.sim.checkpoint` — preemption/reallocation overhead models
  (the paper's fixed 10 s simulation delay and the model-size-aware
  variant behind Table IV);
* :mod:`repro.sim.interface` — the scheduler-facing API
  (:class:`SchedulerContext` in, allocation map out);
* :mod:`repro.sim.phases` — the scheduler-invocation and
  telemetry/sanitizer phases the engine pipelines per event;
* :mod:`repro.sim.telemetry` — busy-GPU time series for utilization;
* :mod:`repro.sim.engine` — the orchestrator binding the layers.
"""

from repro.sim.checkpoint import (
    CheckpointModel,
    FixedDelayCheckpoint,
    ModelAwareCheckpoint,
    NoOverheadCheckpoint,
)
from repro.sim.engine import SimulationEngine, SimulationResult, simulate
from repro.sim.events import EventQueue
from repro.sim.interface import Scheduler, SchedulerContext
from repro.sim.kernel import EventKernel
from repro.sim.phases import (
    PhaseTimings,
    SchedulerPhase,
    SchedulerProtocolError,
    TelemetryPhase,
)
from repro.sim.progress import JobRuntime, JobState, ProgressLedger
from repro.sim.replay import (
    RecordingScheduler,
    ReplayScheduler,
    load_decisions,
    save_decisions,
)
from repro.sim.stragglers import StragglerModel
from repro.sim.telemetry import UtilizationRecorder

__all__ = [
    "CheckpointModel",
    "EventKernel",
    "EventQueue",
    "FixedDelayCheckpoint",
    "JobRuntime",
    "JobState",
    "ModelAwareCheckpoint",
    "NoOverheadCheckpoint",
    "PhaseTimings",
    "ProgressLedger",
    "RecordingScheduler",
    "ReplayScheduler",
    "Scheduler",
    "SchedulerContext",
    "SchedulerPhase",
    "SchedulerProtocolError",
    "SimulationEngine",
    "SimulationResult",
    "StragglerModel",
    "TelemetryPhase",
    "UtilizationRecorder",
    "load_decisions",
    "save_decisions",
    "simulate",
]
