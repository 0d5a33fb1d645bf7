"""Preemption / reallocation overhead models.

When a round-based scheduler moves a job, the job checkpoints its model to
stable storage, releases its devices, and restarts on the new allocation
(Sec. III: "the latest model parameter would be checkpointed to stable
storage").  The paper uses two flavours we both implement:

* the **simulation** enforces a fixed 10-second delay per reallocation
  (Sec. IV-A) — :class:`FixedDelayCheckpoint`;
* the **prototype** pays model-size-dependent costs (Table IV): checkpoint
  save + load over the instance SSD (~1000 MiB/s) plus a framework
  restart/input-pipeline warm-up — :class:`ModelAwareCheckpoint`.

A job keeping exactly its previous allocation pays only the periodic
checkpoint *save* (Table IV's "w/o reallocation" column).

Naming note: this module charges **simulated seconds** for *job-level*
checkpoints inside the modeled world.  It is unrelated to the engine's
own snapshot/restore machinery in :mod:`repro.sim.snapshot`, which
serializes the *simulator's* state so a long-lived run can survive a
process restart.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.cluster.allocation import Allocation
from repro.workload.job import Job

__all__ = [
    "CheckpointModel",
    "NoOverheadCheckpoint",
    "FixedDelayCheckpoint",
    "ModelAwareCheckpoint",
]


class CheckpointModel(ABC):
    """Strategy interface for reallocation overhead.

    A move's pause depends on the job and the gang it leaves, never on
    the gang it moves to: :meth:`move_delay` is that pause, and
    Hadar's allocation search charges it to every gang but the current
    one before it has built any.
    """

    def reallocation_delay(
        self, job: Job, old: Allocation, new: Allocation
    ) -> float:
        """Seconds the job is paused when moving from ``old`` to ``new``.

        Called only when ``new`` is non-empty.  ``old`` may be empty (a
        fresh start from the queue).  Keeping ``old`` costs the periodic
        save; any other ``new`` costs :meth:`move_delay`.
        """
        if new == old:
            return self.steady_state_overhead(job)
        return self.move_delay(job, old)

    @abstractmethod
    def move_delay(self, job: Job, old: Allocation) -> float:
        """Seconds the job is paused when it leaves ``old`` for any new gang."""

    @abstractmethod
    def steady_state_overhead(self, job: Job) -> float:
        """Seconds per round spent checkpointing when the allocation is kept."""


@dataclass(frozen=True, slots=True)
class NoOverheadCheckpoint(CheckpointModel):
    """Free preemption; isolates scheduling quality in ablations."""

    def move_delay(self, job: Job, old: Allocation) -> float:
        return 0.0

    def steady_state_overhead(self, job: Job) -> float:
        return 0.0


@dataclass(frozen=True, slots=True)
class FixedDelayCheckpoint(CheckpointModel):
    """The paper's simulation model: a flat delay per new allocation.

    "The overhead of checkpoint-restarts is simulated by enforcing a
    10-second delay for each job that has received a new allocation."
    """

    delay_s: float = 10.0

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError("delay must be non-negative")

    def move_delay(self, job: Job, old: Allocation) -> float:
        return self.delay_s

    def steady_state_overhead(self, job: Job) -> float:
        return 0.0


@dataclass(frozen=True, slots=True)
class ModelAwareCheckpoint(CheckpointModel):
    """Checkpoint-size-aware overhead (the Table IV prototype model).

    On reallocation the job pays save + load of its checkpoint over the
    storage device, plus the model's restart warm-up.  Without
    reallocation it pays only the periodic save.

    ``write_mib_s`` / ``read_mib_s`` default to the paper's AWS gp2 SSD
    figure (max 1000 MiB/s read and write).
    """

    write_mib_s: float = 1000.0
    read_mib_s: float = 1000.0

    def __post_init__(self) -> None:
        if self.write_mib_s <= 0 or self.read_mib_s <= 0:
            raise ValueError("storage bandwidths must be positive")

    def _save_seconds(self, job: Job) -> float:
        return job.model.checkpoint_bytes / (self.write_mib_s * 1024**2)

    def _load_seconds(self, job: Job) -> float:
        return job.model.checkpoint_bytes / (self.read_mib_s * 1024**2)

    def move_delay(self, job: Job, old: Allocation) -> float:
        save = self._save_seconds(job) if old else 0.0
        return save + self._load_seconds(job) + job.model.restart_warmup_s

    def steady_state_overhead(self, job: Job) -> float:
        return self._save_seconds(job)
