"""Tiresias (NSDI'19) — discretized two-queue least-attained-service.

The paper's configuration: "Tiresias is configured with two priority
queues and its PromoteKnob disabled".  Jobs start in the high-priority
queue; once a job's *attained service* (GPU-seconds received) crosses the
queue threshold it is demoted to the low-priority queue for the rest of
its life (no promotion back — the disabled knob).  Within a queue jobs
are served FIFO by arrival.  Scheduling is preemptive and round-based.

Like Gavel, Tiresias places each gang on a single device type (the paper:
"Tiresias also suffers from the same limitation as Gavel" — heterogeneous
spare GPUs stay idle even when their total count would satisfy a queued
job) but, being heterogeneity-blind, it picks the type by availability
rather than by measured speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.baselines.packing import pack_gang_single_type
from repro.cluster.allocation import Allocation
from repro.sim.interface import Scheduler, SchedulerContext

__all__ = ["TiresiasConfig", "TiresiasScheduler"]


@dataclass(frozen=True, slots=True)
class TiresiasConfig:
    """Tiresias knobs.

    ``queue_threshold_gpu_s`` is the attained-service boundary between
    the two discretized queues (the paper's setup uses coarse GPU-time
    thresholds; one GPU-hour separates the short-job queue from the
    rest of our S/M/L/XL mix).
    """

    queue_threshold_gpu_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.queue_threshold_gpu_s <= 0:
            raise ValueError("queue_threshold_gpu_s must be positive")


class TiresiasScheduler(Scheduler):
    """Two-queue discretized LAS, PromoteKnob disabled."""

    round_based = True
    reacts_to_events = False

    def __init__(self, config: Optional[TiresiasConfig] = None):
        self.config = config or TiresiasConfig()
        self._demoted: set[int] = set()
        self.last_round_stats: dict[str, int] = {}
        """Per-round counters (demotions, queue depths, admissions) the
        engine aggregates into ``SimulationResult.hotpath_stats`` and the
        metrics registry — the baseline's side of the uniform
        instrumentation surface Hadar's round context publishes."""

    @property
    def name(self) -> str:
        return "tiresias"

    def reset(self) -> None:
        self._demoted.clear()
        self.last_round_stats = {}

    # ---------------------------------------------------- engine snapshots --
    def state_dict(self) -> dict:
        """The one-way demoted set (``last_round_stats`` is a per-round
        transient, waived from snapshots)."""
        return {"demoted": sorted(self._demoted)}

    def load_state_dict(self, state: dict) -> None:
        self._demoted = {int(job_id) for job_id in state["demoted"]}

    @property
    def demoted_jobs(self) -> frozenset[int]:
        """Jobs currently in the low-priority queue (introspection surface
        for :class:`~repro.analysis.sanitizer.InvariantSanitizer`)."""
        return frozenset(self._demoted)

    @property
    def queue_threshold(self) -> float:
        """The attained-service boundary between the two queues."""
        return self.config.queue_threshold_gpu_s

    # ------------------------------------------------------------------ API --
    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        active = list(ctx.active)
        if not active:
            self.last_round_stats = {}
            return {}

        # Demotion is one-way: once over the threshold, always low queue.
        demotions = 0
        for rt in active:
            if (
                rt.attained_service >= self.config.queue_threshold_gpu_s
                and rt.job_id not in self._demoted
            ):
                self._demoted.add(rt.job_id)
                demotions += 1

        # Queue 0 first; FIFO by arrival within a queue.  ``ctx.active`` is
        # already in (arrival, job id) order and the sort is stable.
        demoted = self._demoted
        active.sort(key=lambda rt: rt.job_id in demoted)

        # One pass over the queue against per-type free counts kept for
        # the round.  Tiresias predates heterogeneous scheduling: like
        # Gavel it places a gang on a single device type ("Tiresias also
        # suffers from the same limitation", Sec. IV-A-2), but it picks
        # the type by *availability*, not speed (heterogeneity-blind):
        # the usable type with the most free devices, the first in name
        # order on a tie.  A type with ``W`` free devices always packs.
        state = ctx.fresh_state()
        free = state.free_by_type()
        types = ctx.cluster.gpu_types
        usable: dict[str, tuple[str, ...]] = {}
        target: dict[int, Allocation] = {}
        most_free = max(free.values(), default=0)
        for rt in active:
            workers = rt.job.num_workers
            if most_free < workers:
                continue
            model = rt.job.model.name
            fits = usable.get(model)
            if fits is None:
                fits = usable[model] = tuple(
                    t for t in types if ctx.matrix.supports(model, t)
                )
            best: str | None = None
            best_free = workers - 1
            for type_name in fits:
                count = free.get(type_name, 0)
                if count > best_free:
                    best, best_free = type_name, count
            if best is None:
                continue
            gang = pack_gang_single_type(state, workers, best)
            state.allocate(gang)
            free[best] -= workers
            most_free = max(free.values())
            target[rt.job_id] = gang
        self.last_round_stats = {
            "jobs_considered": len(active),
            "jobs_admitted": len(target),
            "demotions": demotions,
        }
        return target
