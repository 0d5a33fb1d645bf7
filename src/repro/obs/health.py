"""Cluster-health metric families: fragmentation, starvation, utilization.

ROADMAP's multi-tenant item needs scheduler-independent visibility into
*how well* the cluster is being packed, not just how fast decisions are
made — grounded in Synergy's multi-tenant resource-sensitive scheduling
(arXiv 2110.06073) and the fragmentation/starvation objectives of arXiv
2512.10980.  The :class:`ClusterHealthPhase` is a pure observer the
engine builds whenever a :class:`~repro.obs.registry.MetricsRegistry` is
attached.  Two families record events, once per scheduling decision
(:meth:`~ClusterHealthPhase.after_decision`):

``repro_queue_wait_seconds{scheduler=...}``
    Histogram over completed waits: every time a queued job is placed,
    the seconds it just spent allocation-less are observed (wide
    minutes-to-days buckets, see :data:`QUEUE_WAIT_BUCKETS_S`).
``repro_allocation_churn_total{scheduler=...,kind=...}``
    Preemption/migration/placement churn, one counter per decision kind
    (the multi-objective literature's "reallocation tax").

The gauges describe the cluster as it is, so they are derived when the
registry is read (:meth:`~ClusterHealthPhase.collect`, called from the
engine's collector):

``repro_gpu_fragmentation_ratio{gpu_type=...}``
    How scattered the free devices of a type are across servers:
    ``1 − (largest single-node free block) / (total free)``.  0 means
    every free device of the type sits on one node (a W-GPU gang can
    consolidate); values near 1 mean the free capacity is confetti that
    only single-GPU jobs can use.  ``gpu_type="all"`` is the free-count
    weighted mean across types.
``repro_gpu_utilization_ratio{gpu_type=...}``
    Allocated fraction of each type's *surviving* capacity (fault
    injection shrinks the denominator with the failed devices).
``repro_queue_starvation_seconds{scheduler=...}``
    Age of the longest-waiting queued job: simulated seconds since it
    last lost (or never got) an allocation.  The companion
    ``repro_queue_starved_jobs`` gauge counts queued jobs older than
    :data:`STARVATION_AGE_S`.

Everything is derived from state the engine already holds — the cluster
free vector, the runtimes table (its live set, for the gauges), and the
:class:`~repro.sim.phases.SchedulerPhase`'s captured diff — so the phase
holds no mutable state of its own beyond the two metric handles it takes
at construction; :meth:`MetricsRegistry.load_state_dict` restores those
objects in place.  ``tests/core/test_chaos_snapshot.py`` checks that a
restored run publishes the same families as the uninterrupted one, and
``tests/core/test_golden_parity_obs.py`` fails if the phase writes the
cluster state or moves a decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.sim.progress import JobRuntime, JobState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.state import ClusterState
    from repro.obs.registry import MetricsRegistry
    from repro.sim.phases import SchedulerPhase

__all__ = [
    "ClusterHealthPhase",
    "QUEUE_WAIT_BUCKETS_S",
    "STARVATION_AGE_S",
    "fragmentation_by_type",
    "queued_since",
]

QUEUE_WAIT_BUCKETS_S = (
    60.0,
    300.0,
    900.0,
    1800.0,
    3600.0,
    2 * 3600.0,
    4 * 3600.0,
    8 * 3600.0,
    24 * 3600.0,
)
"""Queue-wait histogram bounds: one minute to one day (simulated time).
Waits are hours-scale, so the registry's default sub-second latency
buckets would collapse every observation into +Inf."""

STARVATION_AGE_S = 4 * 3600.0
"""A queued job older than this counts as starved in
``repro_queue_starved_jobs`` — the 4-hour mark arXiv 2512.10980 uses for
its starvation-rate curves."""


def fragmentation_by_type(
    free_slots: Iterable[tuple[tuple[int, str], int]],
) -> dict[str, float]:
    """Per-type scatter of free devices, plus the ``"all"`` aggregate.

    ``1 − max_node_free / total_free`` per type (0.0 when the type has no
    free devices, or they all sit on one node); the aggregate is the
    free-count weighted mean, so a type with 40 scattered free GPUs moves
    the overall score more than one with 2.
    """
    total: dict[str, int] = {}
    largest: dict[str, int] = {}
    for (_, type_name), count in free_slots:
        total[type_name] = total.get(type_name, 0) + count
        if count > largest.get(type_name, 0):
            largest[type_name] = count
    scores: dict[str, float] = {}
    weighted = 0.0
    free_sum = 0
    for type_name, free in total.items():
        score = 1.0 - largest[type_name] / free if free > 0 else 0.0
        scores[type_name] = score
        weighted += free * score
        free_sum += free
    scores["all"] = weighted / free_sum if free_sum > 0 else 0.0
    return scores


def queued_since(rt: JobRuntime) -> float:
    """Simulated time at which a queued job last became allocation-less.

    Every path that takes a gang away records an empty allocation in
    ``rt.history`` (scheduler preemption, fault preemption, completion),
    so the newest empty entry *is* the start of the current wait; a job
    that never held devices has an empty history and waits since arrival.
    A queued job whose newest entry still shows a gang would mean an
    unrecorded preemption path; the wait is then dated from that entry, so
    the age is an underestimate, never an invention.
    """
    return rt.history[-1][0] if rt.history else rt.job.arrival_time


class ClusterHealthPhase:
    """Layer 4d: cluster-health families (observer, stateless).

    Constructed by the engine whenever a metrics registry is attached.
    :meth:`after_decision` records the decision's churn and completed
    queue waits; :meth:`collect` derives the gauges on each read of the
    registry.  Both run under ``registry.lock``, which the engine holds
    across each step, so a concurrent ``/metrics`` scrape sees either the
    whole step or none of it.
    """

    __slots__ = ("registry", "scheduler_label", "_wait_histogram", "_churn")

    def __init__(self, registry: "MetricsRegistry", scheduler_name: str):
        self.registry = registry
        self.scheduler_label = {"scheduler": scheduler_name}
        self._wait_histogram = registry.histogram(
            "repro_queue_wait_seconds",
            "Completed queue waits, observed when a queued job is placed",
            buckets=QUEUE_WAIT_BUCKETS_S,
        )
        self._churn = registry.counter(
            "repro_allocation_churn_total",
            "Scheduler-decision churn by kind (place/migrate/preempt)",
        )

    def after_decision(
        self,
        *,
        now: float,
        runtimes: Mapping[int, JobRuntime],
        scheduler_phase: "SchedulerPhase",
    ) -> None:
        """Record the decision's churn and the queue waits it ended."""
        labels = self.scheduler_label
        for job_id, old, new in scheduler_phase.last_changes:
            if new:
                kind = "migrate" if old else "place"
            else:
                kind = "preempt"
            self._churn.inc(labels={**labels, "kind": kind})
            if new and not old:
                # The placement already landed in rt.history; the wait that
                # just ended started at the entry *before* it.
                rt = runtimes[job_id]
                history = rt.history
                prior = history[:-1] if history else history
                if prior and not prior[-1][1]:
                    began = prior[-1][0]
                else:
                    began = rt.job.arrival_time
                self._wait_histogram.observe(
                    max(0.0, now - began), labels=labels
                )

    def collect(
        self,
        registry: "MetricsRegistry",
        *,
        now: float,
        live: Mapping[int, JobRuntime],
        state: "ClusterState",
    ) -> None:
        """Write the fragmentation, utilization and starvation gauges of
        the cluster as it is now into ``registry`` (``live`` is the
        ledger's set of queued and running jobs)."""
        fragmentation = registry.gauge(
            "repro_gpu_fragmentation_ratio",
            "Free-GPU scatter per type: 1 - largest single-node free block "
            "/ total free (gpu_type=all is the free-weighted mean)",
        )
        utilization = registry.gauge(
            "repro_gpu_utilization_ratio",
            "Allocated fraction of each GPU type's surviving capacity",
        )
        scores = fragmentation_by_type(state.free_slots())
        free = state.free_by_type()
        used_by_type = state.used_by_type()
        for type_name in sorted(set(used_by_type) | set(free) | set(scores)):
            # A fully-allocated type has no free slots to scatter: it scores 0.
            fragmentation.set(
                scores.get(type_name, 0.0), labels={"gpu_type": type_name}
            )
            if type_name == "all":
                continue
            used = used_by_type.get(type_name, 0)
            capacity = used + free.get(type_name, 0)
            if capacity > 0:
                utilization.set(used / capacity, labels={"gpu_type": type_name})

        oldest = 0.0
        starved = 0
        for rt in live.values():
            if rt.state is not JobState.QUEUED:
                continue
            age = now - queued_since(rt)
            if age > oldest:
                oldest = age
            if age > STARVATION_AGE_S:
                starved += 1
        labels = self.scheduler_label
        registry.gauge(
            "repro_queue_starvation_seconds",
            "Age of the longest-waiting queued job (simulated seconds "
            "since it last held an allocation)",
        ).set(oldest, labels=labels)
        registry.gauge(
            "repro_queue_starved_jobs",
            f"Queued jobs waiting longer than {STARVATION_AGE_S:.0f}s",
        ).set(float(starved), labels=labels)
