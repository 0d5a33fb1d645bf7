"""Online throughput estimation — the "throughput estimator" of Fig. 2.

The paper: "the throughput estimator in Hadar obtains performance
measurements for each runnable job on each available accelerator type
either from user input or by profiling during the first few rounds of
execution."  This module implements the profiling path:

* :class:`ThroughputEstimator` maintains per-(model, GPU-type) rate
  estimates, starting from an optimistic prior (so unexplored types get
  tried) and refined by exponentially-weighted observations;
* :class:`ProfilingScheduler` wraps *any* scheduler: before each
  decision it converts the progress its jobs made since the last
  decision into rate observations, and hands the wrapped scheduler a
  context whose throughput matrix is the current estimate instead of
  ground truth.

Observation model: a gang of ``W`` workers that advanced ``Δiters`` over
``Δt`` seconds of un-paused time ran at a per-worker bottleneck rate of
``Δiters / (Δt · W · penalty)``; the measurement is attributed to the
gang's *estimated-slowest* type (exact for homogeneous gangs, a standard
attribution heuristic for mixed ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.cluster.allocation import Allocation
from repro.sim.interface import Scheduler, SchedulerContext
from repro.sim.progress import JobRuntime
from repro.workload.throughput import ThroughputMatrix

__all__ = ["ThroughputEstimator", "ProfilingScheduler"]


@dataclass
class ThroughputEstimator:
    """EWMA estimates of per-worker iteration rates.

    Attributes
    ----------
    optimistic_rate:
        Prior estimate for unobserved (model, type) pairs.  Optimism is
        deliberate: an unexplored type looks attractive, gets scheduled,
        and is measured (the profiling rounds of the paper).
    smoothing:
        EWMA weight of a new observation (1.0 = trust the latest sample
        completely).
    min_observation_s:
        Ignore progress windows shorter than this (too noisy to use).
    """

    optimistic_rate: float = 10.0
    smoothing: float = 0.6
    min_observation_s: float = 30.0
    _estimates: dict[tuple[str, str], float] = field(default_factory=dict)
    _counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.optimistic_rate <= 0:
            raise ValueError("optimistic_rate must be positive")
        if not 0 < self.smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        if self.min_observation_s < 0:
            raise ValueError("min_observation_s must be non-negative")

    # -- queries ---------------------------------------------------------
    def rate(self, model: str, type_name: str) -> float:
        return self._estimates.get((model, type_name), self.optimistic_rate)

    def observations(self, model: str, type_name: str) -> int:
        return self._counts.get((model, type_name), 0)

    def matrix(self, models: list[str], types: list[str]) -> ThroughputMatrix:
        """The current estimates as a throughput matrix."""
        return ThroughputMatrix(
            {m: {t: self.rate(m, t) for t in types} for m in models}
        )

    # -- updates ----------------------------------------------------------
    def observe(self, model: str, type_name: str, measured_rate: float) -> None:
        """Fold one per-worker rate measurement into the estimate."""
        if measured_rate <= 0:
            return  # paused/failed window; nothing learned
        key = (model, type_name)
        old = self._estimates.get(key)
        if old is None:
            self._estimates[key] = measured_rate
        else:
            self._estimates[key] = (
                self.smoothing * measured_rate + (1 - self.smoothing) * old
            )
        self._counts[key] = self._counts.get(key, 0) + 1

    def observe_gang(
        self,
        rt: JobRuntime,
        allocation: Allocation,
        delta_iters: float,
        delta_seconds: float,
        comm_penalty: float = 1.0,
    ) -> None:
        """Attribute a gang's progress window to its bottleneck type."""
        if delta_seconds < self.min_observation_s or delta_iters <= 0:
            return
        workers = allocation.total_workers
        if workers == 0:
            return
        per_worker = delta_iters / (delta_seconds * workers * max(comm_penalty, 1e-9))
        model = rt.job.model.name
        bottleneck = min(
            sorted(allocation.gpu_types), key=lambda t: (self.rate(model, t), t)
        )
        self.observe(model, bottleneck, per_worker)

    def reset(self) -> None:
        self._estimates.clear()
        self._counts.clear()

    # -- engine snapshot support ----------------------------------------------
    def state_dict(self) -> dict:
        """The estimates and observation counts, insertion-ordered."""
        return {
            "estimates": [[m, t, v] for (m, t), v in self._estimates.items()],
            "counts": [[m, t, n] for (m, t), n in self._counts.items()],
        }

    def load_state_dict(self, state: dict) -> None:
        self._estimates = {
            (str(m), str(t)): float(v) for m, t, v in state["estimates"]
        }
        self._counts = {(str(m), str(t)): int(n) for m, t, n in state["counts"]}


class ProfilingScheduler(Scheduler):
    """Wrap a scheduler so it sees *profiled* throughputs, not ground truth.

    The wrapper measures each running job's progress between consecutive
    decisions, updates the estimator, and rewrites the context's matrix
    with the estimates.  Everything else (the decision logic, the
    engine's physics) is untouched — the engine still advances jobs at
    their true rates, which is exactly what makes the profiling loop
    converge.
    """

    def __init__(
        self,
        inner: Scheduler,
        estimator: Optional[ThroughputEstimator] = None,
    ):
        self.inner = inner
        self.estimator = estimator or ThroughputEstimator()
        self._last_seen: dict[int, tuple[float, float, Allocation]] = {}
        """job_id -> (time, iterations_done, allocation) at the last decision."""

    @property
    def name(self) -> str:
        return f"{self.inner.name}+profiling"

    @property
    def round_based(self) -> bool:  # type: ignore[override]
        return self.inner.round_based

    @property
    def reacts_to_events(self) -> bool:  # type: ignore[override]
        return self.inner.reacts_to_events

    def reset(self) -> None:
        self.inner.reset()
        self.estimator.reset()
        self._last_seen.clear()

    # ---------------------------------------------------- engine snapshots --
    def state_dict(self) -> dict:
        """The wrapped scheduler's state, the estimator's, and the
        progress each running job had at the last decision."""
        return {
            "inner": self.inner.state_dict(),
            "estimator": self.estimator.state_dict(),
            "last_seen": [
                [job_id, t, iters, [[n, ty, c] for (n, ty), c in gang.placements.items()]]
                for job_id, (t, iters, gang) in self._last_seen.items()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(state["inner"])
        self.estimator.load_state_dict(state["estimator"])
        self._last_seen = {
            int(job_id): (
                float(t),
                float(iters),
                Allocation.from_pairs((int(n), str(ty), int(c)) for n, ty, c in gang),
            )
            for job_id, t, iters, gang in state["last_seen"]
        }

    def schedule(self, ctx: SchedulerContext) -> Mapping[int, Allocation]:
        self._ingest_observations(ctx)
        estimated = self.estimator.matrix(
            models=sorted({rt.job.model.name for rt in ctx.active}),
            types=list(ctx.cluster.gpu_types),
        )
        # Only the matrix is estimated: the shadow keeps the fault masks,
        # so the inner scheduler plans on surviving capacity.
        target = self.inner.schedule(replace(ctx, matrix=estimated))
        # Remember what each job held so the next decision can attribute
        # the progress in between.
        self._last_seen = {
            rt.job_id: (ctx.now, rt.iterations_done, rt.allocation)
            for rt in ctx.running
        }
        return target

    # ---------------------------------------------------------------- internal --
    def _ingest_observations(self, ctx: SchedulerContext) -> None:
        for rt in ctx.running:
            seen = self._last_seen.get(rt.job_id)
            if seen is None:
                continue
            t0, iters0, alloc0 = seen
            if not alloc0 or rt.allocation != alloc0:
                continue  # moved mid-window; skip the tainted sample
            elapsed = ctx.now - t0
            # Subtract any pause that ate into this window.
            paused = max(0.0, min(rt.resume_time, ctx.now) - t0)
            active = elapsed - paused
            model = rt.job.model.name
            est_bottleneck = min(
                self.estimator.rate(model, t) for t in alloc0.gpu_types
            )
            penalty = ctx.cluster.comm.throughput_penalty(
                alloc0,
                rt.job.model.model_bytes,
                1.0 / max(est_bottleneck, 1e-9),
            )
            self.estimator.observe_gang(
                rt, alloc0, rt.iterations_done - iters0, active, penalty
            )
