"""Job utility functions ``U_j(·)``.

The paper's framework maximizes ``Σ_j U_j(f_j − a_j)`` for a pluggable,
non-negative utility.  The evaluation instantiates it with **effective
throughput** — "the average number of iterations completed per second
over the job's lifetime ... E_j N_j divided by j's completion time" —
aiming at minimizing average JCT.  Alternative objectives (Sec. III-A
"Expressing other scheduling policies") are expressed by swapping the
utility: makespan minimization and finish-time fairness are built in.

Two evaluation entry points:

* :meth:`Utility.value` — the paper's pure form ``U_j(jct)`` over the
  immutable job spec;
* :meth:`Utility.value_for` — the online form the scheduler actually
  calls, which additionally sees the job's runtime state (progress, age).
  The default delegates to :meth:`value`.  Every shipped utility
  overrides it: the throughput utilities with :meth:`value`'s own
  expression, so a call costs one Python frame instead of two; the
  makespan and fairness utilities because "how much this job matters
  right now" depends on remaining work and accumulated slowdown.

Within one job, a utility must be non-increasing in the candidate's
estimated JCT (so the payoff comparison prefers faster placements);
across jobs it is free to weight however the objective demands.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.workload.job import Job
from repro.workload.throughput import ThroughputMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.progress import JobRuntime

__all__ = [
    "Utility",
    "EffectiveThroughputUtility",
    "NormalizedThroughputUtility",
    "MakespanUtility",
    "FinishTimeFairnessUtility",
]


class Utility(ABC):
    """Interface: the value of completing ``job`` with the given JCT."""

    @abstractmethod
    def value(self, job: Job, jct: float) -> float:
        """``U_j(jct)``; non-negative, non-increasing in ``jct`` per job."""

    def value_for(self, rt: "JobRuntime", jct: float, now: float) -> float:
        """Online form with runtime state; defaults to :meth:`value`.

        Every shipped utility overrides it.  The throughput utilities
        repeat :meth:`value`'s expression, so their online form is the
        pure one bit for bit (``tests/core/test_utility.py`` checks this
        wherever a shipped utility's online form is the pure one).

        For fixed ``rt`` and ``now`` it must be non-negative and
        non-increasing in ``jct`` *as computed in floats*: the exact DP
        bounds each job's payoff by its value at the smallest JCT any
        gang can reach, and that bound is only safe under this property
        (``tests/core/test_utility.py`` checks it for every shipped
        utility).
        """
        return self.value(rt.job, jct)

    def __call__(self, job: Job, jct: float) -> float:
        if jct <= 0:
            raise ValueError(f"jct must be positive, got {jct}")
        v = self.value(job, jct)
        if v < 0:
            raise ValueError(f"{type(self).__name__} returned negative utility {v}")
        return v


@dataclass(frozen=True, slots=True)
class EffectiveThroughputUtility(Utility):
    """The paper's stated form: ``U_j = E_j N_j / jct`` (iterations/second).

    Caveat: raw iteration counts are incomparable across models (a
    ResNet-18 iteration is ~8× cheaper than a ResNet-50 one), so with a
    mixed model zoo this utility ranks jobs by their model's device speed
    rather than by any scheduling-relevant quantity.  The reproduction's
    default is :class:`NormalizedThroughputUtility`; this raw form is kept
    for the utility-ablation benchmark.

    ``weight`` lets callers express per-job priorities without changing
    the shape.
    """

    weight: float = 1.0

    def value(self, job: Job, jct: float) -> float:
        return self.weight * job.total_iterations / jct

    def value_for(self, rt: "JobRuntime", jct: float, now: float) -> float:
        return self.weight * rt.job.total_iterations / jct


@dataclass(frozen=True, slots=True)
class NormalizedThroughputUtility(Utility):
    """Work-normalized effective throughput — the reproduction's default.

    Effective throughput divided by the job's per-worker work:
    ``U_j = (E_j N_j / jct) / (E_j N_j / W_j) = W_j / jct`` — the job's
    gang size per second of completion time, a dimensionless "fraction of
    ideal progress" that is comparable across models.  Its payoff
    *density* (utility per requested worker) is ``1/jct``: under
    contention the dual subroutine admits the jobs with the smallest
    estimated completion time first — the shortest-remaining-first
    discipline that minimizes average JCT, which is exactly what the
    paper says this utility is "aiming at".

    ``weight`` scales all values uniformly (cancels against the price
    calibration; exposed for custom per-job priority schemes).
    """

    weight: float = 1.0

    def value(self, job: Job, jct: float) -> float:
        return self.weight * job.num_workers / jct

    def value_for(self, rt: "JobRuntime", jct: float, now: float) -> float:
        return self.weight * rt.job.num_workers / jct


@dataclass(frozen=True)
class MakespanUtility(Utility):
    """Expresses ``min max_j f_j``.

    Classic makespan scheduling starts the *longest* remaining work
    first (LPT) so no giant job is left to run alone at the end.  The
    utility therefore weights each job by its remaining ideal runtime
    ``t_rem = remaining_iters / (W_j · max_r X_j^r)``:

        ``U_j = scale · W_j · t_rem² / jct``

    Per job it decays with the candidate's estimated JCT (fast placements
    win); across jobs the payoff density ``∝ t_rem²/jct ≈ t_rem`` ranks
    longest-remaining first.
    """

    matrix: ThroughputMatrix
    scale: float = 1.0

    def _t_ideal(self, job: Job, remaining_iters: float) -> float:
        rate = self.matrix.max_rate(job.model.name)
        return max(remaining_iters, 1.0) / (job.num_workers * rate)

    def value(self, job: Job, jct: float) -> float:
        t = self._t_ideal(job, job.total_iterations)
        return self.scale * job.num_workers * t * t / jct

    def value_for(self, rt: "JobRuntime", jct: float, now: float) -> float:
        t = self._t_ideal(rt.job, rt.remaining_iterations)
        return self.scale * rt.job.num_workers * t * t / jct


@dataclass(frozen=True)
class FinishTimeFairnessUtility(Utility):
    """Expresses Themis-style finish-time fairness.

    FTF ``ρ_j = jct / t_j^isolated`` compares the shared-cluster JCT
    against the job's finish time on a ``1/n`` cluster share.  Minimizing
    ``max_j ρ_j`` means always helping the currently most-drifted job, so
    the online utility weights by the job's *projected drift* at its best
    remaining speed — a starved job's weight grows every round it waits:

        ``U_j = scale · W_j · ρ_now · (t_iso / jct)``

    where ``ρ_now = (age + t_rem_ideal) / t_iso``.  Per job it remains
    decreasing in ``jct`` (fast placements win); across jobs the payoff
    density tracks drift, yielding max-min behaviour on ρ.

    ``isolated_share`` approximates the 1/n share's size.
    """

    matrix: ThroughputMatrix
    isolated_share: float = 0.1
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.isolated_share <= 1:
            raise ValueError("isolated_share must be in (0, 1]")

    def isolated_duration(self, job: Job) -> float:
        """Estimated runtime on an isolated 1/n slice of the cluster.

        The slice is assumed to grant ``max(1, W_j × share)`` workers of
        the job's best type; data-parallel scaling is linear in the
        paper's progress model.
        """
        workers = max(1.0, job.num_workers * self.isolated_share)
        rate = self.matrix.max_rate(job.model.name)
        return job.total_iterations / (workers * rate)

    def value(self, job: Job, jct: float) -> float:
        t_iso = max(self.isolated_duration(job), 1e-9)
        return self.scale * job.num_workers * t_iso / jct

    def value_for(self, rt: "JobRuntime", jct: float, now: float) -> float:
        job = rt.job
        t_iso = max(self.isolated_duration(job), 1e-9)
        rate = self.matrix.max_rate(job.model.name)
        t_rem_ideal = rt.remaining_iterations / (job.num_workers * rate)
        age = max(now - job.arrival_time, 0.0)
        rho_now = max((age + t_rem_ideal) / t_iso, 1e-9)
        return self.scale * job.num_workers * rho_now * t_iso / jct
