"""Gavel's heterogeneity-aware allocation-matrix policy.

Translates a set of active jobs plus cluster capacities into the
allocation LP of :mod:`repro.baselines.gavel.solver` and back.  The returned
:class:`AllocationMatrix` maps each (job, GPU type) to the optimal
fraction of time the job should spend training on that type — Gavel's
``Y`` matrix, the quantity its round-based scheduler chases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.gavel.solver import POLICIES, solve_allocation_lp
from repro.sim.progress import JobRuntime
from repro.workload.throughput import ThroughputMatrix

__all__ = ["AllocationMatrix", "max_min_allocation_matrix"]


@dataclass(frozen=True)
class AllocationMatrix:
    """The optimal time-fraction matrix ``Y`` for one set of active jobs."""

    job_ids: tuple[int, ...]
    types: tuple[str, ...]
    values: np.ndarray  # len(job_ids) × len(types)

    def fraction(self, job_id: int, type_name: str) -> float:
        try:
            j = self.job_ids.index(job_id)
            r = self.types.index(type_name)
        except ValueError:
            return 0.0
        return float(self.values[j, r])

    def row(self, job_id: int) -> dict[str, float]:
        j = self.job_ids.index(job_id)
        return {t: float(self.values[j, r]) for r, t in enumerate(self.types)}


def max_min_allocation_matrix(
    jobs: Sequence[JobRuntime],
    types: Sequence[str],
    capacity: Mapping[str, int],
    matrix: ThroughputMatrix,
    *,
    policy: str = "max-min",
) -> AllocationMatrix:
    """Solve Gavel's allocation policy for ``jobs``.

    ``policy`` is ``"max-min"`` (LAS, the paper's comparison
    configuration) or ``"max-sum"`` (utilitarian total normalized
    throughput).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    types = tuple(types)
    job_ids = tuple(rt.job_id for rt in jobs)
    if not job_ids:
        return AllocationMatrix(job_ids=(), types=types, values=np.zeros((0, len(types))))

    raw = np.array(
        [[matrix.rate(rt.job.model.name, t) for t in types] for rt in jobs],
        dtype=float,
    )
    # Gang feasibility: a type with fewer devices than W_j can never host
    # the job's (single-type) gang, so its share must be zero — otherwise
    # the LP promises time the round-based realization can never deliver.
    for i, rt in enumerate(jobs):
        for r, t in enumerate(types):
            if capacity.get(t, 0) < rt.job.num_workers:
                raw[i, r] = 0.0
    best = raw.max(axis=1, keepdims=True)
    if np.any(best <= 0):
        bad = [job_ids[int(i)] for i in np.nonzero(best[:, 0] <= 0)[0]]
        raise ValueError(
            f"jobs {bad} cannot be placed on any single GPU type in {types} "
            f"(model unsupported or gang larger than every type's capacity)"
        )
    speeds = raw / best
    workers = np.array([rt.job.num_workers for rt in jobs], dtype=float)
    caps = np.array([capacity.get(t, 0) for t in types], dtype=float)

    values = solve_allocation_lp(speeds, workers, caps, policy=policy)
    return AllocationMatrix(job_ids=job_ids, types=types, values=values)
