"""Test-side references for Gavel's allocation LP.

* :func:`dense_max_min_lp` and :func:`dense_max_sum_lp` build the
  constraint matrix densely, one row at a time, straight from the
  formulation.  They are the specification that
  :func:`repro.baselines.gavel.solver.solve_allocation_lp` must match
  bit for bit: the shipped builder stores only the nonzeros, and HiGHS
  receives the same matrix either way.
* :func:`water_filling_allocation` is an iterative progressive-filling
  approximation of the max-min LP with no LP machinery at all, an
  independent cross-check of the exact solution's objective.
* :func:`min_scaled_throughput` is the max-min objective of a matrix.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gavel.solver import _validate


def min_scaled_throughput(
    allocation: np.ndarray, speeds: np.ndarray
) -> float:
    """The max-min objective value of an allocation matrix."""
    return float(np.min(np.sum(allocation * speeds, axis=1)))


def dense_max_min_lp(
    speeds: np.ndarray,
    workers: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """Max-min allocation via ``scipy.optimize.linprog`` on a dense ``A_ub``."""
    from scipy.optimize import linprog

    speeds = np.asarray(speeds, dtype=float)
    workers = np.asarray(workers, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    _validate(speeds, workers, capacity)
    num_jobs, num_types = speeds.shape
    n_y = num_jobs * num_types

    # Variables: [Y.flatten(), m]; objective: maximize m.
    c = np.zeros(n_y + 1)
    c[-1] = -1.0

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    # m − Σ_r Y[j,r] s[j,r] ≤ 0  for every job.
    for j in range(num_jobs):
        row = np.zeros(n_y + 1)
        row[j * num_types : (j + 1) * num_types] = -speeds[j]
        row[-1] = 1.0
        rows.append(row)
        rhs.append(0.0)

    # Σ_r Y[j,r] ≤ 1 per job.
    for j in range(num_jobs):
        row = np.zeros(n_y + 1)
        row[j * num_types : (j + 1) * num_types] = 1.0
        rows.append(row)
        rhs.append(1.0)

    # Σ_j W_j Y[j,r] ≤ C_r per type.
    for r in range(num_types):
        row = np.zeros(n_y + 1)
        row[r::num_types][:num_jobs] = workers
        rows.append(row)
        rhs.append(float(capacity[r]))

    bounds = [(0.0, 1.0)] * n_y + [(0.0, None)]
    result = linprog(
        c,
        A_ub=np.vstack(rows),
        b_ub=np.asarray(rhs),
        bounds=bounds,
        method="highs",
    )
    assert result.success, result.message
    return np.clip(result.x[:n_y], 0.0, 1.0).reshape(num_jobs, num_types)


def dense_max_sum_lp(
    speeds: np.ndarray,
    workers: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """Max-sum allocation via ``scipy.optimize.linprog`` on a dense ``A_ub``:
    the budget and capacity rows of the max-min LP, objective Σ Y·s."""
    from scipy.optimize import linprog

    speeds = np.asarray(speeds, dtype=float)
    workers = np.asarray(workers, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    _validate(speeds, workers, capacity)
    num_jobs, num_types = speeds.shape
    n_y = num_jobs * num_types

    c = -speeds.flatten()  # maximize Σ Y·s

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for j in range(num_jobs):
        row = np.zeros(n_y)
        row[j * num_types : (j + 1) * num_types] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for r in range(num_types):
        row = np.zeros(n_y)
        row[r::num_types][:num_jobs] = workers
        rows.append(row)
        rhs.append(float(capacity[r]))

    result = linprog(
        c,
        A_ub=np.vstack(rows),
        b_ub=np.asarray(rhs),
        bounds=[(0.0, 1.0)] * n_y,
        method="highs",
    )
    assert result.success, result.message
    return np.clip(result.x, 0.0, 1.0).reshape(num_jobs, num_types)


def water_filling_allocation(
    speeds: np.ndarray,
    workers: np.ndarray,
    capacity: np.ndarray,
    *,
    step: float = 0.01,
) -> np.ndarray:
    """Iterative progressive-filling approximation of the max-min LP.

    Each iteration grants the currently most-deprived job (smallest
    accumulated normalized throughput) a ``step``-sized slice of one
    device type that still has both capacity and job time-budget left.
    Types are tried in order of the job's **comparative advantage**
    ``s[j,r] / mean_j' s[j',r]`` rather than raw speed: a job that is
    merely *indifferent* between types leaves the contested fast type to
    the jobs that genuinely need it (the AlloX/Gavel matching intuition).
    Converges close to the LP optimum on the instances the cross-check
    tests exercise.
    """
    speeds = np.asarray(speeds, dtype=float)
    workers = np.asarray(workers, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    _validate(speeds, workers, capacity)
    if not 0 < step <= 1:
        raise ValueError("step must be in (0, 1]")

    num_jobs, num_types = speeds.shape
    y = np.zeros((num_jobs, num_types))
    budget = np.ones(num_jobs)  # remaining Σ_r Y[j,r] head-room
    cap = capacity.astype(float).copy()  # remaining worker-capacity per type

    # Type preference per job: comparative advantage first (deterministic
    # tie-break via stable sort).
    column_mean = speeds.mean(axis=0)
    advantage = speeds / np.where(column_mean > 0, column_mean, 1.0)
    pref = np.argsort(-advantage, axis=1, kind="stable")

    max_iters = int(np.ceil(num_jobs / step)) * num_types + num_jobs * num_types
    for _ in range(max_iters):
        scaled = np.sum(y * speeds, axis=1)
        # Most-deprived job that still has budget and a usable type with capacity.
        order = np.argsort(scaled, kind="stable")
        progressed = False
        for j in order:
            if budget[j] <= 1e-12:
                continue
            for r in pref[j]:
                if speeds[j, r] <= 0 or cap[r] <= 1e-12:
                    continue
                delta = min(step, budget[j], cap[r] / workers[j])
                if delta <= 1e-12:
                    continue
                y[j, r] += delta
                budget[j] -= delta
                cap[r] -= delta * workers[j]
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            break
    return y
