"""Gavel's allocation LP, built sparse and solved with SciPy's HiGHS.

The max-min policy (Gavel §4.1, LAS):

    max   m
    s.t.  Σ_r Y[j,r] · s[j,r] ≥ m          ∀j   (normalized throughput)
          Σ_r Y[j,r]          ≤ 1          ∀j   (time-fraction budget)
          Σ_j Y[j,r] · W_j    ≤ C_r        ∀r   (type capacity)
          0 ≤ Y[j,r] ≤ 1

with ``s[j,r] = X[j,r] / max_r X[j,r]`` the job-normalized speed.  The
max-sum policy (Gavel's utilitarian family) maximizes ``Σ Y·s`` under
the budget and capacity rows alone.

:func:`solve_allocation_lp` builds both from their nonzeros only.  The
constraint matrix is (2J + R) × (J·R + 1), but a row holds at most
R + 1 or J entries, so a dense build grows with J² while this one grows
with J·R.
"""

from __future__ import annotations

import numpy as np

__all__ = ["POLICIES", "solve_allocation_lp"]

POLICIES = ("max-min", "max-sum")


def _validate(speeds: np.ndarray, workers: np.ndarray, capacity: np.ndarray) -> None:
    if speeds.ndim != 2:
        raise ValueError("speeds must be a 2-D (jobs × types) array")
    num_jobs, num_types = speeds.shape
    if workers.shape != (num_jobs,):
        raise ValueError("workers must have one entry per job")
    if capacity.shape != (num_types,):
        raise ValueError("capacity must have one entry per type")
    if np.any(speeds < 0):
        raise ValueError("speeds must be non-negative")
    if np.any(workers <= 0):
        raise ValueError("workers must be positive")
    if np.any(capacity < 0):
        raise ValueError("capacity must be non-negative")
    if np.any(speeds.max(axis=1) <= 0):
        bad = np.nonzero(speeds.max(axis=1) <= 0)[0]
        raise ValueError(f"jobs {bad.tolist()} run on no device type")


def solve_allocation_lp(
    speeds: np.ndarray,
    workers: np.ndarray,
    capacity: np.ndarray,
    *,
    policy: str = "max-min",
) -> np.ndarray:
    """The optimal ``jobs × types`` time-fraction matrix ``Y`` of ``policy``.

    Rows go in the order throughput (max-min only), budget, capacity;
    the variables are ``Y`` flattened row-major, then ``m`` (max-min
    only).  Zero speeds store no entry, as a dense-to-sparse conversion
    would drop them, so HiGHS sees exactly the matrix of the formulation.
    """
    # SciPy loads here, not at import time: importing repro stays cheap.
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    speeds = np.asarray(speeds, dtype=float)
    workers = np.asarray(workers, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    _validate(speeds, workers, capacity)
    num_jobs, num_types = speeds.shape
    n_y = num_jobs * num_types
    cell = np.arange(n_y)
    job_of = cell // num_types
    max_min = policy == "max-min"
    shared = num_jobs if max_min else 0  # first budget row

    # Σ_r Y[j,r] ≤ 1 per job, then Σ_j W_j Y[j,r] ≤ C_r per type.
    rows = [shared + job_of, shared + num_jobs + cell % num_types]
    cols = [cell, cell]
    data = [np.ones(n_y), np.repeat(workers, num_types)]
    rhs = [np.ones(num_jobs), capacity]
    if max_min:
        # m − Σ_r Y[j,r] s[j,r] ≤ 0 per job; m is the last variable.
        flat = speeds.ravel()
        nonzero = np.flatnonzero(flat)
        rows += [job_of[nonzero], np.arange(num_jobs)]
        cols += [nonzero, np.full(num_jobs, n_y)]
        data += [-flat[nonzero], np.ones(num_jobs)]
        rhs.insert(0, np.zeros(num_jobs))
        c = np.zeros(n_y + 1)
        c[-1] = -1.0
    else:
        c = -speeds.ravel()
    bounds = np.zeros((c.size, 2))
    bounds[:n_y, 1] = 1.0
    bounds[n_y:, 1] = np.inf
    a_ub = coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(shared + num_jobs + num_types, c.size),
    )
    result = linprog(
        c, A_ub=a_ub, b_ub=np.concatenate(rhs), bounds=bounds, method="highs"
    )
    if not result.success:  # pragma: no cover - HiGHS is reliable on this LP
        raise RuntimeError(f"Gavel {policy} LP failed: {result.message}")
    # HiGHS honours bounds only to its primal feasibility tolerance
    # (~1e-7); snap the solution back into the declared [0, 1] domain.
    return np.clip(result.x[:n_y], 0.0, 1.0).reshape(num_jobs, num_types)
