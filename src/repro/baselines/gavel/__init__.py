"""Gavel (OSDI'20) — job-level heterogeneity-aware baseline.

* :mod:`repro.baselines.gavel.policy` — the allocation matrix over
  normalized effective throughputs, max-min (LAS) or max-sum;
* :mod:`repro.baselines.gavel.solver` — the one LP behind it, built from
  its nonzeros and solved exactly with SciPy's HiGHS;
* :mod:`repro.baselines.gavel.scheduler` — the round-based realization:
  ``priority = Y[j,r] / rounds_received[j,r]`` with homogeneous-type
  gangs.
"""

from repro.baselines.gavel.policy import max_min_allocation_matrix
from repro.baselines.gavel.scheduler import GavelConfig, GavelScheduler
from repro.baselines.gavel.solver import solve_allocation_lp

__all__ = [
    "GavelConfig",
    "GavelScheduler",
    "max_min_allocation_matrix",
    "solve_allocation_lp",
]
