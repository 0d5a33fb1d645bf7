"""Hadar — the paper's contribution.

The online primal-dual scheduler of Sec. III:

* :mod:`repro.core.utility` — job utility functions ``U_j(·)`` (effective
  throughput by default; makespan- and fairness-oriented variants express
  the paper's "other scheduling policies");
* :mod:`repro.core.pricing` — the dual resource prices ``k_h^r(t)`` of
  Eq. (5) with the ``U_max^r`` / ``U_min^r`` calibration of Eqs. (6)-(8);
* :mod:`repro.core.find_alloc` — the ``FIND_ALLOC`` subroutine: candidate
  consolidated and cross-server task-level allocations, costed against the
  price book, admitting a job only at positive payoff;
* :mod:`repro.core.dp` — the ``DP_allocation`` dual subroutine
  (Algorithm 2): exact memoized include/exclude recursion for small
  queues, payoff-density greedy beyond a threshold;
* :mod:`repro.core.round_context` — the round-scoped allocation engine:
  per-round frozen lookup tables and the price, candidate-generation,
  gang-physics and candidate memos (see ``docs/performance.md``);
* :mod:`repro.core.scheduler` — :class:`HadarScheduler`, the online
  Algorithm 1 loop;
* :mod:`repro.core.policies` — one-line constructors binding Hadar to the
  paper's alternative objectives.
"""

from repro.core.dp import DPAllocator, DPConfig
from repro.core.estimator import ProfilingScheduler, ThroughputEstimator
from repro.core.find_alloc import AllocationCandidate, cached_find_alloc, find_alloc
from repro.core.pricing import PriceBook, PricingConfig
from repro.core.round_context import RoundContext, RoundStats
from repro.core.scheduler import HadarConfig, HadarScheduler
from repro.core.policies import hadar_for_objective
from repro.core.utility import (
    EffectiveThroughputUtility,
    NormalizedThroughputUtility,
    FinishTimeFairnessUtility,
    MakespanUtility,
    Utility,
)

__all__ = [
    "AllocationCandidate",
    "DPAllocator",
    "DPConfig",
    "EffectiveThroughputUtility",
    "FinishTimeFairnessUtility",
    "HadarConfig",
    "HadarScheduler",
    "MakespanUtility",
    "NormalizedThroughputUtility",
    "PriceBook",
    "PricingConfig",
    "ProfilingScheduler",
    "RoundContext",
    "RoundStats",
    "ThroughputEstimator",
    "Utility",
    "cached_find_alloc",
    "find_alloc",
    "hadar_for_objective",
]
