"""Experiment scales and the standard scheduler lineup.

The paper's simulations use 480 jobs on a 60-GPU cluster; a full 480-job
Hadar run takes minutes of wall-clock, so the benchmark suite defaults to
a reduced-but-same-shape scale and honours the ``REPRO_SCALE``
environment variable:

* ``REPRO_SCALE=quick``   —  60 jobs (CI smoke);
* ``REPRO_SCALE=default`` — 160 jobs (the shipped benchmark scale);
* ``REPRO_SCALE=full``    — 480 jobs (the paper's scale).

All traces are seeded, so a given scale always reproduces the same
numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.baselines import GavelScheduler, TiresiasScheduler, YarnCapacityScheduler
from repro.core import HadarScheduler
from repro.sim.interface import Scheduler

__all__ = ["ExperimentScale", "resolve_scale", "standard_lineup", "SCALES"]

_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """A workload size for the comparison experiments."""

    name: str
    num_jobs: int
    jobs_per_hour: float
    """Poisson rate for the continuous-arrival variants (≈ cluster at
    sustained high load at this job count)."""


SCALES: dict[str, ExperimentScale] = {
    "quick": ExperimentScale("quick", num_jobs=60, jobs_per_hour=30.0),
    "default": ExperimentScale("default", num_jobs=160, jobs_per_hour=60.0),
    "full": ExperimentScale("full", num_jobs=480, jobs_per_hour=120.0),
}


def resolve_scale(override: str | None = None) -> ExperimentScale:
    """Pick the experiment scale from ``override`` or ``$REPRO_SCALE``."""
    # Sanctioned env read: $REPRO_SCALE selects which experiment runs,
    # and the chosen scale is named in the report header on purpose —
    # same-scale reruns stay byte-identical.
    name = override or os.environ.get(_ENV_VAR, "default")
    try:
        return SCALES[name]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown scale {name!r}; choose one of: {known}") from None


def standard_lineup() -> Mapping[str, Callable[[], Scheduler]]:
    """Factories for the paper's four compared schedulers.

    Factories (not instances) because schedulers carry cross-round state
    and every simulation should start from a fresh one.
    """
    return {
        "hadar": HadarScheduler,
        "gavel": GavelScheduler,
        "tiresias": TiresiasScheduler,
        "yarn-cs": YarnCapacityScheduler,
    }
