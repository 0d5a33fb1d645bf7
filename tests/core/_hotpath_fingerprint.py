"""Schedule fingerprints for the hot-path golden-parity suite.

A *fingerprint* is a canonical, JSON-able digest of everything a
scheduler decided during one simulation: every job's placement history
(time + exact gang), preemption/JCT accounting, and the round counters.
Floats are rendered with ``repr`` so the digest only matches on
bit-identical results — the round-scoped caches must be
semantics-preserving, not merely approximately equal.

The golden file ``tests/core/golden_hotpath.json`` was captured from the
pre-``RoundContext`` implementation; ``capture_goldens`` regenerates it
(only do that deliberately, with a justification in the PR).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.baselines import GavelScheduler, TiresiasScheduler
from repro.cluster.cluster import simulated_cluster
from repro.core import HadarScheduler
from repro.sim.engine import SimulationEngine, simulate
from repro.workload.arrivals import SubmissionSource
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationResult

SEEDS = (1, 2, 3)
NUM_JOBS = 14
SCHEDULER_NAMES = ("hadar", "gavel", "tiresias")


def make_scheduler(name: str, **hadar_kwargs):
    """Fresh scheduler instance per run (schedulers carry round state)."""
    if name == "hadar":
        from repro.core.scheduler import HadarConfig

        if hadar_kwargs:
            return HadarScheduler(HadarConfig(**hadar_kwargs))
        return HadarScheduler()
    if name == "gavel":
        return GavelScheduler()
    if name == "tiresias":
        return TiresiasScheduler()
    raise ValueError(f"unknown scheduler {name!r}")


def run_scenario(
    name: str, seed: int, engine_kwargs: dict | None = None, **hadar_kwargs
) -> "SimulationResult":
    """One parity scenario; ``engine_kwargs`` flow to :func:`simulate`
    (the observability-parity suite attaches ``tracer=``/``metrics=``
    here and expects the same fingerprints)."""
    return run_scheduler(make_scheduler(name, **hadar_kwargs), seed, engine_kwargs)


def run_scheduler(
    scheduler, seed: int, engine_kwargs: dict | None = None
) -> "SimulationResult":
    """The parity scenario of ``seed`` driven by a caller-built scheduler."""
    cluster = simulated_cluster()
    trace = generate_philly_trace(PhillyTraceConfig(num_jobs=NUM_JOBS, seed=seed))
    return simulate(cluster, trace, scheduler, **(engine_kwargs or {}))


def scenario_engine(name: str, seed: int, **engine_kwargs) -> SimulationEngine:
    """The parity scenario of ``seed`` as an unstarted engine, for runs
    driven step by step (same defaults as :func:`run_scenario`)."""
    return SimulationEngine(
        cluster=simulated_cluster(),
        trace=generate_philly_trace(PhillyTraceConfig(num_jobs=NUM_JOBS, seed=seed)),
        scheduler=make_scheduler(name),
        **engine_kwargs,
    )


def mixed_engine(name: str, **engine_kwargs) -> SimulationEngine:
    """A Poisson-arrival trace mixed with a streamed source, as an unstarted
    engine.  Their arrivals interleave: trace jobs keep arriving after
    streamed jobs (which the runtimes table keeps after every trace job)
    were admitted."""
    return SimulationEngine(
        cluster=simulated_cluster(),
        trace=generate_philly_trace(
            PhillyTraceConfig(
                num_jobs=10, arrival_pattern="continuous", jobs_per_hour=3.0, seed=1
            )
        ),
        scheduler=make_scheduler(name),
        source=SubmissionSource(3.0, seed=2, max_jobs=8, first_job_id=100),
        **engine_kwargs,
    )


def fingerprint(result: "SimulationResult") -> dict:
    """Canonical digest of one simulation's scheduling decisions."""
    jobs = {}
    for job_id in sorted(result.runtimes):
        rt = result.runtimes[job_id]
        jobs[str(job_id)] = {
            "finish": repr(rt.finish_time),
            "preemptions": rt.preemptions,
            "allocation_changes": rt.allocation_changes,
            "rounds_scheduled": rt.rounds_scheduled,
            "overhead": repr(rt.overhead_seconds),
            "history": [
                [repr(t), sorted(
                    [n, ty, c] for (n, ty), c in alloc.placements.items()
                )]
                for t, alloc in rt.history
            ],
        }
    return {
        "scheduler": result.scheduler_name,
        "end_time": repr(result.end_time),
        "rounds_with_change": result.rounds_with_change,
        "scheduling_invocations": result.scheduling_invocations,
        "jobs": jobs,
    }


WALL_CLOCK_FAMILIES = ("repro_engine_phase_seconds", "repro_decision_seconds")
"""The metric families that measure wall-clock time, not the schedule."""


def outputs(result: "SimulationResult") -> dict:
    """Every output of a run except its wall-clock measurements.

    Wider than :func:`fingerprint`: every runtime field, the telemetry
    series, all metric families, fault totals, hot-path counters and
    rejections.  Only ``decision_seconds``, ``phase_timings`` and
    :data:`WALL_CLOCK_FAMILIES` are left out.  Two runs that must
    continue each other exactly (a restore and the uninterrupted run)
    compare equal here.
    """
    return {
        "scheduler": result.scheduler_name,
        "round_length": result.round_length,
        "runtimes": [rt.state_dict() for rt in result.runtimes.values()],
        "telemetry": result.telemetry.state_dict(),
        "end_time": result.end_time,
        "scheduling_invocations": result.scheduling_invocations,
        "truncated": result.truncated,
        "rounds_with_change": result.rounds_with_change,
        "hotpath_stats": result.hotpath_stats,
        "metrics": {
            name: family
            for name, family in result.metrics.items()
            if name not in WALL_CLOCK_FAMILIES
        },
        "fault_stats": result.fault_stats,
        "rejections": [r.as_record() for r in result.rejections],
    }


def digest(fp: dict) -> str:
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def capture_goldens() -> dict:
    """Golden map ``"scheduler/seed" -> {sha256, makespan, completed}``."""
    out: dict[str, dict] = {}
    for name in SCHEDULER_NAMES:
        for seed in SEEDS:
            result = run_scenario(name, seed)
            fp = fingerprint(result)
            out[f"{name}/{seed}"] = {
                "sha256": digest(fp),
                "makespan": repr(result.makespan()),
                "completed": len(result.completed),
            }
    return out


if __name__ == "__main__":  # pragma: no cover - capture shim
    from pathlib import Path

    golden = Path(__file__).with_name("golden_hotpath.json")
    golden.write_text(json.dumps(capture_goldens(), indent=2) + "\n")
    print(f"wrote {golden}")
