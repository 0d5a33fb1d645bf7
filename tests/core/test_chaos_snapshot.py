"""Chaos satellite for the checkpointable engine: interrupt a run at
multiple points, throw the engine away, restore from the serialized
snapshot, run to completion — every output of the restored run must
equal the uninterrupted run's, wall-clock measurements aside.

Every scenario runs with the full observer stack attached (fault
injection, decision tracer, invariant sanitizer, metrics registry):
an attribute any of those layers mutates but the snapshot misses shows
up here as a mismatch in the schedule, the runtimes, the telemetry, a
metric family, the fault totals, the hot-path counters or the
rejections — not as a subtle drift in production.  Comparing outputs
rather than component attributes is deliberate: an attribute that
reaches no output is not a restore bug.
The no-attachment restored runs are additionally pinned against the
committed goldens in ``golden_hotpath.json`` — restore must not merely
be self-consistent, it must reproduce the recorded schedules.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.sanitizer import InvariantSanitizer
from repro.cluster.cluster import simulated_cluster
from repro.faults import FaultModel
from repro.obs import DecisionTracer, MetricsRegistry
from repro.sim.engine import SimulationEngine
from repro.sim.snapshot import SnapshotCodec
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace

from tests.core._hotpath_fingerprint import (
    NUM_JOBS,
    SCHEDULER_NAMES,
    SEEDS,
    digest,
    fingerprint,
    make_scheduler,
    outputs,
)

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_hotpath.json")).read_text(encoding="utf-8")
)

#: Interrupt fractions of the run's total event count — early (scheduler
#: caches still cold) and late (deep into completions and faults).
CUT_FRACTIONS = (1, 2)  # numerators over 3: T//3 and 2T//3


def build_engine(name: str, seed: int, *, chaos: bool) -> SimulationEngine:
    """One scenario engine; ``chaos=True`` attaches the observer stack.

    Every call builds the full stack from scratch — engines under test
    and their uninterrupted references must never share mutable parts.
    """
    kwargs = {}
    if chaos:
        kwargs = dict(
            faults=FaultModel(
                node_mtbf_h=6.0,
                gpu_mtbf_h=120.0,
                mttr_s=900.0,
                partition_mtbf_h=12.0,
                partition_duration_s=1200.0,
                failure_domains=2,
                degraded_mtbf_h=8.0,
                degraded_factor=0.6,
                degraded_duration_s=1800.0,
                healing_window_s=600.0,
                healing_factor=0.7,
                storage_mtbf_h=24.0,
                storage_tiers=2,
                seed=seed,
            ),
            tracer=DecisionTracer(sink=[]),
            sanitizer=InvariantSanitizer(mode="collect"),
            metrics=MetricsRegistry(),
        )
    return SimulationEngine(
        cluster=simulated_cluster(),
        trace=generate_philly_trace(
            PhillyTraceConfig(num_jobs=NUM_JOBS, seed=seed)
        ),
        scheduler=make_scheduler(name),
        **kwargs,
    )


def run_counting_steps(name: str, seed: int, *, chaos: bool):
    """The uninterrupted run and its step count.

    :meth:`SimulationEngine.run` is exactly start, step to exhaustion,
    stop, so the result is the batch run's.
    """
    engine = build_engine(name, seed, chaos=chaos)
    engine.start()
    steps = 0
    while engine.step():
        steps += 1
    return engine.stop(), steps


def snapshots_at(name: str, seed: int, cuts, *, chaos: bool) -> list[str]:
    """One run stepped through ascending ``cuts``, serialized at each."""
    engine = build_engine(name, seed, chaos=chaos)
    engine.start()
    blobs = []
    done = 0
    for cut in cuts:
        while done < cut and engine.step():
            done += 1
        blobs.append(SnapshotCodec().dumps(engine.snapshot()))
    return blobs


def finish_restored(name: str, seed: int, blob: str, *, chaos: bool):
    """Restore a serialized snapshot into a fresh engine and run it out.

    The fresh engine shares nothing with the one that was snapshotted.
    """
    restored = build_engine(name, seed, chaos=chaos)
    restored.restore(SnapshotCodec().loads(blob))
    return restored.run()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_kill_restore_is_byte_identical_under_chaos(name: str, seed: int):
    reference, steps = run_counting_steps(name, seed, chaos=True)
    want = digest(fingerprint(reference))
    assert steps > 10
    cuts = [steps * numerator // 3 for numerator in CUT_FRACTIONS]
    blobs = snapshots_at(name, seed, cuts, chaos=True)
    for cut, blob in zip(cuts, blobs):
        result = finish_restored(name, seed, blob, chaos=True)
        assert digest(fingerprint(result)) == want, (
            f"{name}/{seed}: restored run diverged after snapshot at "
            f"step {cut}/{steps}"
        )
        assert outputs(result) == outputs(reference), (
            f"{name}/{seed}: restored outputs differ after snapshot at "
            f"step {cut}/{steps}"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_kill_restore_reproduces_goldens(name: str, seed: int):
    """Plain restored runs must land on the committed golden schedules."""
    golden = GOLDEN[f"{name}/{seed}"]
    _, steps = run_counting_steps(name, seed, chaos=False)
    (blob,) = snapshots_at(name, seed, [steps // 2], chaos=False)
    result = finish_restored(name, seed, blob, chaos=False)
    assert digest(fingerprint(result)) == golden["sha256"]
    assert repr(result.makespan()) == golden["makespan"]
    assert len(result.completed) == golden["completed"]
