"""Regression tests for engine lifecycle defects.

* Streamed mode must keep exactly one round-boundary chain: a
  ``SUBMISSION`` re-seeds the chain only when it has died, so at most one
  ``ROUND_BOUNDARY`` is ever pending.
* A run cut short by ``max_time`` must stop cleanly even when its last
  telemetry sample lies past its last job finish.
"""

from repro.baselines import TiresiasScheduler
from repro.cluster.cluster import simulated_cluster
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.events import EventKind
from repro.workload.arrivals import SubmissionSource
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace
from repro.workload.trace import Trace


def _pending_round_boundaries(engine: SimulationEngine) -> int:
    heap = engine._kernel.state_dict()["heap"]
    return sum(1 for _, kind, *_ in heap if kind == int(EventKind.ROUND_BOUNDARY))


def test_streamed_run_keeps_one_round_chain():
    engine = SimulationEngine(
        cluster=simulated_cluster(),
        trace=Trace([]),
        scheduler=TiresiasScheduler(),
        source=SubmissionSource(8.0, seed=1, max_jobs=20),
    )
    engine.start()
    assert _pending_round_boundaries(engine) <= 1
    while engine.step():
        assert _pending_round_boundaries(engine) <= 1
    result = engine.stop()
    assert result.all_completed
    # One decision per round boundary: the simulated span bounds them.
    assert result.scheduling_invocations <= result.end_time / engine.round_length + 1


def test_truncated_run_stops_cleanly():
    result = simulate(
        simulated_cluster(),
        generate_philly_trace(PhillyTraceConfig(num_jobs=24, seed=1)),
        TiresiasScheduler(),
        max_time=40 * 3600,
    )
    assert result.truncated
    assert not result.all_completed
    assert result.end_time <= 40 * 3600
    finishes = [rt.finish_time for rt in result.runtimes.values() if rt.finish_time]
    assert result.end_time >= max(finishes, default=0.0)
    assert result.end_time >= result.telemetry.times[-1]
