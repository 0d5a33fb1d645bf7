"""Regression tests for engine lifecycle defects.

* Streamed mode must keep exactly one round-boundary chain: a
  ``SUBMISSION`` re-seeds the chain only when it has died, so at most one
  ``ROUND_BOUNDARY`` is ever pending.
* A run cut short by ``max_time`` must stop cleanly even when its last
  telemetry sample lies past its last job finish.
* A trace mixed with a streamed source whose arrivals interleave keeps
  its schedules: the digests below were computed before the progress
  ledger owned the live set.  The set's order itself is checked after
  every step in ``tests/property/test_prop_engine.py``.
"""

import pytest

from repro.baselines import TiresiasScheduler
from repro.cluster.cluster import simulated_cluster
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.events import EventKind
from repro.workload.arrivals import SubmissionSource
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace
from repro.workload.trace import Trace

from tests.core._hotpath_fingerprint import digest, fingerprint, mixed_engine

MIXED_GOLDEN = {
    "hadar": "e6408c9df6120842ad5a84034a25422924c815e2798cc596137b58a35c3ebea4",
    "tiresias": "b3dc0ded9ec9a9e6d15d1fbe22d941f7ed27368e4005abaf66882a2bd7559d2c",
}


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


@pytest.mark.parametrize("name", sorted(MIXED_GOLDEN))
def test_interleaved_trace_and_stream_keep_their_schedules(name):
    result = mixed_engine(name).run()
    assert result.all_completed and len(result.runtimes) == 18
    assert digest(fingerprint(result)) == MIXED_GOLDEN[name]
