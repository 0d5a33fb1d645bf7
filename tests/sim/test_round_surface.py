"""Observers read a scheduler's round through wrappers, after the timed decision.

Every observer reaches a scheduler's per-round surface through
:func:`repro.sim.interface.unwrap`, so a wrapped Hadar publishes the same
hot-path counters and decision records as a bare one.  The decision
record is asked for after ``schedule()`` returns, so building it never
counts as decision latency.
"""

import json
import time

import pytest

import repro.core.scheduler as hadar_module
from repro.baselines import TiresiasScheduler
from repro.core import HadarScheduler, ProfilingScheduler
from repro.core.round_context import RoundStats
from repro.faults import FaultModel
from repro.obs import DecisionTracer, MetricsRegistry
from repro.sim.interface import unwrap
from repro.sim.replay import RecordingScheduler

from tests.core._hotpath_fingerprint import run_scheduler

SEED = 1
ROUND_STATS = tuple(RoundStats().as_dict())


def traced_run(scheduler, path):
    with DecisionTracer(path) as tracer:
        result = run_scheduler(scheduler, SEED, {"tracer": tracer})
    return result, [json.loads(line) for line in path.read_text().splitlines()]


def test_unwrap_walks_the_inner_chain():
    hadar = HadarScheduler()
    wrapped = ProfilingScheduler(RecordingScheduler(hadar))
    assert unwrap(wrapped, "decision_record") is hadar
    assert unwrap(wrapped, "decisions") is wrapped.inner
    assert unwrap(wrapped, "no_such_surface") is None


def test_recording_wrapper_is_observed_as_bare_hadar(tmp_path, monkeypatch):
    """Same counters and, with the clock pinned, the same JSONL trace."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    bare, bare_trace = traced_run(HadarScheduler(), tmp_path / "bare.jsonl")
    wrapped, wrapped_trace = traced_run(
        RecordingScheduler(HadarScheduler()), tmp_path / "wrapped.jsonl"
    )
    assert set(wrapped.hotpath_stats) == set(ROUND_STATS)
    assert wrapped.hotpath_stats == bare.hotpath_stats
    # Only the meta record's scheduler name tells the two runs apart.
    assert wrapped_trace[0].pop("scheduler") == "hadar+recording"
    assert bare_trace[0].pop("scheduler") == "hadar"
    assert wrapped_trace == bare_trace


def test_profiling_wrapper_publishes_hadar_counters_and_records(tmp_path):
    result, trace = traced_run(
        ProfilingScheduler(HadarScheduler()), tmp_path / "profiled.jsonl"
    )
    assert set(result.hotpath_stats) == set(ROUND_STATS)
    assert result.hotpath_stats["find_alloc_calls"] > 0
    rounds = [r for r in trace if r["kind"] == "round"]
    assert rounds and all("prices" in r and "counters" in r for r in rounds)
    # Hadar's own records: no job falls back to the generic baseline record.
    assert all(job.get("reason") != "not_traced" for r in rounds for job in r["jobs"])


def test_decision_record_is_built_outside_schedule(monkeypatch):
    """With a tracer attached, no explain pass runs inside the timed call."""
    depth = [0]
    explained = [0]
    schedule = HadarScheduler.schedule
    explain = hadar_module.explain_alloc

    def timed_schedule(self, ctx):
        depth[0] += 1
        try:
            return schedule(self, ctx)
        finally:
            depth[0] -= 1

    def guarded_explain(*args, **kwargs):
        assert depth[0] == 0, "explain_alloc ran inside HadarScheduler.schedule"
        explained[0] += 1
        return explain(*args, **kwargs)

    monkeypatch.setattr(HadarScheduler, "schedule", timed_schedule)
    monkeypatch.setattr(hadar_module, "explain_alloc", guarded_explain)
    result = run_scheduler(HadarScheduler(), SEED, {"tracer": DecisionTracer(sink=[])})
    assert explained[0] > 0 and result.scheduling_invocations > 0


def test_untraced_run_builds_no_decision_record(monkeypatch):
    """A registry arms the captured diff for the health phase, but only a
    tracer asks for the decision record."""

    def forbidden(self):
        raise AssertionError("decision record built without a tracer")

    monkeypatch.setattr(HadarScheduler, "decision_record", forbidden)
    run_scheduler(HadarScheduler(), SEED, {"metrics": MetricsRegistry()})


@pytest.mark.parametrize("inner", [HadarScheduler, TiresiasScheduler])
@pytest.mark.parametrize("seed", [1, 2])
def test_profiling_wrapper_plans_on_surviving_capacity(inner, seed):
    """The profiling shadow context keeps the fault masks: a wrapped
    scheduler never places a gang on failed or partitioned devices."""
    faults = FaultModel(
        node_mtbf_h=6.0,
        mttr_s=900.0,
        partition_mtbf_h=12.0,
        partition_duration_s=1200.0,
        failure_domains=2,
        seed=seed,
    )
    result = run_scheduler(
        ProfilingScheduler(inner()),
        seed,
        {"faults": faults, "max_time": 30 * 24 * 3600.0},
    )
    assert result.fault_stats["node_faults"] > 0
    assert [r for r in result.rejections if r.reason == "failed_gpu"] == []
