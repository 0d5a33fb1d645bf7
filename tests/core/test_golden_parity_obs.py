"""Observability must be a pure observer.

Re-runs the golden hot-path scenarios with a live DecisionTracer,
MetricsRegistry (and with it the cluster-health phase) and
InvariantSanitizer attached, and requires the *same* schedule
fingerprints as ``tests/core/test_hotpath_parity.py`` — tracing,
metrics, health and invariant checks may read scheduler state but must
never perturb a single decision.  Reading the registry runs the
engine's collector, so a run scraped after every step must also equal
an unscraped one in every output.  A write guard makes a balanced write
loud too: during any observer call, mutating a ``ClusterState`` the
observer did not create itself (a throwaway probe copy is fine) fails
the test, even when a later write would restore the free counts.  The
traces produced along the way must also be schema-valid end to end.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.sanitizer import InvariantSanitizer
from repro.cluster.state import ClusterState
from repro.core.scheduler import HadarScheduler
from repro.obs import DecisionTracer, MetricsRegistry, render, validate_trace
from repro.obs.health import ClusterHealthPhase
from repro.sim.engine import SimulationEngine
from repro.sim.phases import TelemetryPhase, TracePhase

from tests.core._hotpath_fingerprint import (
    SCHEDULER_NAMES,
    SEEDS,
    digest,
    fingerprint,
    outputs,
    run_scenario,
    scenario_engine,
)

GOLDEN_PATH = Path(__file__).with_name("golden_hotpath.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

OBSERVERS = (
    (TelemetryPhase, "record_utilization"),
    (TelemetryPhase, "record_queue_depth"),
    (TracePhase, "emit_meta"),
    (TracePhase, "capture_decision"),
    (TracePhase, "after_decision"),
    (TracePhase, "emit_summary"),
    (InvariantSanitizer, "on_round"),
    (ClusterHealthPhase, "after_decision"),
    (ClusterHealthPhase, "collect"),
    (SimulationEngine, "_collect_metrics"),
    (HadarScheduler, "decision_record"),
    (DecisionTracer, "emit"),
)
"""Every observer entry point: the engine's observer phases, the
metrics collectors, the scheduler's decision record and the tracer
sink."""

_WRITES = ("allocate", "release", "fail", "restore", "load_state_dict")


def forbid_observer_writes(monkeypatch) -> None:
    """Fail on any observer write to a ``ClusterState`` it did not create."""
    depth = [0]
    scratch: set[int] = set()
    copy, init = ClusterState.copy, ClusterState.__init__

    def tracked_copy(self):
        clone = copy(self)
        if depth[0]:
            scratch.add(id(clone))
        return clone

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if depth[0]:
            scratch.add(id(self))

    def guarded(write):
        def call(self, *args, **kwargs):
            if depth[0] and id(self) not in scratch:
                raise AssertionError(
                    f"an observer called ClusterState.{write.__name__} "
                    f"on a state it did not create"
                )
            return write(self, *args, **kwargs)

        return call

    def observing(entry):
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                return entry(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    scratch.clear()

        return call

    monkeypatch.setattr(ClusterState, "copy", tracked_copy)
    monkeypatch.setattr(ClusterState, "__init__", tracked_init)
    for name in _WRITES:
        monkeypatch.setattr(ClusterState, name, guarded(getattr(ClusterState, name)))
    for cls, name in OBSERVERS:
        monkeypatch.setattr(cls, name, observing(getattr(cls, name)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_tracing_and_metrics_preserve_schedules(name, seed, monkeypatch):
    forbid_observer_writes(monkeypatch)
    sink: list[dict] = []
    tracer = DecisionTracer(sink=sink)
    metrics = MetricsRegistry()
    sanitizer = InvariantSanitizer(mode="collect")
    result = run_scenario(
        name,
        seed,
        engine_kwargs={
            "tracer": tracer,
            "metrics": metrics,
            "sanitizer": sanitizer,
        },
    )

    golden = GOLDEN[f"{name}/{seed}"]
    assert digest(fingerprint(result)) == golden["sha256"], (
        f"{name}/seed={seed}: attaching the tracer/metrics/sanitizer "
        f"changed the schedule — observers must not influence decisions"
    )
    assert sanitizer.ok and sanitizer.rounds_checked > 0
    assert repr(result.makespan()) == golden["makespan"]
    assert len(result.completed) == golden["completed"]

    # The by-product trace is schema-valid and complete.
    kinds = [kind for _, kind in validate_trace(sink)]
    assert kinds[0] == "meta" and kinds[-1] == "summary"
    assert kinds.count("round") == result.scheduling_invocations

    # Metrics landed in the result snapshot with matching aggregates.
    rounds_series = result.metrics["repro_engine_rounds_total"]["series"]
    assert rounds_series[0]["value"] == result.scheduling_invocations
    completed_series = result.metrics["repro_jobs_completed_total"]["series"]
    assert completed_series[0]["value"] == len(result.completed)


@pytest.mark.parametrize("seed", SEEDS)
def test_scrape_after_every_step_preserves_outputs(seed, monkeypatch):
    forbid_observer_writes(monkeypatch)
    unscraped = run_scenario("hadar", seed, engine_kwargs={"metrics": MetricsRegistry()})
    metrics = MetricsRegistry()
    engine = scenario_engine("hadar", seed, metrics=metrics)
    engine.start()
    render(metrics)
    while engine.step():
        render(metrics)
    result = engine.stop()
    assert digest(fingerprint(result)) == GOLDEN[f"hadar/{seed}"]["sha256"]
    assert outputs(result) == outputs(unscraped)
