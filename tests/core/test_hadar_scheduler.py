"""Unit and behavioural tests for the Hadar scheduler."""

import pytest

from repro.core import HadarConfig, HadarScheduler
from repro.core.dp import DPConfig
from repro.sim.checkpoint import NoOverheadCheckpoint
from repro.sim.engine import simulate
from repro.workload.trace import Trace

from tests.conftest import make_job


class TestScheduling:
    def test_simple_trace_completes(self, no_comm_cluster, matrix, tiny_trace):
        result = simulate(
            no_comm_cluster, tiny_trace, HadarScheduler(), matrix=matrix,
            checkpoint=NoOverheadCheckpoint(),
        )
        assert result.all_completed
        assert result.scheduler_name == "hadar"

    def test_uses_fast_types_first(self, no_comm_cluster, matrix):
        """A lone resnet50 job must land on V100s, its 10×-faster type."""
        trace = Trace([make_job(0, "resnet50", workers=2, epochs=1)])
        result = simulate(
            no_comm_cluster, trace, HadarScheduler(), matrix=matrix,
            checkpoint=NoOverheadCheckpoint(),
        )
        rt = result.runtimes[0]
        expected = trace[0].total_iterations / (2 * matrix.rate("resnet50", "V100"))
        # Finish time == one-round-aligned ideal V100 runtime.
        assert rt.finish_time == pytest.approx(expected, rel=1e-6)

    def test_deterministic(self, no_comm_cluster, matrix, philly_trace_small):
        a = simulate(no_comm_cluster, philly_trace_small, HadarScheduler(), matrix=matrix)
        b = simulate(no_comm_cluster, philly_trace_small, HadarScheduler(), matrix=matrix)
        assert a.jcts() == b.jcts()

    def test_alpha_exposed_after_scheduling(self, no_comm_cluster, matrix, tiny_trace):
        scheduler = HadarScheduler()
        simulate(no_comm_cluster, tiny_trace, scheduler, matrix=matrix)
        assert scheduler.last_alpha >= 1.0
        assert scheduler.last_prices is not None

    def test_reset_clears_state(self):
        scheduler = HadarScheduler()
        scheduler.last_alpha = 5.0
        scheduler.reset()
        assert scheduler.last_alpha == 1.0
        assert scheduler.last_prices is None

    def test_most_rounds_change_free(self, no_comm_cluster, matrix):
        """Stickiness: a lone job must not bounce between placements."""
        trace = Trace([make_job(0, "resnet18", workers=2, epochs=40)])
        result = simulate(no_comm_cluster, trace, HadarScheduler(), matrix=matrix)
        rt = result.runtimes[0]
        assert rt.preemptions == 0
        assert rt.allocation_changes == 1  # the initial placement only

    def test_greedy_config_passthrough(self, no_comm_cluster, matrix, tiny_trace):
        config = HadarConfig(dp=DPConfig(queue_limit=0))
        result = simulate(
            no_comm_cluster, tiny_trace, HadarScheduler(config), matrix=matrix
        )
        assert result.all_completed


class TestTaskLevelHeterogeneity:
    def test_mixes_types_when_blocked_otherwise(self, no_comm_cluster, matrix):
        """The paper's headline capability: a 6-GPU gang on a cluster where
        no single type has 6 devices free."""
        trace = Trace([make_job(0, "resnet18", workers=6, epochs=1)])
        result = simulate(
            no_comm_cluster, trace, HadarScheduler(), matrix=matrix,
            checkpoint=NoOverheadCheckpoint(),
        )
        rt = result.runtimes[0]
        assert rt.finish_time is not None
        # It ran — which no single-type scheduler could do on this cluster
        # (max 4 of any type) — and the engine enforced the gang size.
        assert rt.allocation_changes >= 1


def test_core_imports_no_clock():
    """No module under ``repro/core`` imports ``time``: a decision cannot
    read the wall clock if its package never reaches one."""
    import ast
    from pathlib import Path

    import repro.core

    offenders = []
    for path in sorted(Path(repro.core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            if "time" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


@pytest.mark.parametrize(
    "num_jobs, queue_limit", [(14, 0), (8, 10)], ids=["greedy", "exact"]
)
def test_a_round_leaves_its_context_to_reference_counting(
    num_jobs, queue_limit, monkeypatch
):
    """With the cyclic collector off, the one ``RoundContext`` alive once
    ``schedule`` returns is the round's own, kept for its decision
    record.  Nothing it holds — views, the slot book, the DP's recursion,
    the delay estimator — refers back to it or to the scheduler, so the
    next ``schedule`` call frees it by reference counting before building
    its own context, and so does ``reset()``."""
    import gc
    import weakref

    import repro.core.scheduler as hadar_module
    from repro.cluster.cluster import simulated_cluster
    from repro.core.round_context import RoundContext
    from repro.sim.engine import SimulationEngine
    from repro.workload.philly import PhillyTraceConfig, generate_philly_trace

    previous = []

    def watched(**kwargs):
        # The next round's context is built only after the kept one is gone.
        assert all(ref() is None for ref in previous)
        return RoundContext(**kwargs)

    monkeypatch.setattr(hadar_module, "RoundContext", watched)
    probed = []

    class Probe(HadarScheduler):
        def schedule(self, ctx):
            if probed or len(ctx.running) < 3:
                return super().schedule(ctx)
            gc.collect()
            gc.disable()
            try:
                target = super().schedule(ctx)
                kept = self._round[2]
                alive = [o for o in gc.get_objects() if isinstance(o, RoundContext)]
                assert len(alive) == 1 and alive[0] is kept
                # The round runs the path under test.
                assert (len(ctx.active) > queue_limit) == (queue_limit == 0)
                previous.append(weakref.ref(kept))
                del kept, alive
                super().schedule(ctx)
                assert previous[0]() is None
                previous.append(weakref.ref(self._round[2]))
                self.reset()
                assert previous[1]() is None
                probed.append(True)
            finally:
                gc.enable()
            return target

    engine = SimulationEngine(
        cluster=simulated_cluster(),
        trace=generate_philly_trace(PhillyTraceConfig(num_jobs=num_jobs, seed=1)),
        scheduler=Probe(HadarConfig(dp=DPConfig(queue_limit=queue_limit))),
    )
    engine.start()
    while not probed and engine.step():
        pass
    assert probed


def test_traced_run_explains_every_job_as_the_reference_does(monkeypatch):
    """In a traced 14-job seed-1 run, every explanation the decision
    record asks for is the straight-line reference's, all five fields
    bit for bit, at the state the record means: the post-decision state,
    with an admitted job's own gang released (its leave-one-out probe)."""
    import repro.core.scheduler as hadar_module
    from repro.obs import DecisionTracer

    from tests.core._hotpath_fingerprint import run_scheduler
    from tests.core.reference_find_alloc import explanation_fields, reference_explain

    hadar = HadarScheduler()
    explain = hadar_module.explain_alloc
    calls = []

    def checked(ctx, rt, key):
        got = explain(ctx, rt, key)
        _, final, round_ctx = hadar._round
        assert ctx is round_ctx
        state = final.copy()
        cand = hadar.last_chosen.get(rt.job_id)
        if cand is not None:
            state.release(cand.allocation)
        assert key == state.key()
        want = reference_explain(ctx, rt, state)
        assert explanation_fields(got) == explanation_fields(want)
        calls.append(rt.job_id)
        return got

    monkeypatch.setattr(hadar_module, "explain_alloc", checked)
    run_scheduler(hadar, 1, {"tracer": DecisionTracer(sink=[])})
    assert calls


class _MaskedEveryThirdRound(HadarScheduler):
    """Hadar handed, every third round, a matrix on which the fastest
    type of the scenario's cluster is unusable: a gang held there stops
    being a current placement the search can keep.  (Every other round
    would not do: a gang held into a masked round would then always be
    new, so its view would be rebuilt whatever the store checks.)"""

    MASKED = "V100"

    def __init__(self):
        super().__init__()
        self._decisions = 0
        self._masked = {}

    def schedule(self, ctx):
        from dataclasses import replace

        from repro.workload.throughput import ThroughputMatrix

        self._decisions += 1
        if self._decisions % 3 == 0:
            base = ctx.matrix
            if id(base) not in self._masked:
                self._masked[id(base)] = ThroughputMatrix(
                    {
                        m: {t: r for t, r in row.items() if t != self.MASKED}
                        for m, row in base.rates.items()
                    }
                )
            ctx = replace(ctx, matrix=self._masked[id(base)])
        return super().schedule(ctx)


class _CheckpointSwappedEachRound(HadarScheduler):
    """Hadar whose checkpoint model alternates between two move delays."""

    def __init__(self):
        from dataclasses import replace

        from repro.sim.checkpoint import FixedDelayCheckpoint

        super().__init__()
        self._configs = [
            replace(self.config, checkpoint=FixedDelayCheckpoint(delay_s=delay))
            for delay in (10.0, 30.0)
        ]
        self._decisions = 0

    def schedule(self, ctx):
        self._decisions += 1
        self.config = self._configs[self._decisions % 2]
        return super().schedule(ctx)


class _SlotAddedEveryThirdRound(HadarScheduler):
    """Hadar handed, every third round, a cluster whose node 0 has one
    more device, of a type the matrix leaves unusable: the slot sorts
    first, so every other slot's position in a state key moves by one.
    Every round gets the one matrix object, so only the slot universe
    changes between rounds."""

    ADDED = "A100"

    def __init__(self):
        super().__init__()
        self._decisions = 0
        self._matrix = self._grown = None

    def schedule(self, ctx):
        from dataclasses import replace

        from repro.cluster.cluster import Cluster
        from repro.workload.throughput import ThroughputMatrix

        if self._matrix is None:
            self._matrix = ThroughputMatrix(
                {
                    m: {t: r for t, r in row.items() if t != self.ADDED}
                    for m, row in ctx.matrix.rates.items()
                }
            )
            first, *rest = ctx.cluster.nodes
            assert self.ADDED not in first.gpus
            grown = replace(first, gpus={**first.gpus, self.ADDED: 1})
            self._grown = Cluster([grown, *rest], ctx.cluster.comm)
        self._decisions += 1
        ctx = replace(ctx, matrix=self._matrix)
        if self._decisions % 3 == 0:
            ctx = replace(ctx, cluster=self._grown)
        return super().schedule(ctx)


def _profiled_hadar():
    from repro.core.estimator import ProfilingScheduler

    return ProfilingScheduler(HadarScheduler())


@pytest.mark.parametrize(
    "variant, seed",
    [("plain", s) for s in (1, 2, 3)]
    + [("profiling", s) for s in (1, 2, 3)]
    + [("masked_matrix", 1), ("swapped_checkpoint", 1), ("added_slot", 1)],
)
def test_every_view_a_round_hands_out_equals_a_fresh_one(variant, seed, monkeypatch):
    """On every round of the traced 14-job runs, the job view a round
    hands out on a job's first search — carried from the previous round
    and refreshed, or rebuilt because the job's gang changed — equals a
    freshly built :class:`JobView` field for field.

    Plain Hadar refreshes views and rebuilds those of jobs whose gang
    changed.  A view may not be carried into a round whose matrix object,
    slot universe or checkpoint model differs from its build's: what a
    view keeps from its build depends on all three.  Under profiling the
    matrix moves every round, so no view is ever refreshed.  A matrix
    that makes a held type unusable every third round changes a kept
    gang's current picks, a slot added every third round moves their
    positions, and a checkpoint model that alternates changes the move
    delay: a view carried across any of these differs from a fresh one."""
    from repro.core.round_context import JobView, RoundContext
    from repro.obs import DecisionTracer

    from tests.core._hotpath_fingerprint import run_scheduler

    view = RoundContext.view
    counts = {"refreshed": 0, "gang_changed": 0, "built": 0}

    def checked(ctx, rt):
        if rt.job_id in ctx.views:
            return view(ctx, rt)
        carried = ctx._carried.get(rt.job_id)
        got = view(ctx, rt)
        fresh = JobView(ctx, rt)
        assert {f: getattr(got, f) for f in JobView.__slots__} == {
            f: getattr(fresh, f) for f in JobView.__slots__
        }
        if got is carried:
            counts["refreshed"] += 1
        elif carried is not None and carried.rt is rt and carried.held != rt.allocation:
            counts["gang_changed"] += 1
        else:
            counts["built"] += 1
        return got

    monkeypatch.setattr(RoundContext, "view", checked)
    scheduler = {
        "plain": HadarScheduler,
        "profiling": _profiled_hadar,
        "masked_matrix": _MaskedEveryThirdRound,
        "swapped_checkpoint": _CheckpointSwappedEachRound,
        "added_slot": _SlotAddedEveryThirdRound,
    }[variant]()
    run_scheduler(scheduler, seed, {"tracer": DecisionTracer(sink=[])})
    assert counts["built"]
    if variant == "plain":
        assert counts["refreshed"] and counts["gang_changed"]
    elif variant == "profiling":
        assert not counts["refreshed"]  # a new matrix every round


def test_the_view_store_is_derived_state():
    """The carried job views never enter ``state_dict()``, and ``reset()``
    and ``load_state_dict()`` empty them; a restored scheduler rebuilds
    them on use."""
    import json

    from repro.sim.engine import SimulationEngine

    from tests.core._hotpath_fingerprint import scenario_engine

    engine: SimulationEngine = scenario_engine("hadar", 1)
    scheduler = engine.scheduler
    engine.start()
    while engine.scheduling_invocations < 50:
        assert engine.step()
    assert scheduler._views
    state = scheduler.state_dict()
    assert set(state) == {"last_alpha", "calibrator", "audit"}
    views = scheduler._views
    scheduler._views = {}
    assert json.dumps(scheduler.state_dict()) == json.dumps(state)
    scheduler._views = views

    scheduler.load_state_dict(state)
    assert scheduler._views == {}
    while engine.scheduling_invocations < 60:
        assert engine.step()
    assert scheduler._views
    scheduler.reset()
    assert scheduler._views == {}
