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
