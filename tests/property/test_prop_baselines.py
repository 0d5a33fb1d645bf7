"""Property-based tests: the one-pass Tiresias round and the single-type
packer against their straight-line specifications.

The specifications below are the per-type loop the Tiresias round used
to run for every job (rebuild the per-type free counts, try every usable
type in name order, pack each candidate) and the single-type path of the
type-blind node walk in ``repro.baselines.packing``.  The production code
must produce the same gangs, in the same order, with the same placement
insertion order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.packing import pack_gang_single_type
from repro.baselines.tiresias import TiresiasScheduler
from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.state import ClusterState
from repro.sim.interface import SchedulerContext
from repro.sim.progress import JobRuntime, JobState
from repro.workload.job import Job
from repro.workload.models import model_spec
from repro.workload.throughput import ThroughputMatrix

TYPES = ("V100", "P100", "K80")
MODELS = ("resnet18", "resnet50", "a3c")


# -- specifications ------------------------------------------------------------
def spec_pack_single_type(state, workers, type_name):
    """Fullest node first (by its free devices of the type), ties by id."""
    per_node: dict[int, list[tuple[str, int]]] = {}
    for (node_id, slot_type), free in state.free_slots():
        if slot_type == type_name:
            per_node.setdefault(node_id, []).append((slot_type, free))
    if sum(f for slots in per_node.values() for _, f in slots) < workers:
        return None
    node_order = sorted(
        per_node.items(), key=lambda item: (-sum(f for _, f in item[1]), item[0])
    )
    need = workers
    picks: list[tuple[int, str, int]] = []
    for node_id, slots in node_order:
        for slot_type, free in slots:
            take = min(free, need)
            if take > 0:
                picks.append((node_id, slot_type, take))
                need -= take
            if need == 0:
                break
        if need == 0:
            break
    if need:
        return None
    return Allocation.from_pairs(picks)


class SpecTiresias(TiresiasScheduler):
    """The round as a per-job loop over every usable type."""

    def schedule(self, ctx):
        active = list(ctx.active)
        if not active:
            self.last_round_stats = {}
            return {}
        demotions = 0
        for rt in active:
            if (
                rt.attained_service >= self.config.queue_threshold_gpu_s
                and rt.job_id not in self._demoted
            ):
                self._demoted.add(rt.job_id)
                demotions += 1
        active.sort(
            key=lambda rt: (
                1 if rt.job_id in self._demoted else 0,
                rt.job.arrival_time,
                rt.job_id,
            )
        )
        state = ctx.fresh_state()
        target = {}
        for rt in active:
            best = None
            best_free = -1
            free_by_type = state.free_by_type()
            for type_name in sorted(ctx.cluster.gpu_types):
                if not ctx.matrix.supports(rt.job.model.name, type_name):
                    continue
                free = free_by_type.get(type_name, 0)
                if free < rt.job.num_workers or free <= best_free:
                    continue
                gang = spec_pack_single_type(state, rt.job.num_workers, type_name)
                if gang is not None:
                    best = gang
                    best_free = free
            if best is None:
                continue
            state.allocate(best)
            target[rt.job_id] = best
        self.last_round_stats = {
            "jobs_considered": len(active),
            "jobs_admitted": len(target),
            "demotions": demotions,
        }
        return target


def placements(target):
    """Gangs and placement insertion order, in target insertion order."""
    return [(job_id, list(gang.placements.items())) for job_id, gang in target.items()]


# -- strategies ----------------------------------------------------------------
@st.composite
def clusters(draw):
    """1-6 nodes over 1-3 types; small even counts make per-type ties common."""
    types = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=3, unique=True))
    nodes = []
    for node_id in range(draw(st.integers(1, 6))):
        gpus = draw(
            st.dictionaries(
                st.sampled_from(types), st.sampled_from([1, 2, 2, 4]),
                min_size=1, max_size=len(types),
            )
        )
        nodes.append(Node(node_id, gpus))
    return Cluster(nodes)


@st.composite
def matrices(draw):
    """Rates with drawn zeros: model/type pairs that ``supports`` rejects."""
    return ThroughputMatrix(
        {
            model: {t: draw(st.sampled_from([0.0, 1.0, 3.0])) for t in TYPES}
            for model in MODELS
        }
    )


def _job(job_id, model, workers, arrival):
    spec = model_spec(model)
    return Job(
        job_id=job_id, model=spec, arrival_time=arrival, num_workers=workers,
        epochs=1, iters_per_epoch=spec.iters_per_epoch,
    )


@st.composite
def contexts(draw):
    cluster = draw(clusters())
    slots = [(n.node_id, t, c) for n in cluster.nodes for t, c in n.gpus.items()]
    # Capacity lost to faults: ``fresh_state`` applies it through ``fail``.
    failed = {}
    for node_id, type_name, cap in slots:
        lost = draw(st.integers(0, cap))
        if lost and draw(st.booleans()):
            failed[(node_id, type_name)] = lost
    unreachable = frozenset(
        draw(st.lists(st.sampled_from([n.node_id for n in cluster.nodes]), max_size=2))
    )
    waiting, running = [], []
    for job_id in range(draw(st.integers(0, 10))):
        model = draw(st.sampled_from(MODELS))
        arrival = float(draw(st.integers(0, 3)))  # arrival ties fall to job id
        service = draw(st.sampled_from([0.0, 1800.0, 3600.0, 7200.0]))
        if draw(st.booleans()):
            # Running on one slot: partitioned nodes keep what it holds.
            node_id, type_name, cap = draw(st.sampled_from(slots))
            workers = draw(st.integers(1, cap))
            running.append(JobRuntime(
                job=_job(job_id, model, workers, arrival),
                state=JobState.RUNNING,
                allocation=Allocation({(node_id, type_name): workers}),
                attained_service=service,
            ))
        else:
            # Up to 16 workers: some gangs fit no type at all.
            workers = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 16]))
            waiting.append(JobRuntime(
                job=_job(job_id, model, workers, arrival),
                state=JobState.QUEUED,
                attained_service=service,
            ))
    return SchedulerContext(
        now=0.0, cluster=cluster, matrix=draw(matrices()), round_length=360.0,
        waiting=waiting, running=running, failed=failed, unreachable=unreachable,
    )


@st.composite
def occupied_states(draw):
    """A cluster state with some capacity failed and some allocated."""
    cluster = draw(clusters())
    state = ClusterState.from_cluster(cluster)
    for node_id, type_name in state.slots:
        lost = draw(st.integers(0, state.free(node_id, type_name)))
        state.fail(node_id, type_name, lost)
        held = draw(st.integers(0, state.free(node_id, type_name)))
        if held:
            state.allocate(Allocation({(node_id, type_name): held}))
    return state


# -- properties ----------------------------------------------------------------
@given(ctx=contexts())
@settings(max_examples=300, deadline=None)
def test_tiresias_round_matches_per_type_loop(ctx):
    got, spec = TiresiasScheduler(), SpecTiresias()
    target = got.schedule(ctx)
    expected = spec.schedule(ctx)
    assert placements(target) == placements(expected)
    assert got.last_round_stats == spec.last_round_stats
    assert got.demoted_jobs == spec.demoted_jobs


@given(state=occupied_states(), workers=st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_single_type_packer_matches_node_walk(state, workers):
    for type_name in TYPES + ("A100",):
        gang = pack_gang_single_type(state, workers, type_name)
        expected = spec_pack_single_type(state, workers, type_name)
        if expected is None:
            assert gang is None
        else:
            assert gang is not None
            assert list(gang.placements.items()) == list(expected.placements.items())
