"""Unit tests for FIND_ALLOC."""

import math

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core.find_alloc import (
    _generate_candidates,
    cached_find_alloc,
    find_alloc,
)
from repro.core.pricing import PriceBook
from repro.core.round_context import RoundContext
from repro.core.utility import NormalizedThroughputUtility
from repro.sim.progress import JobRuntime, JobState
from repro.workload.throughput import ThroughputMatrix

from tests.conftest import make_job
from tests.core.reference_find_alloc import reference_explain


def queued(job):
    rt = JobRuntime(job=job)
    rt.state = JobState.QUEUED
    return rt


NO_DELAY = lambda rt: 0.0  # noqa: E731
TEN_S = lambda rt: 10.0  # noqa: E731


@pytest.fixture
def utility():
    return NormalizedThroughputUtility()


def prices_for(jobs, cluster, matrix, utility):
    return PriceBook.calibrate(
        jobs=jobs, matrix=matrix, utility=utility,
        state=cluster.fresh_state(), now=0.0,
    )


class TestBasicSelection:
    def test_prefers_fastest_type_when_idle(
        self, no_comm_cluster, matrix, utility
    ):
        rt = queued(make_job(0, "resnet50", workers=2))
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        cand = find_alloc(
            rt, no_comm_cluster.fresh_state(), prices, matrix,
            no_comm_cluster, utility, 0.0, NO_DELAY,
        )
        assert cand is not None
        assert cand.allocation.gpu_types == {"V100"}
        assert cand.allocation.total_workers == 2

    def test_gang_size_always_exact(self, no_comm_cluster, matrix, utility):
        for w in (1, 2, 4):
            rt = queued(make_job(0, "resnet18", workers=w))
            prices = prices_for([rt], no_comm_cluster, matrix, utility)
            cand = find_alloc(
                rt, no_comm_cluster.fresh_state(), prices, matrix,
                no_comm_cluster, utility, 0.0, NO_DELAY,
            )
            assert cand is not None
            assert cand.allocation.total_workers == w

    def test_returns_none_when_nothing_fits(
        self, no_comm_cluster, matrix, utility
    ):
        rt = queued(make_job(0, "resnet18", workers=2))
        state = no_comm_cluster.fresh_state()
        # Drain every slot.
        for slot, free in list(state.free_slots()):
            state.allocate(Allocation({slot: free}))
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        assert (
            find_alloc(rt, state, prices, matrix, no_comm_cluster, utility,
                       0.0, NO_DELAY)
            is None
        )

    def test_mixed_gang_when_fast_types_scarce(
        self, no_comm_cluster, matrix, utility
    ):
        """Hadar's signature move: top up a gang with slower types."""
        rt = queued(make_job(0, "resnet18", workers=6))
        state = no_comm_cluster.fresh_state()
        # Take 3 of the 4 V100s: no 6-gang of V100s possible (and no type
        # has 6 devices), so the gang must mix.
        state.allocate(Allocation({(0, "V100"): 2, (1, "V100"): 1}))
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        cand = find_alloc(
            rt, state, prices, matrix, no_comm_cluster, utility, 0.0, NO_DELAY
        )
        assert cand is not None
        assert len(cand.allocation.gpu_types) >= 2

    def test_rate_is_bottleneck_times_gang(
        self, no_comm_cluster, matrix, utility
    ):
        rt = queued(make_job(0, "resnet18", workers=2))
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        cand = find_alloc(
            rt, no_comm_cluster.fresh_state(), prices, matrix,
            no_comm_cluster, utility, 0.0, NO_DELAY,
        )
        assert cand is not None
        slowest = min(matrix.rate("resnet18", t) for t in cand.allocation.gpu_types)
        assert cand.rate == pytest.approx(slowest * 2)


class TestStickiness:
    def test_current_allocation_kept_when_equivalent(
        self, no_comm_cluster, matrix, utility
    ):
        """With a reallocation penalty, keeping the current gang wins ties."""
        rt = queued(make_job(0, "resnet18", workers=2))
        rt.state = JobState.RUNNING
        rt.allocation = Allocation({(1, "V100"): 2})  # already on V100s
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        cand = find_alloc(
            rt, no_comm_cluster.fresh_state(), prices, matrix,
            no_comm_cluster, utility, 3600.0, TEN_S,
        )
        assert cand is not None
        assert cand.allocation == rt.allocation

    def test_upgrade_worth_the_delay(self, no_comm_cluster, matrix, utility):
        """A K80→V100 move pays 10 s but saves hours: it must move."""
        rt = queued(make_job(0, "resnet50", workers=2, epochs=2))
        rt.state = JobState.RUNNING
        rt.allocation = Allocation({(0, "K80"): 1, (2, "K80"): 1})
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        cand = find_alloc(
            rt, no_comm_cluster.fresh_state(), prices, matrix,
            no_comm_cluster, utility, 3600.0, TEN_S,
        )
        assert cand is not None
        assert cand.allocation != rt.allocation
        assert cand.allocation.gpu_types == {"V100"}


class TestPayoffFilter:
    def test_saturated_prices_block_admission(
        self, no_comm_cluster, matrix, utility
    ):
        """At U_max prices everywhere, payoffs go non-positive (line 33)."""
        rt = queued(make_job(0, "resnet18", workers=1))
        book = prices_for([rt], no_comm_cluster, matrix, utility)
        # Force saturation: a synthetic book where U_min == U_max == huge.
        huge = {t: 1e12 for t in ("V100", "P100", "K80")}
        saturated = PriceBook(u_min=dict(huge), u_max=dict(huge), eta=book.eta)
        cand = find_alloc(
            rt, no_comm_cluster.fresh_state(), saturated, matrix,
            no_comm_cluster, utility, 0.0, NO_DELAY,
        )
        assert cand is None

    def test_positive_payoff_on_idle_cluster(
        self, no_comm_cluster, matrix, utility
    ):
        rt = queued(make_job(0, "cyclegan", workers=1))
        prices = prices_for([rt], no_comm_cluster, matrix, utility)
        cand = find_alloc(
            rt, no_comm_cluster.fresh_state(), prices, matrix,
            no_comm_cluster, utility, 0.0, NO_DELAY,
        )
        assert cand is not None
        assert cand.payoff > 0
        assert cand.utility == pytest.approx(cand.payoff + cand.cost)


class TestCommAwareness:
    def test_consolidation_preferred_for_chatty_models(
        self, small_cluster, matrix, utility
    ):
        """With the comm model on, a single-server gang beats an equally
        fast cross-server one."""
        rt = queued(make_job(0, "resnet18", workers=2))
        prices = prices_for([rt], small_cluster, matrix, utility)
        cand = find_alloc(
            rt, small_cluster.fresh_state(), prices, matrix,
            small_cluster, utility, 0.0, NO_DELAY,
        )
        assert cand is not None
        assert cand.allocation.is_consolidated

    def test_single_type_server_found_behind_scattered_walks(
        self, matrix, utility
    ):
        """Both cross-server walks start on the two one-GPU servers, so
        only the consolidated family offers the whole gang on server 2."""
        cluster = Cluster(
            [Node(0, {"V100": 1}), Node(1, {"V100": 1}), Node(2, {"V100": 4})]
        )
        rt = queued(make_job(0, "resnet18", workers=2))
        prices = prices_for([rt], cluster, matrix, utility)
        cand = find_alloc(
            rt, cluster.fresh_state(), prices, matrix, cluster, utility,
            0.0, NO_DELAY,
        )
        assert cand is not None
        assert cand.allocation == Allocation({(2, "V100"): 2})


def search_and_reference(rt, state, prices, matrix, cluster, utility, delay):
    """The pruned search on a cold context, its counters, and the unpruned
    straight-line reference's best at the same state."""

    def context():
        return RoundContext(
            prices=prices, matrix=matrix, cluster=cluster, utility=utility,
            now=0.0, delay_estimator=delay, state=state,
        )

    ctx = context()
    cand = cached_find_alloc(ctx, rt, state)
    return cand, ctx.stats, reference_explain(context(), rt, state).best


class TestDominancePruning:
    """Edge cases of the pruning in ``_generate_candidates``: within one
    (spans-servers, bottleneck-group) group only the candidates that can
    still win after the job's current placement is set aside get costed."""

    def test_exact_cost_tie_goes_to_lowest_picks(self, matrix, utility):
        """Five identical idle servers offer five equal-cost gangs: two are
        costed and the lowest picks wins the tie."""
        cluster = Cluster([Node(i, {"V100": 4}) for i in range(5)])
        rt = queued(make_job(0, "resnet18", workers=2))
        prices = prices_for([rt], cluster, matrix, utility)
        cand, stats, reference = search_and_reference(
            rt, cluster.fresh_state(), prices, matrix, cluster, utility,
            NO_DELAY,
        )
        assert cand == reference
        assert cand.allocation == Allocation({(0, "V100"): 2})
        assert stats.candidate_evals == 2

    @pytest.mark.parametrize("others_taken", [0, 1])
    def test_straggling_current_keeps_runner_up(
        self, others_taken, matrix, utility
    ):
        """The job's current gang is the cheapest of its group (tied, or
        strictly with the other servers partly taken) but straggles, so
        the next-cheapest non-current gang must still be costed."""
        cluster = Cluster([Node(i, {"V100": 4}) for i in range(4)])
        state = cluster.fresh_state()
        if others_taken:
            for node_id in (1, 2, 3):
                state.allocate(Allocation({(node_id, "V100"): others_taken}))
        rt = queued(make_job(0, "resnet18", workers=2))
        rt.state = JobState.RUNNING
        rt.allocation = Allocation({(0, "V100"): 2})
        rt.slowdown = 0.5
        prices = prices_for([rt], cluster, matrix, utility)
        cand, _, reference = search_and_reference(
            rt, state, prices, matrix, cluster, utility, NO_DELAY
        )
        assert reference.allocation == Allocation({(1, "V100"): 2})
        assert cand == reference

    def test_base_costs_within_rounding_band(self, utility):
        """Two cross-server gangs whose base costs differ by one ulp tie
        after the division by the comm penalty; the one with the higher
        base cost but the lower picks wins, although a third, cheaper gang
        (the straggling current placement) sorts ahead of both."""
        rate = 4.0
        matrix = ThroughputMatrix(
            {"resnet50": {"K80": rate, "P100": rate, "V100": rate}}
        )
        cluster = Cluster(
            [
                Node(0, {"K80": 1}),
                Node(1, {"K80": 1}),
                Node(2, {"P100": 1}),
                Node(3, {"V100": 1}),
            ]
        )
        rt = queued(make_job(0, "resnet50", workers=2, epochs=1,
                             iters_per_epoch=1000))
        penalty = cluster.comm.throughput_penalty_n(
            2, True, rt.job.model.model_bytes, 1.0 / rate
        )
        # Find a K80 price ``k`` and the next float below it, ``q``, for
        # which ``k + q`` (K80+P100) and ``k + k`` (both K80s) are distinct
        # yet equal once divided by the penalty: a sum just under 2**-8
        # whose quotient crosses into the next binade.
        k = 2.0**-8 * penalty / 2
        for _ in range(400):
            k = math.nextafter(k, 1.0)
            q = math.nextafter(k, 0.0)
            if k + q < k + k and (k + q) / penalty == (k + k) / penalty:
                break
        else:
            pytest.fail("no rounding tie found near 2**-8")
        prices = PriceBook(
            u_min={"K80": k, "P100": q, "V100": q / 2},
            u_max={"K80": 0.05, "P100": 0.05, "V100": 0.05},
            eta=1.0,
        )
        rt.state = JobState.RUNNING
        rt.allocation = Allocation({(2, "P100"): 1, (3, "V100"): 1})
        rt.slowdown = 0.5
        cand, _, reference = search_and_reference(
            rt, cluster.fresh_state(), prices, matrix, cluster, utility,
            NO_DELAY,
        )
        assert reference.allocation == Allocation({(0, "K80"): 1, (1, "K80"): 1})
        assert cand == reference

    def test_rate_ties_keep_generations_apart(self, utility):
        """Two models rank the types in one order (K80, P100, V100), one
        with every rate tied, one strictly.  For the tied model the pricey
        K80 server shares a pruning group with three cheap V100 servers
        and is dropped; for the strict model it is a group of its own and
        the best.  Searched in that order through one context, the
        strict model must not reuse the tied model's generation."""
        matrix = ThroughputMatrix(
            {
                "resnet18": {"K80": 4.0, "P100": 4.0, "V100": 4.0},
                "resnet50": {"K80": 4.0, "P100": 2.0, "V100": 1.0},
            }
        )
        cluster = Cluster(
            [Node(0, {"K80": 2})] + [Node(i, {"V100": 2}) for i in (1, 2, 3)]
        )
        prices = PriceBook(
            u_min={"K80": 1e-3, "P100": 1e-5, "V100": 1e-5},
            u_max={"K80": 0.05, "P100": 0.05, "V100": 0.05},
            eta=1.0,
        )
        state = cluster.fresh_state()

        def context():
            return RoundContext(
                prices=prices, matrix=matrix, cluster=cluster,
                utility=utility, now=0.0, delay_estimator=NO_DELAY,
                state=state,
            )

        tied = queued(make_job(0, "resnet18", workers=2))
        strict = queued(make_job(1, "resnet50", workers=2))
        shared = context()
        for rt, best in ((tied, (1, "V100")), (strict, (0, "K80"))):
            reference = reference_explain(context(), rt, state).best
            assert reference.allocation == Allocation({best: 2})
            assert cached_find_alloc(shared, rt, state) == reference


class TestSlotBookClasses:
    """Identical servers fall into classes by free vector; the consolidated
    family walks each class once, for its two lowest node ids, while one
    context's slot book follows the state through commits and releases."""

    def test_identical_servers_split_by_free_count(self, matrix, utility):
        cluster = Cluster([Node(i, {"V100": 4}) for i in range(9)])
        state = cluster.fresh_state()
        for node_id, used in ((0, 1), (1, 1), (2, 1), (3, 3), (4, 3), (5, 3)):
            state.allocate(Allocation({(node_id, "V100"): used}))
        packed = queued(make_job(0, "resnet18", workers=2))
        spread = queued(make_job(1, "resnet18", workers=6))
        prices = prices_for([packed, spread], cluster, matrix, utility)

        def context():
            return RoundContext(
                prices=prices, matrix=matrix, cluster=cluster, utility=utility,
                now=0.0, delay_estimator=NO_DELAY, state=state,
            )

        shared = context()

        def search(rt):
            cand = cached_find_alloc(shared, rt, state)
            assert cand == reference_explain(context(), rt, state).best
            return cand.allocation

        # Free counts 3,3,3 | 1,1,1 | 4,4,4: the idle servers are cheapest,
        # the lowest id wins their tie, and a spread gang takes two whole.
        idle = Allocation({(6, "V100"): 2})
        assert search(packed) == idle
        assert search(spread) == Allocation({(6, "V100"): 4, (7, "V100"): 2})
        state.allocate(idle)  # server 6 leaves the idle class
        assert search(packed) == Allocation({(7, "V100"): 2})
        assert search(spread) == Allocation({(7, "V100"): 4, (8, "V100"): 2})
        state.allocate(Allocation({(7, "V100"): 2}))
        assert search(packed) == Allocation({(8, "V100"): 2})
        state.release(idle)  # and rejoins it
        assert search(packed) == idle
        assert search(spread) == Allocation({(6, "V100"): 4, (8, "V100"): 2})

    def test_mixed_gang_comes_only_from_its_class(self, utility):
        """Six identical two-type servers in three classes by free vector.
        The cheapest gang packs both types on an idle server, a gang no
        cross-server walk builds, so only that class's walk finds it."""
        matrix = ThroughputMatrix({"resnet50": {"K80": 4.0, "V100": 4.0}})
        cluster = Cluster([Node(i, {"K80": 2, "V100": 2}) for i in range(6)])
        state = cluster.fresh_state()
        for node_id in (0, 1):
            state.allocate(Allocation({(node_id, "V100"): 1}))
        for node_id in (4, 5):
            state.allocate(Allocation({(node_id, "K80"): 2}))
        rt = queued(make_job(0, "resnet50", workers=3))
        prices = prices_for([rt], cluster, matrix, utility)
        cand, _, reference = search_and_reference(
            rt, state, prices, matrix, cluster, utility, NO_DELAY
        )
        assert reference.allocation == Allocation({(2, "K80"): 2, (2, "V100"): 1})
        assert cand == reference


def _fixed_prices(u_min: dict[str, float]) -> PriceBook:
    return PriceBook(u_min=u_min, u_max=dict.fromkeys(u_min, 1e-3), eta=1.0)


def _generated_picks(ctx, rt, state) -> set:
    """The pick sets one cold generation keeps for ``rt``'s shape."""
    model = rt.job.model.name
    gen = _generate_candidates(
        ctx, model, rt.job.num_workers, ctx.usable_desc(model), state.key()
    )
    return {picks for picks, _ in gen}


class TestClassTemplates:
    """The consolidated walks memoized per server class across states, and
    the cross-server tier walks skipped when they would repeat."""

    def test_fault_shrunk_class_keeps_its_own_template(self, matrix, utility):
        """Servers 1 (4 V100s, one taken) and 2 (one of 4 failed) have the
        same free vector but different inventories, hence different Eq. (5)
        prices: server 2 is idle and as cheap as the fault-shrunk server 0,
        server 1 the priciest.  Sharing server 1's template would carry its
        base cost to server 2, whose gang would then sort behind the two
        mid-priced 8-GPU servers and be pruned.  A commit elsewhere then
        re-walks only the class it changed."""
        cluster = Cluster(
            [Node(i, {"V100": 4}) for i in range(3)]
            + [Node(i, {"V100": 8}) for i in (3, 4)]
        )
        state = cluster.fresh_state()
        state.fail(0, "V100", 3)
        state.fail(2, "V100", 1)
        for node_id in (1, 3, 4):
            state.allocate(Allocation({(node_id, "V100"): 1}))
        prices = _fixed_prices({"V100": 1e-6})
        rt = queued(make_job(0, "resnet18", workers=2, epochs=1,
                             iters_per_epoch=100))

        def context():
            return RoundContext(
                prices=prices, matrix=matrix, cluster=cluster,
                utility=utility, now=0.0, delay_estimator=NO_DELAY,
                state=state,
            )

        shared = context()
        reference = reference_explain(context(), rt, state).best
        assert reference.allocation == Allocation({(2, "V100"): 2})
        assert cached_find_alloc(shared, rt, state) == reference
        (templates,) = shared.class_walks.values()
        assert len(templates) == 4  # servers 3 and 4 share one class

        state.allocate(Allocation({(4, "V100"): 2}))
        reference = reference_explain(context(), rt, state).best
        assert cached_find_alloc(shared, rt, state) == reference
        assert len(templates) == 5  # only server 4's new class was walked

    def test_rate_ties_keep_class_templates_apart(self, utility):
        """Two models rank K80 before P100, one tied and one strictly.  For
        the tied model the P100 servers share the K80 server's pruning
        group; for the strict one they form their own, and the faster K80
        gang is its best although two P100 gangs are cheaper.  Templates
        carry the group, so the strict model must not reuse the tied one's."""
        matrix = ThroughputMatrix(
            {
                "resnet18": {"K80": 4.0, "P100": 4.0},
                "resnet50": {"K80": 4.0, "P100": 2.0},
            }
        )
        cluster = Cluster(
            [Node(0, {"K80": 2}), Node(1, {"P100": 2}), Node(2, {"P100": 2}),
             Node(3, {"P100": 4})]
        )
        state = cluster.fresh_state()
        state.allocate(Allocation({(3, "P100"): 1}))
        prices = _fixed_prices({"K80": 1e-4, "P100": 1e-6})

        def context():
            return RoundContext(
                prices=prices, matrix=matrix, cluster=cluster,
                utility=utility, now=0.0, delay_estimator=NO_DELAY,
                state=state,
            )

        shared = context()
        for job_id, model, best in ((0, "resnet18", (1, "P100")),
                                    (1, "resnet50", (0, "K80"))):
            rt = queued(make_job(job_id, model, workers=2, epochs=1,
                                 iters_per_epoch=100))
            reference = reference_explain(context(), rt, state).best
            assert reference.allocation == Allocation({best: 2})
            assert cached_find_alloc(shared, rt, state) == reference

    # V100 is fastest and priciest; K80 and P100 tie on rate, in that order.
    TIED = ThroughputMatrix({"resnet50": {"V100": 3.0, "K80": 2.0, "P100": 2.0}})

    def test_fast_walk_at_a_rate_tie_is_not_skipped(self, utility):
        """The P100 tier adds a type of the K80 tier's rank, so its fast
        walk may (and here does) take a P100 ahead of the K80 the previous
        fast walk ended on: V100 + P100 is a candidate of its own."""
        cluster = Cluster(
            [Node(0, {"V100": 1}), Node(1, {"K80": 2}), Node(2, {"P100": 2})]
        )
        state = cluster.fresh_state()
        ctx = RoundContext(
            prices=_fixed_prices({"V100": 3e-5, "K80": 1e-5, "P100": 5e-6}),
            matrix=self.TIED, cluster=cluster, utility=utility, now=0.0,
            delay_estimator=NO_DELAY, state=state,
        )
        rt = queued(make_job(0, "resnet50", workers=2))
        assert _generated_picks(ctx, rt, state) == {
            ((1, "K80", 2),),
            ((2, "P100", 2),),
            ((0, "V100", 1), (1, "K80", 1)),
            ((0, "V100", 1), (2, "P100", 1)),
        }

    def test_cheap_walk_at_an_equal_price_is_not_skipped(self, utility):
        """The P100's price equals that of the K80 the previous cheap walk
        ended on, and the rank ties too, so the lower node id puts it
        first: the cheap walk changes, and its gang wins the exact cost
        tie on picks.  Skipping it would leave a dearer V100 gang in the
        pruning group instead."""
        cluster = Cluster(
            [Node(0, {"V100": 1}), Node(1, {"P100": 1}), Node(2, {"K80": 1}),
             Node(3, {"K80": 1})]
        )
        state = cluster.fresh_state()
        prices = _fixed_prices({"V100": 3e-5, "K80": 1e-5, "P100": 1e-5})
        rt = queued(make_job(0, "resnet50", workers=2, epochs=1,
                             iters_per_epoch=100))
        cand, _, reference = search_and_reference(
            rt, state, prices, self.TIED, cluster, utility, NO_DELAY
        )
        assert reference.allocation == Allocation({(1, "P100"): 1, (2, "K80"): 1})
        assert cand == reference
        ctx = RoundContext(
            prices=prices, matrix=self.TIED, cluster=cluster, utility=utility,
            now=0.0, delay_estimator=NO_DELAY, state=state,
        )
        assert _generated_picks(ctx, rt, state) == {
            ((1, "P100", 1), (2, "K80", 1)),
            ((2, "K80", 1), (3, "K80", 1)),
        }
