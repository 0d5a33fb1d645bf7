"""Integration: the paper's qualitative claims at reduced scale.

These tests pin the *shape* of the evaluation — who wins on which metric —
on a small (fast) workload.  The magnitudes at the paper's scale live in
EXPERIMENTS.md and the benchmark harness.
"""

import pytest

from repro.baselines import GavelScheduler, TiresiasScheduler, YarnCapacityScheduler
from repro.cluster.cluster import simulated_cluster
from repro.core import HadarScheduler, hadar_for_objective
from repro.metrics.fairness import finish_time_fairness
from repro.metrics.jct import jct_stats
from repro.metrics.utilization import utilization_summary
from repro.sim.engine import simulate
from repro.workload.philly import PhillyTraceConfig, generate_philly_trace
from repro.workload.throughput import default_throughput_matrix


@pytest.fixture(scope="module")
def cluster():
    return simulated_cluster()


@pytest.fixture(scope="module")
def trace():
    # Enough jobs to contend for the 60 GPUs without taking minutes.
    return generate_philly_trace(
        PhillyTraceConfig(num_jobs=48, arrival_pattern="static", seed=1)
    )


@pytest.fixture(scope="module")
def results(cluster, trace):
    return {
        name: simulate(cluster, trace, factory())
        for name, factory in {
            "hadar": HadarScheduler,
            "gavel": GavelScheduler,
            "tiresias": TiresiasScheduler,
            "yarn-cs": YarnCapacityScheduler,
        }.items()
    }


class TestFig3JCT:
    def test_hadar_beats_every_baseline_on_mean_jct(self, results):
        hadar = jct_stats(results["hadar"]).mean
        for name in ("gavel", "tiresias", "yarn-cs"):
            assert hadar < jct_stats(results[name]).mean, name

    def test_hadar_beats_every_baseline_on_median_jct(self, results):
        hadar = jct_stats(results["hadar"]).median
        for name in ("gavel", "tiresias", "yarn-cs"):
            assert hadar < jct_stats(results[name]).median, name

    def test_baseline_ordering(self, results):
        """Gavel < Tiresias < YARN-CS on mean JCT (Fig. 3's ordering)."""
        gavel = jct_stats(results["gavel"]).mean
        tiresias = jct_stats(results["tiresias"]).mean
        yarn = jct_stats(results["yarn-cs"]).mean
        assert gavel < tiresias < yarn


class TestQueuingDelay:
    def test_hadar_shortens_waiting_vs_gavel(self, results):
        """Sec. I: Hadar shortens the queuing delay vs. Gavel."""
        hadar = jct_stats(results["hadar"]).mean_total_waiting
        gavel = jct_stats(results["gavel"]).mean_total_waiting
        assert hadar < gavel


class TestFig4Utilization:
    def test_hadar_utilization_near_top(self, results):
        """Hadar's contended-window utilization ≈ YARN-CS's (within 5 pts)
        and at least Gavel's."""
        util = {
            name: utilization_summary(r, contended=True).overall
            for name, r in results.items()
        }
        assert util["hadar"] >= util["gavel"] - 0.02
        assert util["hadar"] >= util["yarn-cs"] - 0.05


class TestFig5FTF:
    def test_hadar_fairest(self, results):
        matrix = default_throughput_matrix()
        ftf = {
            name: finish_time_fairness(r, matrix).mean for name, r in results.items()
        }
        assert ftf["hadar"] < ftf["gavel"]
        assert ftf["hadar"] < ftf["tiresias"]


class TestFig6Makespan:
    @pytest.fixture(scope="class")
    def hadar_mk(self, cluster, trace):
        return simulate(cluster, trace, hadar_for_objective("makespan"))

    def test_makespan_objective_beats_baselines(self, hadar_mk, results):
        assert hadar_mk.all_completed
        assert hadar_mk.makespan() < results["gavel"].makespan()
        assert hadar_mk.makespan() < results["tiresias"].makespan()

    def test_makespan_objective_trades_jct(self, hadar_mk, results):
        """Steering to makespan sacrifices (or at least does not improve)
        the default objective's mean JCT ordering against itself."""
        assert hadar_mk.makespan() <= results["hadar"].makespan()


class TestRoundChangeRate:
    def test_most_rounds_change_free(self, results):
        """Sec. IV-A-5: only a minority of rounds change allocations."""
        r = results["hadar"]
        # Boundaries where something moved / total scheduling invocations.
        assert r.rounds_with_change <= 0.6 * r.scheduling_invocations
