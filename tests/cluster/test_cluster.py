"""Unit tests for Cluster and the paper's builders."""

from dataclasses import fields

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import (
    Cluster,
    homogeneous_node_cluster,
    prototype_cluster,
    simulated_cluster,
)
from repro.cluster.node import Node
from repro.cluster.state import ClusterState


class TestCluster:
    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Cluster([Node(0, {"V100": 1}), Node(0, {"K80": 1})])

    def test_capacity_queries(self, small_cluster):
        assert small_cluster.capacity("V100") == 4
        assert small_cluster.capacity("P100") == 3
        assert small_cluster.capacity("K80") == 2
        assert small_cluster.total_gpus == 9
        assert small_cluster.gpu_types == ("K80", "P100", "V100")
        assert "_gpu_types" not in repr(small_cluster)
        assert small_cluster == Cluster(list(small_cluster.nodes))

    def test_node_lookup(self, small_cluster):
        assert small_cluster.node(1).node_id == 1
        with pytest.raises(KeyError):
            small_cluster.node(99)

    def test_nodes_with_type(self, small_cluster):
        ids = [n.node_id for n in small_cluster.nodes_with_type("K80")]
        assert ids == [0, 2]

    def test_fresh_state_is_all_free(self, small_cluster):
        state = small_cluster.fresh_state()
        assert state.total_free() == small_cluster.total_gpus


class TestFreshStateTemplate:
    """``fresh_state()`` copies a template built once per cluster."""

    def test_equals_a_state_built_from_the_cluster(self, small_cluster):
        built = ClusterState.from_cluster(small_cluster)
        fresh = small_cluster.fresh_state()
        assert fresh == built
        assert fresh.slots == built.slots
        assert fresh.key() == built.key()
        assert fresh.state_dict() == built.state_dict()
        assert fresh is not small_cluster.fresh_state()

    def test_mutating_one_copy_leaves_the_next_all_free(self, small_cluster):
        built = ClusterState.from_cluster(small_cluster).state_dict()
        used = small_cluster.fresh_state()
        used.allocate(Allocation({(0, "V100"): 2, (1, "P100"): 1}))
        failed = small_cluster.fresh_state()
        failed.fail(0, "K80", 1)
        failed.fail(2, "K80", 1)
        loaded = small_cluster.fresh_state()
        loaded.load_state_dict(used.state_dict())
        later = small_cluster.fresh_state()
        assert later.state_dict() == built
        assert later.total_free() == small_cluster.total_gpus
        assert later.key() == ClusterState.from_cluster(small_cluster).key()
        # The mutated copies kept their own changes.
        assert used.free(0, "V100") == later.free(0, "V100") - 2
        assert failed.capacity(0, "K80") == later.capacity(0, "K80") - 1
        assert loaded == used

    def test_template_is_not_a_field(self, small_cluster):
        def hash_outcome(cluster):
            # Nodes hold their GPU counts in a dict, so hashing reports that.
            try:
                return hash(cluster)
            except TypeError as exc:
                return str(exc)

        twin = Cluster(list(small_cluster.nodes), comm=small_cluster.comm)
        assert twin == small_cluster
        assert hash_outcome(twin) == hash_outcome(small_cluster)
        assert hash_outcome(small_cluster) == "unhashable type: 'dict'"
        assert repr(twin) == repr(small_cluster)
        assert "_template" not in repr(small_cluster)
        assert "ClusterState" not in repr(small_cluster)
        assert [f.name for f in fields(Cluster)] == ["nodes", "comm"]


class TestBuilders:
    def test_simulated_cluster_matches_paper(self):
        cluster = simulated_cluster()
        # Sec. IV-A: 15 nodes, 20 GPUs of each of V100/P100/K80.
        assert cluster.num_nodes == 15
        assert cluster.capacity_by_type() == {"V100": 20, "P100": 20, "K80": 20}

    def test_simulated_cluster_scales(self):
        cluster = simulated_cluster(scale=3)
        assert cluster.capacity("V100") == 60
        assert cluster.total_gpus == 180

    def test_simulated_cluster_bad_scale(self):
        with pytest.raises(ValueError):
            simulated_cluster(scale=0)

    def test_prototype_cluster_matches_paper(self):
        cluster = prototype_cluster()
        # Sec. IV-B: 8 GPUs, two each of T4 / K520 / K80 / V100.
        assert cluster.total_gpus == 8
        assert cluster.capacity_by_type() == {
            "T4": 2,
            "K520": 2,
            "K80": 2,
            "V100": 2,
        }
        # Single-GPU instances: every gang of 2 must span servers.
        assert all(n.total_gpus == 1 for n in cluster.nodes)

    def test_homogeneous_builder_packs_nodes(self):
        cluster = homogeneous_node_cluster({"V100": 10}, gpus_per_node=4)
        sizes = sorted(n.total_gpus for n in cluster.nodes)
        assert sizes == [2, 4, 4]

    def test_homogeneous_builder_validates(self):
        with pytest.raises(ValueError):
            homogeneous_node_cluster({"V100": 4}, gpus_per_node=0)
        with pytest.raises(ValueError):
            homogeneous_node_cluster({"V100": -1})
