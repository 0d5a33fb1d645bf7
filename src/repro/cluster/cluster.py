"""The cluster: an immutable collection of nodes, plus standard builders.

Two concrete configurations from the paper are provided:

* :func:`simulated_cluster` — the trace-driven simulation setup
  (Sec. IV-A): 15 nodes, 20 GPUs of each of {V100, P100, K80};
* :func:`prototype_cluster` — the AWS testbed (Sec. IV-B): 8 GPUs across
  single-GPU instances, two each of {T4, K520, K80, V100}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.node import Node
from repro.cluster.state import ClusterState
from repro.cluster.topology import CommunicationModel

__all__ = [
    "Cluster",
    "simulated_cluster",
    "prototype_cluster",
    "homogeneous_node_cluster",
]


@dataclass(frozen=True)
class Cluster:
    """An immutable set of nodes and the interconnect between them.

    All transient occupancy is tracked separately in
    :class:`~repro.cluster.state.ClusterState`; a cluster object can be
    shared freely between schedulers, the simulator and metrics code.
    """

    nodes: Sequence[Node]
    comm: CommunicationModel = field(default_factory=CommunicationModel)

    def __post_init__(self) -> None:
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in cluster: {sorted(ids)}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        # Derived once (not a field: stays out of __eq__ and repr);
        # schedulers read it per job per round.
        object.__setattr__(
            self, "_gpu_types", tuple(sorted({t for n in self.nodes for t in n.gpus}))
        )
        # The all-free state every fresh_state() copies, built once the
        # same way (schedulers and the validator take fresh states per round).
        object.__setattr__(self, "_template", ClusterState.from_cluster(self))

    # -- capacity views -------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(n.total_gpus for n in self.nodes)

    @property
    def gpu_types(self) -> tuple[str, ...]:
        """All GPU type names present, sorted for deterministic iteration."""
        return self._gpu_types  # type: ignore[attr-defined]

    def node(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")

    def capacity(self, type_name: str) -> int:
        """Cluster-wide number of GPUs of one type."""
        return sum(n.count(type_name) for n in self.nodes)

    def capacity_by_type(self) -> dict[str, int]:
        return {t: self.capacity(t) for t in self.gpu_types}

    def nodes_with_type(self, type_name: str) -> list[Node]:
        return [n for n in self.nodes if n.has_type(type_name)]

    # -- state ----------------------------------------------------------
    def fresh_state(self) -> ClusterState:
        """A new all-free occupancy tracker for this cluster.

        A :meth:`~ClusterState.copy` of a template built at construction,
        equal to ``ClusterState.from_cluster(self)``; the copy shares only
        what no mutation writes in place.
        """
        return self._template.copy()  # type: ignore[attr-defined]

    def __str__(self) -> str:  # pragma: no cover - repr helper
        caps = ", ".join(f"{c}×{t}" for t, c in sorted(self.capacity_by_type().items()))
        return f"Cluster({self.num_nodes} nodes; {caps})"


def homogeneous_node_cluster(
    type_counts: dict[str, int],
    *,
    gpus_per_node: int = 4,
    network_gbps: float = 25.0,
    comm: CommunicationModel | None = None,
) -> Cluster:
    """Build a cluster of single-type nodes.

    ``type_counts`` maps each GPU type to the *total* number of GPUs of
    that type; GPUs are packed ``gpus_per_node`` to a server (the last
    server of a type may be partially filled).
    """
    if gpus_per_node <= 0:
        raise ValueError("gpus_per_node must be positive")
    nodes: list[Node] = []
    node_id = 0
    for type_name, total in sorted(type_counts.items()):
        remaining = int(total)
        if remaining < 0:
            raise ValueError(f"negative GPU count for {type_name!r}")
        while remaining > 0:
            take = min(gpus_per_node, remaining)
            nodes.append(Node(node_id, {type_name: take}, network_gbps=network_gbps))
            node_id += 1
            remaining -= take
    return Cluster(nodes, comm=comm or CommunicationModel())


def simulated_cluster(scale: int = 1, *, comm: CommunicationModel | None = None) -> Cluster:
    """The paper's simulated cluster (Sec. IV-A), optionally scaled.

    At ``scale=1``: 15 nodes and 20 GPUs of each of V100 / P100 / K80,
    i.e. 5 nodes of 4 GPUs per type, 60 GPUs total.  ``scale=k``
    multiplies every type's GPU count by ``k`` (used by the Fig. 7
    scalability experiment, where the cluster grows with the job count).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    counts = {"V100": 20 * scale, "P100": 20 * scale, "K80": 20 * scale}
    return homogeneous_node_cluster(counts, gpus_per_node=4, comm=comm)


def prototype_cluster(*, comm: CommunicationModel | None = None) -> Cluster:
    """The AWS prototype cluster (Sec. IV-B): 8 single-GPU instances.

    Two each of g4dn.xlarge (T4), g2.2xlarge (K520), p2.xlarge (K80) and
    p3.2xlarge (V100).  Every instance is modelled as its own node, so any
    multi-GPU gang necessarily crosses servers — as on the real testbed.
    """
    order: Iterable[str] = ("T4", "T4", "K520", "K520", "K80", "K80", "V100", "V100")
    nodes = [Node(i, {t: 1}, network_gbps=25.0) for i, t in enumerate(order)]
    return Cluster(nodes, comm=comm or CommunicationModel())
