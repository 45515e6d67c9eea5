"""Simulated WAN substrate: topology, event network, throughput model.

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``SimError``, ``SimNetwork``, ``Topology``.

Paper experiments (Figures 4 and 5, Table 9): ``paper_wan_topology``,
``same_datacenter``, ``PipelineCosts``, ``cluster_throughput``,
``leader_amortized_tx``.

Tests only (``run_cluster`` is the executable spec of one Prio round
per server over the simulated network): ``ClusterReport``,
``run_cluster``, ``wan_subset``.
"""

from repro.simnet.network import SimError, SimNetwork
from repro.simnet.regions import (
    Topology,
    paper_wan_topology,
    same_datacenter,
    wan_subset,
)
from repro.simnet.prio_cluster import ClusterReport, run_cluster
from repro.simnet.throughput import (
    PipelineCosts,
    cluster_throughput,
    leader_amortized_tx,
)

__all__ = [
    "SimError",
    "SimNetwork",
    "Topology",
    "paper_wan_topology",
    "same_datacenter",
    "wan_subset",
    "ClusterReport",
    "run_cluster",
    "PipelineCosts",
    "cluster_throughput",
    "leader_amortized_tx",
]
