"""Throughput model for the paper figures: topology plus measured CPU.

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``Topology``.

Paper experiments (Figures 4 and 5, Table 9): ``paper_wan_topology``,
``same_datacenter``, ``PipelineCosts``, ``cluster_throughput``,
``leader_amortized_tx``.
"""

from repro.simnet.regions import Topology, paper_wan_topology, same_datacenter
from repro.simnet.throughput import (
    PipelineCosts,
    cluster_throughput,
    leader_amortized_tx,
)

__all__ = [
    "Topology",
    "paper_wan_topology",
    "same_datacenter",
    "PipelineCosts",
    "cluster_throughput",
    "leader_amortized_tx",
]
