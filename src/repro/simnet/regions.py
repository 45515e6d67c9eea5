"""The paper's five-datacenter topology, as a bandwidth model.

Section 6.1: "we configured five Amazon EC2 servers (eight-core
c3.2xlarge machines ...) in five Amazon data centers (N. Va., N. Ca.,
Oregon, Ireland, and Frankfurt)".  Without EC2, this module encodes
that topology as its sites, per-link bandwidth and cores per server,
which the throughput model combines with *measured* CPU costs.
Latency is not modelled: batched verification amortizes it away (see
:mod:`repro.simnet.throughput`).

The same-datacenter topology of Figure 5 ("we locate all of the servers
in the same data center, so that the latency and bandwidth between each
pair of servers is roughly constant") is :func:`same_datacenter`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topology:
    """Server sites, per-link bandwidth and cores per server."""

    names: tuple[str, ...]
    bandwidth_bps: float
    cores_per_server: int = 8

    @property
    def n_sites(self) -> int:
        return len(self.names)


_PAPER_REGIONS = ("n-virginia", "n-california", "oregon", "ireland", "frankfurt")


def paper_wan_topology(bandwidth_gbps: float = 1.0) -> Topology:
    """The 5-region WAN deployment of Figures 4/6 and Table 9."""
    return Topology(names=_PAPER_REGIONS, bandwidth_bps=bandwidth_gbps * 1e9)


def same_datacenter(n_servers: int, bandwidth_gbps: float = 10.0) -> Topology:
    """Figure 5's topology: n servers behind one switch."""
    return Topology(
        names=tuple(f"server-{i}" for i in range(n_servers)),
        bandwidth_bps=bandwidth_gbps * 1e9,
    )
