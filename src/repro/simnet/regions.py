"""The paper's five-datacenter topology, as a latency/bandwidth model.

Section 6.1: "we configured five Amazon EC2 servers (eight-core
c3.2xlarge machines ...) in five Amazon data centers (N. Va., N. Ca.,
Oregon, Ireland, and Frankfurt)".  Without EC2, this module encodes
that topology as a one-way latency matrix (milliseconds, approximating
public inter-region RTT measurements) and per-link bandwidth, which the
throughput model combines with *measured* CPU costs.

The same-datacenter topology of Figure 5 ("we locate all of the servers
in the same data center, so that the latency and bandwidth between each
pair of servers is roughly constant") is :func:`same_datacenter`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topology:
    """Server locations plus pairwise one-way latency (seconds)."""

    names: tuple[str, ...]
    latency_s: tuple[tuple[float, ...], ...]
    bandwidth_bps: float
    cores_per_server: int = 8

    @property
    def n_sites(self) -> int:
        return len(self.names)

    def latency(self, a: int, b: int) -> float:
        return self.latency_s[a][b]


_MS = 1e-3

#: Approximate one-way latencies between the paper's five regions.
_PAPER_REGIONS = ("n-virginia", "n-california", "oregon", "ireland", "frankfurt")
_PAPER_LATENCY_MS = (
    (0.0, 31.0, 38.0, 38.0, 44.0),
    (31.0, 0.0, 10.0, 70.0, 73.0),
    (38.0, 10.0, 0.0, 62.0, 79.0),
    (38.0, 70.0, 62.0, 0.0, 12.0),
    (44.0, 73.0, 79.0, 12.0, 0.0),
)


def paper_wan_topology(bandwidth_gbps: float = 1.0) -> Topology:
    """The 5-region WAN deployment of Figures 4/6 and Table 9."""
    latency = tuple(
        tuple(ms * _MS for ms in row) for row in _PAPER_LATENCY_MS
    )
    return Topology(
        names=_PAPER_REGIONS,
        latency_s=latency,
        bandwidth_bps=bandwidth_gbps * 1e9,
    )


def same_datacenter(
    n_servers: int,
    latency_ms: float = 0.5,
    bandwidth_gbps: float = 10.0,
) -> Topology:
    """Figure 5's topology: n servers behind one switch."""
    names = tuple(f"server-{i}" for i in range(n_servers))
    latency = tuple(
        tuple(0.0 if a == b else latency_ms * _MS for b in range(n_servers))
        for a in range(n_servers)
    )
    return Topology(
        names=names,
        latency_s=latency,
        bandwidth_bps=bandwidth_gbps * 1e9,
    )


def wan_subset(n_servers: int, bandwidth_gbps: float = 1.0) -> Topology:
    """First ``n`` of the paper's regions (cycling if n > 5)."""
    base = paper_wan_topology(bandwidth_gbps)
    indices = [i % base.n_sites for i in range(n_servers)]
    names = tuple(f"{base.names[i]}-{j}" for j, i in enumerate(indices))
    latency = tuple(
        tuple(base.latency_s[a][b] for b in indices) for a in indices
    )
    return Topology(
        names=names, latency_s=latency, bandwidth_bps=base.bandwidth_bps
    )
