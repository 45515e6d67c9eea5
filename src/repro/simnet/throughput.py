"""Throughput model: measured CPU cost + modelled WAN cost.

The paper reports cluster throughput (submissions/second) on real EC2
hardware.  This reproduction measures the *computational* cost of each
pipeline on the local machine and combines it with the simulated
topology to model cluster throughput:

    rate = 1 / max( cpu_seconds / cores,            # compute-bound
                    bytes_per_submission / bandwidth )  # network-bound

Verification is batched, so inter-server latency amortizes to ~zero per
submission (it bounds *freshness*, not throughput) — matching the
paper's observation that adding same-datacenter servers barely changes
throughput (Figure 5) and that leadership is load-balanced across
servers (Section 6.1).

Absolute numbers are Python-speed, not Go-speed; the figure
benchmarks therefore report *ratios* (the no-privacy / no-robustness /
Prio cost multipliers of Table 9), which transfer across substrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.regions import Topology


@dataclass(frozen=True)
class PipelineCosts:
    """Per-submission costs of one pipeline at one configuration."""

    #: CPU-seconds consumed at the busiest server
    server_cpu_s: float
    #: bytes the busiest server must transmit, per submission
    server_tx_bytes: float
    #: bytes the busiest server must receive, per submission
    server_rx_bytes: float = 0.0


def cluster_throughput(
    costs: PipelineCosts,
    topology: Topology,
    utilization: float = 1.0,
) -> float:
    """Modelled sustained submissions/second for the whole cluster."""
    compute_limit = costs.server_cpu_s / topology.cores_per_server
    wire_limit = (
        max(costs.server_tx_bytes, costs.server_rx_bytes) * 8
        / topology.bandwidth_bps
    )
    bottleneck = max(compute_limit, wire_limit)
    if bottleneck <= 0:
        raise ValueError("costs must be positive")
    return utilization / bottleneck


def leader_amortized_tx(
    per_peer_bytes: float, n_servers: int
) -> float:
    """Average per-submission transmit bytes with rotating leadership.

    The leader transmits to s-1 peers; each server leads 1/s of the
    time (Section 6.1's load-balancing), so the average transmit cost
    per server is ((s-1) + (s-1)/s... ) — simplified: a leader sends
    (s-1)*b, a non-leader sends b, and each server is leader with
    probability 1/s:

        avg = (1/s) * (s-1) * b + ((s-1)/s) * b = 2b(s-1)/s
    """
    s = n_servers
    return 2.0 * per_peer_bytes * (s - 1) / s
