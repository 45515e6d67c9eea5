"""Tests for the topology and throughput model behind the paper figures."""

import pytest

from baselines.throughput import (
    PipelineCosts,
    cluster_throughput,
    leader_amortized_tx,
    paper_wan_topology,
    same_datacenter,
)


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------


def test_paper_topology_shape():
    # the paper's c3.2xlarge servers: eight cores, 1 Gbps between regions
    topo = paper_wan_topology()
    assert topo.cores_per_server == 8
    assert topo.bandwidth_bps == pytest.approx(1e9)


def test_same_datacenter_uniform():
    # servers behind one switch: same machines, a faster link than the WAN
    topo = same_datacenter()
    assert topo.cores_per_server == paper_wan_topology().cores_per_server
    assert topo.bandwidth_bps > paper_wan_topology().bandwidth_bps


# ----------------------------------------------------------------------
# Throughput model
# ----------------------------------------------------------------------


def test_compute_bound_throughput():
    topo = paper_wan_topology()
    costs = PipelineCosts(server_cpu_s=0.008, server_tx_bytes=100)
    # 8 cores, 1 ms/core-submission -> 1000/s.
    assert cluster_throughput(costs, topo) == pytest.approx(1000.0)


def test_network_bound_throughput():
    topo = paper_wan_topology(bandwidth_gbps=0.000001)  # 1 kbps
    costs = PipelineCosts(server_cpu_s=1e-9, server_tx_bytes=1000)
    rate = cluster_throughput(costs, topo)
    assert rate == pytest.approx(0.125)  # 1000 bytes at 1 kbps = 8 s


def test_zero_cost_rejected():
    topo = paper_wan_topology()
    with pytest.raises(ValueError):
        cluster_throughput(PipelineCosts(0.0, 0.0), topo)


def test_leader_amortized_tx():
    # s=2: leader sends b, non-leader sends b, each leads half the
    # time -> b per submission on average.
    assert leader_amortized_tx(100, 2) == pytest.approx(100.0)
    # Large s approaches 2b.
    assert leader_amortized_tx(100, 50) == pytest.approx(196.0)
