"""Tests for the simulated WAN substrate."""

import asyncio

import pytest

from repro.simnet import (
    PipelineCosts,
    SimError,
    SimNetwork,
    cluster_throughput,
    leader_amortized_tx,
    paper_wan_topology,
    same_datacenter,
    wan_subset,
)


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------


def test_paper_topology_shape():
    topo = paper_wan_topology()
    assert topo.n_sites == 5
    assert "frankfurt" in topo.names
    # Symmetric, zero diagonal.
    for a in range(5):
        assert topo.latency(a, a) == 0.0
        for b in range(5):
            assert topo.latency(a, b) == topo.latency(b, a)


def test_transatlantic_slower_than_coastal():
    topo = paper_wan_topology()
    nva, nca, ire = 0, 1, 3
    assert topo.latency(nca, ire) > topo.latency(nva, nca)


def test_same_datacenter_uniform():
    topo = same_datacenter(4)
    assert topo.n_sites == 4
    lat = topo.latency(0, 1)
    assert all(
        topo.latency(a, b) == lat
        for a in range(4) for b in range(4) if a != b
    )


def test_wan_subset_wraps():
    topo = wan_subset(8)
    assert topo.n_sites == 8
    # Site 5 cycles back to region 0: zero latency to site 0.
    assert topo.latency(0, 5) == 0.0


# ----------------------------------------------------------------------
# Event network
# ----------------------------------------------------------------------


def test_message_delivery_order():
    topo = paper_wan_topology()
    net = SimNetwork(topo)
    log = []
    for node in range(topo.n_sites):
        net.register(node, lambda _net, src, msg, n=node: log.append((n, msg)))
    # Frankfurt (4) -> Ireland (3) is fast; Frankfurt -> N.Ca (1) slow.
    net.send(4, 1, "slow", 100)
    net.send(4, 3, "fast", 100)
    asyncio.run(net.run_async())
    assert log == [(3, "fast"), (1, "slow")]


def test_clock_advances_by_latency_plus_transfer():
    topo = same_datacenter(2, latency_ms=1.0, bandwidth_gbps=0.001)  # 1 Mbps
    net = SimNetwork(topo)
    net.register(0, lambda *_: None)
    net.register(1, lambda *_: None)
    net.send(0, 1, "payload", 125_000)  # 1 second at 1 Mbps
    elapsed = asyncio.run(net.run_async())
    assert elapsed == pytest.approx(1.001, rel=1e-6)


def test_byte_accounting():
    topo = same_datacenter(3)
    net = SimNetwork(topo)
    for node in range(3):
        net.register(node, lambda *_: None)
    net.send(0, 1, "a", 100)
    net.send(0, 2, "b", 50)
    asyncio.run(net.run_async())
    assert net.bytes_sent[0][1] == 100
    assert net.total_bytes_from(0) == 150
    assert net.messages_sent == 2


def test_broadcast():
    topo = same_datacenter(3)
    net = SimNetwork(topo)
    received = []
    for node in range(3):
        net.register(node, lambda _n, _s, m, node=node: received.append(node))
    net.broadcast(0, "hello", 10)
    asyncio.run(net.run_async())
    assert sorted(received) == [1, 2]


def test_handler_chaining():
    """Handlers can send more messages (multi-round protocols)."""
    topo = same_datacenter(2)
    net = SimNetwork(topo)
    transcript = []

    def ping(net_, src, msg):
        transcript.append(("ping", msg))
        if msg < 3:
            net_.send(0, 1, msg + 1, 10)

    def pong(net_, src, msg):
        transcript.append(("pong", msg))
        net_.send(1, 0, msg, 10)

    net.register(0, ping)
    net.register(1, pong)
    net.send(0, 1, 0, 10)
    asyncio.run(net.run_async())
    assert ("pong", 3) in transcript


def test_send_to_unregistered_node():
    net = SimNetwork(same_datacenter(2))
    net.register(0, lambda *_: None)
    with pytest.raises(SimError):
        net.send(0, 1, "x", 1)


def test_event_budget():
    topo = same_datacenter(2)
    net = SimNetwork(topo)
    net.register(0, lambda n, s, m: n.send(0, 1, m, 1))
    net.register(1, lambda n, s, m: n.send(1, 0, m, 1))
    net.send(0, 1, "loop", 1)
    with pytest.raises(SimError):
        asyncio.run(net.run_async(max_events=100))


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
