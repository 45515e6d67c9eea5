"""End-to-end socket transport: decisions must match the in-memory path."""

import asyncio
import random
from dataclasses import replace

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import PrioDeployment
from repro.protocol.wire import PacketKind
from repro.transport import (
    PrioTransportServer,
    Status,
    TransportClient,
    TransportConfig,
)


def _twin_deployments(afe, n_servers=3, batch_size=4):
    """Two bit-identical deployments (same server seed, same client rng)."""
    return (
        PrioDeployment.create(
            afe, n_servers, seed=b"xprt", batch_size=batch_size,
            rng=random.Random(7),
        ),
        PrioDeployment.create(
            afe, n_servers, seed=b"xprt", batch_size=batch_size,
            rng=random.Random(7),
        ),
    )


def _corrupt(submission):
    """Flip one byte in the explicit packet body: a valid frame whose
    proof no longer verifies."""
    packets = list(submission.packets)
    for i, pkt in enumerate(packets):
        if pkt.kind is PacketKind.EXPLICIT:
            body = bytearray(pkt.body)
            body[-1] ^= 0x01
            packets[i] = replace(pkt, body=bytes(body))
            break
    return replace(submission, packets=packets)


def _config(**kwargs):
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("linger_s", 0.001)
    kwargs.setdefault("executor", "inline")
    return TransportConfig(**kwargs)


async def _serve_and_submit(dep, submissions, config=None, unix_path=None):
    """Run one serve lifetime; returns per-submission statuses."""
    server = PrioTransportServer(dep.servers, config or _config())
    await server.start()
    if unix_path is not None:
        path = await server.serve_unix(unix_path)
        client = await TransportClient.connect_unix(path)
    else:
        host, port = await server.serve_tcp("127.0.0.1", 0)
        client = await TransportClient.connect_tcp(host, port)
    try:
        statuses = [await client.submit(s) for s in submissions]
    finally:
        await client.close()
        await server.stop()
    return statuses, server


def test_tcp_decisions_match_in_memory(tmp_path):
    afe = IntegerSumAfe(FIELD87, 4)
    mem_dep, tx_dep = _twin_deployments(afe)
    rng = random.Random(0xBEEF)
    submissions = mem_dep.client.prepare_submissions(
        [rng.randrange(16) for _ in range(17)]
    )
    submissions = [
        _corrupt(s) if i % 5 == 2 else s
        for i, s in enumerate(submissions)
    ]
    mem_decisions = mem_dep.deliver(submissions)

    statuses, server = asyncio.run(_serve_and_submit(tx_dep, submissions))
    tx_decisions = [s is Status.ACCEPTED for s in statuses]
    assert tx_decisions == mem_decisions
    assert tx_dep.publish() == mem_dep.publish()
    assert server.stats.n_submissions == 17
    assert server.stats.n_accepted == sum(mem_decisions)
    assert server.stats.n_rejected == 17 - sum(mem_decisions)
    assert server.stats.n_shed == 0


def test_unix_socket_matches_tcp_semantics(tmp_path):
    afe = IntegerSumAfe(FIELD87, 2)
    mem_dep, tx_dep = _twin_deployments(afe, n_servers=2)
    values = [0, 1, 2, 3, 1]
    submissions = mem_dep.client.prepare_submissions(values)
    mem_decisions = mem_dep.deliver(submissions)

    statuses, _ = asyncio.run(_serve_and_submit(
        tx_dep, submissions, unix_path=str(tmp_path / "prio.sock")
    ))
    assert [s is Status.ACCEPTED for s in statuses] == mem_decisions
    assert tx_dep.publish() == mem_dep.publish() == sum(values)


def test_replay_rejected_second_connection():
    """The same submission id on two connections is accepted once."""
    afe = IntegerSumAfe(FIELD87, 2)
    _, dep = _twin_deployments(afe, n_servers=2)
    submission = dep.client.prepare_submission(3)

    async def scenario():
        async with PrioTransportServer(dep.servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) as a:
                first = await a.submit(submission)
            async with await TransportClient.connect_tcp(host, port) as b:
                second = await b.submit(submission)
        return first, second

    first, second = asyncio.run(scenario())
    assert first is Status.ACCEPTED
    assert second is Status.REJECTED
    assert dep.publish() == 3


def test_graceful_drain_leaves_no_pending_ids():
    """stop() decides everything in flight; no id stays pending."""
    afe = IntegerSumAfe(FIELD87, 2)
    _, dep = _twin_deployments(afe, n_servers=2)
    submissions = dep.client.prepare_submissions([1] * 9)

    async def scenario():
        server = PrioTransportServer(
            dep.servers, _config(batch_size=4, linger_s=60.0)
        )
        await server.start()
        host, port = await server.serve_tcp("127.0.0.1", 0)
        client = await TransportClient.connect_tcp(host, port)
        # fire-and-forget: the 9th upload sits in a partial batch
        # behind a 60 s linger when stop() begins the drain
        futures = [
            await client.send_frame(
                client.frame_submission(s), s.submission_id
            )
            for s in submissions
        ]
        # let the frames land before draining: stop() must find the
        # 9th sitting in a partial batch behind the long linger
        while server.stats.n_submissions < len(submissions):
            await asyncio.sleep(0.001)
        await server.stop()
        statuses = await asyncio.gather(*futures)
        await client.close()
        return statuses, server

    statuses, server = asyncio.run(scenario())
    assert all(s is Status.ACCEPTED for s in statuses)
    assert server.pending_submissions == 0
    for prio_server in dep.servers:
        assert not prio_server._pending_ids
    assert dep.publish() == 9


def test_server_instance_is_reusable():
    """A second start/serve/stop cycle on one instance works and
    accumulates onto the same logical servers."""
    afe = IntegerSumAfe(FIELD87, 6)
    _, dep = _twin_deployments(afe, n_servers=2)
    server = PrioTransportServer(dep.servers, _config())
    first = dep.client.prepare_submissions([10, 20])
    second = dep.client.prepare_submissions([30])

    async def one_cycle(submissions):
        await server.start()
        host, port = await server.serve_tcp("127.0.0.1", 0)
        async with await TransportClient.connect_tcp(host, port) as client:
            return [await client.submit(s) for s in submissions]

    async def scenario():
        out = await one_cycle(first)
        await server.stop()
        out += await one_cycle(second)
        await server.stop()
        return out

    statuses = asyncio.run(scenario())
    assert all(s is Status.ACCEPTED for s in statuses)
    assert dep.publish() == 60
    assert server.stats.n_accepted == 3


def test_shed_responds_busy_without_touching_core():
    """Frames above the shed limit answer BUSY and are retryable."""
    afe = IntegerSumAfe(FIELD87, 2)
    _, dep = _twin_deployments(afe, n_servers=2)
    submissions = dep.client.prepare_submissions([1] * 6)
    config = _config(
        batch_size=2, linger_s=0.001,
        high_watermark=2, low_watermark=1, shed_limit=3,
    )

    async def scenario():
        async with PrioTransportServer(dep.servers, config) as server:
            server.hold_verification()
            host, port = await server.serve_tcp("127.0.0.1", 0)
            client = await TransportClient.connect_tcp(host, port)
            frames = [
                (s.submission_id, client.frame_submission(s))
                for s in submissions
            ]
            # one write, one data_received: the parser drains all six
            # frames past the paused watermark, so 3..6 hit the shed
            client.writer.write(b"".join(f for _, f in frames))
            await client.writer.drain()
            futures = {
                sid: asyncio.get_running_loop().create_future()
                for sid, _ in frames
            }
            client._inflight = {
                sid: (fut, 0.0) for sid, fut in futures.items()
            }
            client._ensure_reader()
            shed = [
                await futures[sid]
                for sid, _ in frames[config.shed_limit:]
            ]
            server.release_verification()
            kept = [
                await futures[sid]
                for sid, _ in frames[:config.shed_limit]
            ]
            await client.close()
            return kept, shed, server.stats.n_shed

    kept, shed, n_shed = asyncio.run(scenario())
    assert all(s is Status.BUSY for s in shed)
    assert all(s is Status.ACCEPTED for s in kept)
    assert n_shed == len(shed) == 3
    assert dep.publish() == 3
