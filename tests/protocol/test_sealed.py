"""Sealed-upload differential suite: encryption must be outcome-invisible.

A sealed upload is the same submission in a box — so every observable
outcome (per-submission verdicts, published aggregates, replay
behavior, per-server statistics) must be bit-identical to the
cleartext delivery of the same prepared stream, at every shard count,
on both field backends, and whether the sealed bytes arrive in memory
or over a real TCP socket.  Corrupted rows are tampered *before*
sealing (and re-sealed), so both paths see the same bad submission and
must reject it identically.
"""

import asyncio
import copy
import multiprocessing
import random
from dataclasses import replace

import pytest

from repro.afe import VectorSumAfe
from repro.field import FIELD87
from repro.protocol import (
    PrioDeployment,
    ShardedFanout,
    resolve_fanout,
    seal_packet,
)
from repro.transport import (
    PrioTransportServer,
    Status,
    TransportClient,
    TransportConfig,
)

SHARD_COUNTS = [1, 2, 4]
SEED = b"sealed-diff-seed"


def _deployment(force_pure=None, executor=None, batch_size=8,
                encrypt=True, n_servers=2):
    afe = VectorSumAfe(FIELD87, length=4, n_bits=3)
    return PrioDeployment.create(
        afe, n_servers=n_servers, seed=SEED, rng=random.Random(0x5EA1),
        batch_size=batch_size, executor=executor,
        force_pure_backend=force_pure, encrypt=encrypt,
    )


def _corrupt(dep, submission, index=1):
    """Tamper one packet body pre-seal and re-seal it, so the sealed
    and cleartext forms carry the *same* corrupted share."""
    packet = submission.packets[index]
    body = bytearray(packet.body)
    body[0] ^= 0xFF
    tampered = replace(packet, body=bytes(body))
    submission.packets[index] = tampered
    submission.sealed_packets[index] = seal_packet(
        dep.client.server_box_keys[index], tampered, dep.client.rng
    )


def _stream(dep, n=24, corrupt=(), seed=9):
    rng = random.Random(seed)
    values = [[rng.randrange(8) for _ in range(4)] for _ in range(n)]
    submissions = dep.client.prepare_submissions(values)
    for i in corrupt:
        _corrupt(dep, submissions[i])
    return submissions


def _server_stats(dep):
    return [
        (s.n_accepted, s.n_rejected, s.n_replayed, s._pending_ids == set())
        for s in dep.servers
    ]


# ----------------------------------------------------------------------
# Sealed vs cleartext, K x backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("force_pure", [None, True],
                         ids=["auto-backend", "pure-backend"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sealed_matches_cleartext(n_shards, force_pure):
    executor = "inline" if n_shards == 1 else f"inline:{n_shards}"
    corrupt = (3, 10, 17)

    sealed_dep = _deployment(force_pure, executor=executor)
    submissions = _stream(sealed_dep, corrupt=corrupt)
    # the cleartext twin shares the server randomness seed; it never
    # opens a box, so box keys are irrelevant there
    clear_dep = _deployment(force_pure, executor=executor, encrypt=False)

    clear = clear_dep.deliver(copy.deepcopy(submissions))
    sealed = sealed_dep.deliver(submissions)
    assert sealed == clear
    assert all(sealed[i] is False for i in corrupt)
    assert sum(sealed) == len(submissions) - len(corrupt)
    assert sealed_dep.publish() == clear_dep.publish()
    assert _server_stats(sealed_dep) == _server_stats(clear_dep)

    # replay behavior: the same stream again decides all-False on both
    # paths, counted identically per server
    clear2 = clear_dep.deliver(copy.deepcopy(submissions))
    sealed2 = sealed_dep.deliver(submissions)
    assert sealed2 == clear2 == [False] * len(submissions)
    assert _server_stats(sealed_dep) == _server_stats(clear_dep)

    sealed_dep.close()
    clear_dep.close()


# ----------------------------------------------------------------------
# Sealed over TCP == sealed in memory
# ----------------------------------------------------------------------


def _config(**kwargs):
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("linger_s", 0.001)
    kwargs.setdefault("executor", "inline")
    return TransportConfig(**kwargs)


async def _serve_sealed(dep, submissions, config=None):
    server = PrioTransportServer(dep.servers, config or _config())
    await server.start()
    host, port = await server.serve_tcp("127.0.0.1", 0)
    client = await TransportClient.connect_tcp(host, port)
    try:
        frames = [
            (s.submission_id, client.frame_submission(s, sealed=True))
            for s in submissions
        ]
        statuses = await client.submit_many(frames, window=16)
    finally:
        await client.close()
        await server.stop()
    return statuses, server


def test_sealed_over_tcp_matches_sealed_in_memory():
    mem_dep = _deployment(executor="inline")
    submissions = _stream(mem_dep, n=17, corrupt=(2, 9))
    # same creation rng -> the transport twin holds identical box
    # keypairs, so the same sealed bytes open on both
    tx_dep = _deployment(executor="inline")
    mem_decisions = mem_dep.deliver(copy.deepcopy(submissions))

    statuses, server = asyncio.run(_serve_sealed(tx_dep, submissions))
    tx_decisions = [s is Status.ACCEPTED for s in statuses]
    assert tx_decisions == mem_decisions
    assert tx_dep.publish() == mem_dep.publish()
    assert server.stats.n_accepted == sum(mem_decisions)
    assert server.stats.n_rejected == 17 - sum(mem_decisions)

    mem_dep.close()
    tx_dep.close()


def test_sealed_over_tcp_process4_spreads_all_shards():
    """The acceptance scenario: sealed uploads over a real socket with
    ``executor="process:4"`` partition across all 4 shards of every
    server and decide bit-identically to the cleartext pipeline."""
    mem_dep = _deployment(executor="inline", encrypt=False)
    tx_dep = _deployment(executor="inline")
    submissions = _stream(tx_dep, n=24, corrupt=(5, 13))
    mem_decisions = mem_dep.deliver(copy.deepcopy(submissions))

    # pre-built fan-out so the driver-side shard state stays
    # inspectable after the transport server stops
    fanout, owned = resolve_fanout(tx_dep.servers, "process:4")
    assert owned and isinstance(fanout, ShardedFanout)
    try:
        statuses, _ = asyncio.run(_serve_sealed(
            tx_dep, submissions, _config(executor=fanout)
        ))
        tx_decisions = [s is Status.ACCEPTED for s in statuses]
        assert tx_decisions == mem_decisions
        assert tx_dep.publish() == mem_dep.publish()
        # the 2 corrupted rows reject at receive (FieldError), before
        # any replay id is recorded; every decided id is in exactly
        # one shard's cache, and every shard saw traffic
        for shard_row in fanout.shards:
            counts = [len(shard._replay) for shard in shard_row]
            assert all(count > 0 for count in counts), counts
            assert sum(counts) == len(submissions) - 2
    finally:
        fanout.close()
    assert multiprocessing.active_children() == []
    mem_dep.close()
    tx_dep.close()
