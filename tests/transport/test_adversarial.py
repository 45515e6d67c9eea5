"""Hostile clients against the socket front end.

Frame-level badness must poison only the offending connection;
protocol-level badness only the offending submission; floods must be
absorbed by watermarks, rate limits, and the shed — all while honest
connections keep getting correct decisions.
"""

import asyncio
import random

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import PrioDeployment
from repro.transport import (
    PrioTransportServer,
    Status,
    TransportClient,
    TransportConfig,
    encode_upload,
)


def _deployment(n_bits=4, n_servers=2):
    return PrioDeployment.create(
        IntegerSumAfe(FIELD87, n_bits), n_servers, seed=b"advs",
        batch_size=4, rng=random.Random(13),
    )


def _config(**kwargs):
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("linger_s", 0.001)
    kwargs.setdefault("executor", "inline")
    return TransportConfig(**kwargs)


async def _expect_closed(reader):
    """The server closing the connection surfaces as EOF (or reset)."""
    try:
        data = await asyncio.wait_for(reader.read(64), timeout=5.0)
    except ConnectionError:
        return
    assert data == b""


def _run_attack(attack, config=None, honest_values=(1, 2, 3, 4, 5)):
    """Run ``attack(reader, writer, server)`` against a live server,
    then prove honest traffic still works on a fresh connection."""
    dep = _deployment()
    submissions = dep.client.prepare_submissions(list(honest_values))

    async def scenario():
        async with PrioTransportServer(dep.servers, config or _config()) \
                as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await attack(reader, writer, server)
            finally:
                writer.close()
            async with await TransportClient.connect_tcp(host, port) \
                    as honest:
                statuses = [await honest.submit(s) for s in submissions]
            return statuses, server.stats

    statuses, stats = asyncio.run(scenario())
    assert all(s is Status.ACCEPTED for s in statuses)
    assert dep.publish() == sum(honest_values)
    return stats


def test_oversized_length_prefix_poisons_connection():
    async def attack(reader, writer, server):
        writer.write((1 << 31).to_bytes(4, "big"))
        await writer.drain()
        await _expect_closed(reader)
        assert server.stats.n_poisoned == 1

    stats = _run_attack(attack)
    assert stats.n_poisoned == 1


def test_wrong_packet_count_poisons_connection():
    async def attack(reader, writer, server):  # noqa: ARG001
        # well-framed, but one packet for a two-server deployment
        writer.write(encode_upload([b"z" * 32]))
        await writer.drain()
        await _expect_closed(reader)

    assert _run_attack(attack).n_poisoned == 1


def test_packet_too_short_for_submission_id_poisons():
    async def attack(reader, writer, server):  # noqa: ARG001
        writer.write(encode_upload([b"tiny", b"tiny"]))
        await writer.drain()
        await _expect_closed(reader)

    assert _run_attack(attack).n_poisoned == 1


def test_mid_frame_disconnect_is_harmless():
    dep = _deployment()

    async def attack(reader, writer, server):  # noqa: ARG001
        frame = TransportClient.frame_submission(
            dep.client.prepare_submission(1)
        )
        writer.write(frame[: len(frame) // 2])
        await writer.drain()
        # abrupt close with half a frame buffered server-side

    stats = _run_attack(attack)
    assert stats.n_poisoned == 0  # nothing malformed ever completed
    assert stats.n_submissions == 5  # only the honest uploads counted


def test_truncated_packet_inside_frame_poisons():
    async def attack(reader, writer, server):  # noqa: ARG001
        # frame length is honest but the inner packet length lies
        payload = b"\x01" + (100).to_bytes(4, "big") + b"short"
        writer.write(len(payload).to_bytes(4, "big") + payload)
        await writer.drain()
        await _expect_closed(reader)

    assert _run_attack(attack).n_poisoned == 1


def test_corrupt_share_rejects_submission_not_connection():
    """Protocol-level badness inside a valid frame stays per-upload:
    the same connection's other submissions decide normally."""
    dep = _deployment()
    good = dep.client.prepare_submissions([2, 3])
    bad = dep.client.prepare_submission(1)
    tampered = bytearray(bad.packets[1].encode())
    tampered[-1] ^= 0x01
    frame = encode_upload([bad.packets[0].encode(), bytes(tampered)])

    async def scenario():
        async with PrioTransportServer(dep.servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) \
                    as client:
                first = await client.submit(good[0])
                future = await client.send_frame(frame, bad.submission_id)
                corrupted = await future
                second = await client.submit(good[1])
            return first, corrupted, second, server.stats

    first, corrupted, second, stats = asyncio.run(scenario())
    assert first is Status.ACCEPTED
    assert corrupted is Status.REJECTED
    assert second is Status.ACCEPTED
    assert stats.n_poisoned == 0
    assert dep.publish() == 5


def test_sealed_frames_to_keyless_deployment_reject_not_busy():
    """Sealed uploads sent to a deployment without box keys are
    REJECTED per upload (a protocol verdict, counted in n_rejected) —
    not BUSY (retryable forever, counted as a backend crash) — and the
    cleartext upload in the same stream is unaffected."""
    dep = _deployment()
    sealing = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 2, seed=b"advs", encrypt=True,
        rng=random.Random(14),
    )
    sealed = sealing.client.prepare_submissions([1, 2, 3])
    honest = dep.client.prepare_submission(5)

    async def scenario():
        async with PrioTransportServer(dep.servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) \
                    as client:
                frames = [
                    (s.submission_id, client.frame_submission(s, sealed=True))
                    for s in sealed
                ]
                frames.append(
                    (honest.submission_id, client.frame_submission(honest))
                )
                statuses = await client.submit_many(frames, window=4)
            return statuses, server.stats

    statuses, stats = asyncio.run(scenario())
    assert statuses == [Status.REJECTED] * 3 + [Status.ACCEPTED]
    assert stats.n_rejected == 3
    assert stats.n_accepted == 1
    assert stats.n_worker_failures == 0
    assert dep.publish() == 5
    assert all(not s._pending_ids for s in dep.servers)


def test_worker_crash_mid_round_answers_busy_and_retry_is_accepted():
    """The one crash policy over TCP: a worker failing mid-round
    abandons the batch — BUSY, ids released — and the same uploads are
    accepted once the fault clears (as in the in-memory pipeline, see
    ``tests/protocol/test_fanout.py``)."""
    from repro.protocol import PrioClient, PrioServer
    from repro.snip import ServerRandomness

    class CrashOnRound1Server(PrioServer):
        crashing = True

        def begin_verification_batch(self, pendings):
            if self.crashing:
                raise RuntimeError("injected round-1 crash")
            return super().begin_verification_batch(pendings)

    afe = IntegerSumAfe(FIELD87, 4)
    randomness = ServerRandomness(b"advs-crash")
    servers = [PrioServer(afe, 0, 2, randomness),
               CrashOnRound1Server(afe, 1, 2, randomness)]
    submissions = PrioClient(
        afe, 2, rng=random.Random(15)
    ).prepare_submissions([1, 2, 3, 4])

    async def scenario():
        async with PrioTransportServer(servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) \
                    as client:
                frames = [
                    (s.submission_id, client.frame_submission(s))
                    for s in submissions
                ]
                crashed = await client.submit_many(frames, window=4)
                servers[1].crashing = False
                retried = await client.submit_many(frames, window=4)
            return crashed, retried, server.stats

    crashed, retried, stats = asyncio.run(scenario())
    assert crashed == [Status.BUSY] * 4
    assert retried == [Status.ACCEPTED] * 4
    assert stats.n_worker_failures == 4
    assert stats.n_rejected == 0
    assert all(s.n_replayed == 0 for s in servers)
    assert all(not s._pending_ids for s in servers)
    assert FIELD87.vec_sum([s.publish() for s in servers]) == [10]


def test_commit_point_failure_fails_the_serve_not_silently():
    """An accumulate-sweep failure cannot be isolated to its batch
    (peers already folded it in), so the front end must not keep
    serving as if nothing happened: the batch's uploads and every later
    one answer BUSY, the drain still completes, and ``stop()`` raises —
    the same "fails loudly" rule the in-memory pipeline applies."""
    import pytest

    from repro.protocol import PrioClient, PrioServer
    from repro.snip import ServerRandomness

    class CrashOnAccumulateServer(PrioServer):
        def accumulate_batch(self, pendings, decisions):
            raise RuntimeError("injected accumulate crash")

    afe = IntegerSumAfe(FIELD87, 4)
    randomness = ServerRandomness(b"advs-commit")
    servers = [PrioServer(afe, 0, 2, randomness),
               CrashOnAccumulateServer(afe, 1, 2, randomness)]
    first, later = PrioClient(
        afe, 2, rng=random.Random(16)
    ).prepare_submissions([1, 2])
    seen = {}

    async def scenario():
        async with PrioTransportServer(servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) \
                    as client:
                seen["first"] = await client.submit(first)
                seen["later"] = await client.submit(later)
            seen["stats"] = server.stats

    with pytest.raises(RuntimeError, match="accumulate crash"):
        asyncio.run(scenario())
    assert seen["first"] is Status.BUSY
    assert seen["later"] is Status.BUSY
    assert seen["stats"].n_accepted == 0
    assert seen["stats"].n_shed == 1  # the later upload never ran
    assert all(not s._pending_ids for s in servers)


def test_stalled_verification_hits_watermark_and_recovers():
    """The acceptance drill: verification stalls, uploads keep coming.

    Reads must pause at the high watermark (bounding pending), the
    shed must absorb what squeezes past it, and releasing the stall
    must decide everything that was admitted."""
    dep = _deployment()
    n = 20
    submissions = dep.client.prepare_submissions([1] * n)
    config = _config(
        batch_size=2, high_watermark=4, low_watermark=2, shed_limit=8,
    )

    async def scenario():
        async with PrioTransportServer(dep.servers, config) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            server.hold_verification()
            client = await TransportClient.connect_tcp(host, port)
            futures = [
                await client.send_frame(
                    client.frame_submission(s), s.submission_id
                )
                for s in submissions
            ]
            # The flood outruns the stalled verifier: pending must
            # stop at the shed limit, never above it.
            for _ in range(200):
                await asyncio.sleep(0.001)
                assert server.pending_submissions <= config.shed_limit
                if server.stats.n_pauses > 0 and (
                    server.pending_submissions >= config.high_watermark
                ):
                    break
            assert server.stats.n_pauses > 0
            peak = server.pending_submissions
            server.release_verification()
            statuses = await asyncio.gather(*futures)
            await client.close()
            return statuses, peak, server

    statuses, peak, server = asyncio.run(scenario())
    assert config.high_watermark <= peak <= config.shed_limit
    accepted = sum(s is Status.ACCEPTED for s in statuses)
    busy = sum(s is Status.BUSY for s in statuses)
    # every admitted upload was decided; every shed one said BUSY
    assert accepted + busy == n
    assert busy == server.stats.n_shed
    assert accepted == server.stats.n_accepted
    assert server.pending_submissions == 0
    assert dep.publish() == accepted
    for prio_server in dep.servers:
        assert not prio_server._pending_ids


def test_slow_loris_drip_does_not_block_honest_traffic():
    """A client dripping one frame byte-by-byte holds only its own
    bounded buffer; honest connections decide at full speed, and the
    dripped frame still decides once it finally completes."""
    dep = _deployment()
    loris_sub = dep.client.prepare_submission(1)
    honest_subs = dep.client.prepare_submissions([2, 3, 4])
    frame = TransportClient.frame_submission(loris_sub)

    async def scenario():
        async with PrioTransportServer(dep.servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            loris = await TransportClient.connect_tcp(host, port)
            # drip the first half one byte at a time...
            for i in range(len(frame) // 2):
                loris.writer.write(frame[i:i + 1])
                await loris.writer.drain()
                await asyncio.sleep(0)
            # ...while honest traffic completes in the meantime
            async with await TransportClient.connect_tcp(host, port) \
                    as honest:
                honest_statuses = [
                    await honest.submit(s) for s in honest_subs
                ]
            assert server.pending_submissions == 0  # loris admitted nothing
            half = len(frame) // 2
            future = await loris.send_frame(
                frame[half:], loris_sub.submission_id
            )
            loris_status = await future
            await loris.close()
            return honest_statuses, loris_status, server.stats

    honest_statuses, loris_status, stats = asyncio.run(scenario())
    assert all(s is Status.ACCEPTED for s in honest_statuses)
    assert loris_status is Status.ACCEPTED
    assert stats.n_poisoned == 0
    assert dep.publish() == 1 + 2 + 3 + 4


def test_rate_limit_slows_flood_without_hurting_honest():
    dep = _deployment()
    flood = dep.client.prepare_submissions([1] * 12)
    honest_vals = [2, 3]
    honest_subs = dep.client.prepare_submissions(honest_vals)
    config = _config(rate_limit=50.0, rate_burst=4)

    async def scenario():
        async with PrioTransportServer(dep.servers, config) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            flooder = await TransportClient.connect_tcp(host, port)
            honest = await TransportClient.connect_tcp(host, port)
            frames = [
                (s.submission_id, flooder.frame_submission(s))
                for s in flood
            ]
            flood_task = asyncio.ensure_future(
                flooder.submit_many(frames, window=12)
            )
            honest_statuses = [await honest.submit(s) for s in honest_subs]
            flood_statuses = await flood_task
            await flooder.close()
            await honest.close()
            return honest_statuses, flood_statuses, server.stats

    honest_statuses, flood_statuses, stats = asyncio.run(scenario())
    assert all(s is Status.ACCEPTED for s in honest_statuses)
    assert all(s is Status.ACCEPTED for s in flood_statuses)
    assert stats.n_rate_limited > 0
    assert dep.publish() == 12 + sum(honest_vals)


def test_concurrent_replay_across_connections_counts_once():
    """The same submission id raced over two connections lands at most
    once — even when both copies share a verification batch."""
    dep = _deployment()
    target = dep.client.prepare_submission(3)
    honest = dep.client.prepare_submission(2)
    frame = TransportClient.frame_submission(target)

    async def scenario():
        async with PrioTransportServer(dep.servers, _config()) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            a = await TransportClient.connect_tcp(host, port)
            b = await TransportClient.connect_tcp(host, port)
            fa = await a.send_frame(frame, target.submission_id)
            fb = await b.send_frame(frame, target.submission_id)
            ra, rb = await asyncio.gather(fa, fb)
            honest_status = await a.submit(honest)
            await a.close()
            await b.close()
            return ra, rb, honest_status, server.stats

    ra, rb, honest_status, stats = asyncio.run(scenario())
    assert sorted([ra, rb]) == [Status.ACCEPTED, Status.REJECTED]
    assert honest_status is Status.ACCEPTED
    assert stats.n_poisoned == 0
    assert dep.publish() == 5  # 3 counted once + the honest 2
