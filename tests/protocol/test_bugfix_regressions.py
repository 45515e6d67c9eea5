"""Regression pins for the PR-6 lifecycle/leak bugfix sweep.

Each test fails on the pre-fix code:

* ``PrioServer.abandon`` dropped the id but never released the share
  sources, pinning seeds / plane matrices via the caller's handle.
* the fused receive sweep guessed row 0 for a ``FieldError`` without
  ``batch_row`` attribution, silently evicting an innocent packet
  instead of failing loudly.
* a reused in-memory pipeline object carried its stats and batch ids across
  runs, so a second run reported cumulative nonsense.
* ``ClientPacket.encode`` let out-of-range header fields escape as a
  bare ``OverflowError`` from ``to_bytes``.
* ``TransportClient.send_frame`` overwrote the pending entry of an id
  already in flight, so the first decision future never resolved.
* ``TransportClient.send_frame`` after the server closed the connection
  waited forever on a future nothing could resolve.
* the receive sweep stored each refusal with its traceback, whose
  frames held the result list (a cycle) and the batch's decoded share
  planes, so only the cyclic GC could free a batch with a refusal.
* ``GatedDeployment.deliver_signed`` given fewer signed packets than servers
  admitted the ones it had, then raised ``IndexError`` from framing.
"""

import asyncio
import gc
import random
import weakref

import pytest

from repro.afe import IntegerSumAfe
from repro.field import FIELD87, FieldError
from repro.field.batch import numpy_available
from repro.protocol import (
    PrioDeployment,
    ProtocolError,
    resolve_fanout,
)
from repro.protocol.wire import ClientPacket, PacketKind, WireError


def _deployment(n_bits=4, n_servers=3):
    return PrioDeployment.create(
        IntegerSumAfe(FIELD87, n_bits), n_servers, seed=b"regr",
        batch_size=4, rng=random.Random(42),
    )


def _explicit_packet(submission):
    """The one EXPLICIT packet of a submission (other servers get
    PRG seeds)."""
    for packet in submission.packets:
        if packet.kind is PacketKind.EXPLICIT:
            return packet
    raise AssertionError("no explicit packet in submission")


# ---------------------------------------------------------------------
# PrioServer.abandon must release share sources
# ---------------------------------------------------------------------


def test_abandon_releases_share_sources():
    dep = _deployment()
    packet = _explicit_packet(dep.client.prepare_submissions([1])[0])
    server = dep.servers[packet.server_index]
    [pending] = server.receive_wire_batch([packet.encode()])
    # receive left a live source (the whole decoded batch matrix for
    # an EXPLICIT share) hanging off the handle
    assert pending._source is not None

    server.abandon(pending)

    # the leak probe: every source slot must be dropped, so a held
    # handle pins nothing
    assert pending._seed is None
    assert pending._source is None
    # and the id is free again: an honest retry is not a replay
    assert packet.submission_id not in server._pending_ids
    assert packet.submission_id not in server._replay
    [retried] = server.receive_wire_batch([packet.encode()])
    assert retried.submission_id == packet.submission_id


def test_abandon_releases_seed_source():
    dep = _deployment()
    submission = dep.client.prepare_submissions([1])[0]
    seed_packet = next(
        p for p in submission.packets if p.kind is PacketKind.SEED
    )
    server = dep.servers[seed_packet.server_index]
    [pending] = server.receive_wire_batch([seed_packet.encode()])
    assert pending._seed is not None
    server.abandon(pending)
    assert pending._seed is None


# ---------------------------------------------------------------------
# the receive sweep must not guess the culprit of an unattributed error
# ---------------------------------------------------------------------


def test_receive_batch_unattributed_field_error_raises(monkeypatch):
    dep = _deployment()
    explicit = [
        _explicit_packet(dep.client.prepare_submissions([1])[0])
        for _ in range(4)
    ]
    server = dep.servers[explicit[0].server_index]
    packets = [packet.encode() for packet in explicit]

    def unattributed_decode(*args, **kwargs):
        raise FieldError("decode failed with no row attribution")

    monkeypatch.setattr(
        "repro.protocol.server.decode_bytes_batch", unattributed_decode
    )
    # Pre-fix: getattr(exc, "batch_row", 0) evicted packet 0 (then 1,
    # then 2...) and the call "succeeded" with every honest packet
    # marked as the offender.  It must raise instead.
    with pytest.raises(FieldError):
        server.receive_wire_batch(packets)

    # the failed sweep released every id: retries are not replays
    assert not server._pending_ids
    monkeypatch.undo()
    out = server.receive_wire_batch(packets)
    assert all(not isinstance(r, Exception) for r in out)


def test_receive_batch_attributed_field_error_still_per_packet():
    """Contrast pin: a FieldError *with* attribution keeps its
    evict-one-and-continue behavior."""
    dep = _deployment()
    packets = [
        _explicit_packet(dep.client.prepare_submissions([1])[0])
        for _ in range(3)
    ]
    server = dep.servers[packets[0].server_index]
    # corrupt one body to an out-of-range element (all 0xFF is >= p)
    bad = ClientPacket(
        submission_id=packets[1].submission_id,
        server_index=packets[1].server_index,
        kind=packets[1].kind,
        n_elements=packets[1].n_elements,
        body=b"\xff" * len(packets[1].body),
    )
    out = server.receive_wire_batch(
        [p.encode() for p in (packets[0], bad, packets[2])]
    )
    assert isinstance(out[1], FieldError)
    assert not isinstance(out[0], Exception)
    assert not isinstance(out[2], Exception)


# ---------------------------------------------------------------------
# a stored refusal must not pin the batch it was refused from
# ---------------------------------------------------------------------


def _batch_with_refusals(dep):
    """One server's payloads: two honest EXPLICIT packets, a replay of
    the first, an out-of-range body and a malformed header."""
    first, second, third = (
        _explicit_packet(s)
        for s in dep.client.prepare_submissions([1, 2, 3])
    )
    out_of_range = ClientPacket(
        submission_id=third.submission_id,
        server_index=third.server_index,
        kind=third.kind,
        n_elements=third.n_elements,
        body=b"\xff" * len(third.body),
    )
    server = dep.servers[first.server_index]
    payloads = [
        first.encode(), second.encode(), first.encode(),
        out_of_range.encode(), b"\x00",
    ]
    return server, payloads


def test_refusals_are_stored_without_tracebacks():
    server, payloads = _batch_with_refusals(_deployment())
    out = server.receive_wire_batch(payloads)
    refusals = out[2:]
    assert [type(r) for r in refusals] == [
        ProtocolError, FieldError, WireError,
    ]
    assert all(r.__traceback__ is None for r in refusals)
    assert not isinstance(out[0], Exception)
    assert not isinstance(out[1], Exception)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_refusals_do_not_pin_the_decoded_planes():
    dep = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 3, seed=b"regr", batch_size=4,
        rng=random.Random(42), force_pure_backend=False,
    )
    server, payloads = _batch_with_refusals(dep)
    gc.disable()
    try:
        out = server.receive_wire_batch(payloads)
        planes = weakref.ref(out[0]._source[0]._data)
        # Pre-fix: each refusal's traceback held the receive frames,
        # whose locals hold ``out`` and the decoded planes, so the
        # planes outlived the result until a GC pass.
        del out
        assert planes() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------
# a reused fan-out starts every run from fresh per-run state
# ---------------------------------------------------------------------


def test_pipeline_reuse_resets_per_run_state():
    dep = _deployment()
    fanout, _ = resolve_fanout(dep.servers, "inline")
    first = dep.client.prepare_submissions([1] * 9)
    second = dep.client.prepare_submissions([2] * 5)
    batches = []
    receive = fanout.call

    def spy(s, op, *args):
        if s == 0 and op == "receive_wire":
            batches.append((args[0], len(args[1])))
        return receive(s, op, *args)

    fanout.call = spy
    with PrioDeployment(
        dep.afe, dep.servers, dep.client, encrypt=False, batch_size=4,
        executor=fanout,
    ) as reused:
        assert reused.deliver(first) == [True] * 9
        assert batches == [(0, 4), (1, 4), (2, 1)]
        del batches[:]
        assert reused.deliver(second) == [True] * 5
        # Pre-fix, batch ids resumed from the previous stream's counter.
        assert batches == [(0, 4), (1, 1)]
        assert reused.stats.n_rejected == 0
    assert dep.publish() == 9 * 1 + 5 * 2


# ---------------------------------------------------------------------
# ClientPacket.encode must reject what its header cannot carry
# ---------------------------------------------------------------------


@pytest.mark.parametrize("server_index", [-1, 1 << 16, 1 << 30])
def test_encode_rejects_out_of_range_server_index(server_index):
    packet = ClientPacket(
        submission_id=bytes(16),
        server_index=server_index,
        kind=PacketKind.SEED,
        n_elements=4,
        body=bytes(16),
    )
    with pytest.raises(WireError):
        packet.encode()


@pytest.mark.parametrize("n_elements", [-1, (1 << 22) + 1, 1 << 40])
def test_encode_rejects_out_of_range_n_elements(n_elements):
    packet = ClientPacket(
        submission_id=bytes(16),
        server_index=0,
        kind=PacketKind.SEED,
        n_elements=n_elements,
        body=bytes(16),
    )
    with pytest.raises(WireError):
        packet.encode()


def test_encode_boundary_values_still_pass():
    packet = ClientPacket(
        submission_id=bytes(16),
        server_index=(1 << 16) - 1,
        kind=PacketKind.SEED,
        n_elements=1 << 22,
        body=bytes(16),
    )
    data = packet.encode()
    assert int.from_bytes(data[20:22], "big") == (1 << 16) - 1
    assert int.from_bytes(data[22:26], "big") == 1 << 22


# ---------------------------------------------------------------------
# encode_upload must reject oversized lengths as FrameError, not let a
# bare OverflowError escape from int.to_bytes (soundness-lint sweep)
# ---------------------------------------------------------------------


class _FakeLenBytes(bytes):
    """Bytes whose reported length exceeds a u32 (without allocating
    4 GiB): exactly what a length-prefix writer must bound-check."""

    def __len__(self):
        return 1 << 32


def test_encode_upload_oversized_packet_is_frame_error():
    from repro.transport import FrameError, encode_upload

    # pre-fix: len(data).to_bytes(4, "big") raised bare OverflowError
    with pytest.raises(FrameError):
        encode_upload([_FakeLenBytes(b"x")])


def test_encode_upload_frame_error_is_not_overflow():
    from repro.transport import FrameError, encode_upload

    try:
        encode_upload([_FakeLenBytes(b"x")])
    except FrameError:
        pass
    except OverflowError as exc:  # pragma: no cover - pre-fix behavior
        raise AssertionError(
            "oversized packet escaped as bare OverflowError"
        ) from exc


# ---------------------------------------------------------------------
# the transport's batch queue must be bounded (soundness-lint sweep):
# an unbounded queue silently absorbs broken shed accounting as memory
# growth instead of failing loudly
# ---------------------------------------------------------------------


def test_transport_batch_queue_is_bounded():
    import asyncio

    from repro.transport import PrioTransportServer, TransportConfig

    dep = _deployment()
    config = TransportConfig(batch_size=4, linger_s=0.001, executor="inline")

    async def scenario():
        async with PrioTransportServer(dep.servers, config) as server:
            return server._batch_q.maxsize

    maxsize = asyncio.run(scenario())
    assert maxsize == config.shed_limit
    assert maxsize > 0


# ---------------------------------------------------------------------
# TransportClient matches responses by submission id alone: a second
# in-flight use of one id replaced the first's future, which then never
# resolved (and close() never failed it)
# ---------------------------------------------------------------------


def test_transport_client_refuses_an_id_already_in_flight():
    from repro.transport import (
        PrioTransportServer,
        Status,
        TransportClient,
        TransportConfig,
    )

    dep = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 2), 2, seed=b"regr", batch_size=4,
        rng=random.Random(42),
    )
    submission = dep.client.prepare_submissions([3])[0]
    sid = submission.submission_id
    frame = TransportClient.frame_submission(submission)
    config = TransportConfig(batch_size=4, linger_s=0.001, executor="inline")

    async def scenario():
        async with PrioTransportServer(dep.servers, config) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) as c:
                with pytest.raises(ValueError, match="already in flight"):
                    await c.submit_many([(sid, frame)] * 2)
                # the refused copy wrote nothing; the first is decided
                while not c.latencies:
                    await asyncio.sleep(0.001)
                # once decided, the id may be sent again: a replay
                again = await c.submit_many([(sid, frame)])
        return server.stats, again

    stats, again = asyncio.run(asyncio.wait_for(scenario(), 5))
    assert again == [Status.REJECTED]
    assert stats.n_submissions == 2
    assert stats.n_accepted == 1
    assert dep.publish() == 3


# ---------------------------------------------------------------------
# TransportClient registered a decision future on every send, even after
# the response pump had ended: nothing could resolve it, and the pump
# never restarted, so a send on a dead connection hung forever
# ---------------------------------------------------------------------


def test_transport_client_send_after_server_close_raises():
    from repro.transport import (
        PrioTransportServer,
        TransportClient,
        TransportConfig,
    )

    dep = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 2), 2, seed=b"regr", batch_size=4,
        rng=random.Random(42),
    )
    submission = dep.client.prepare_submissions([3])[0]
    config = TransportConfig(batch_size=4, linger_s=0.001, executor="inline")

    async def scenario():
        async with PrioTransportServer(dep.servers, config) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) as c:
                # a 3-byte garbage frame poisons the connection: the
                # server closes it and the pump fails this future
                poisoned = await c.send_frame(
                    (3).to_bytes(4, "big") + b"\xff" * 3, bytes(16)
                )
                with pytest.raises(ConnectionError):
                    await poisoned
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(c.submit(submission), 3)
        return server.stats

    stats = asyncio.run(asyncio.wait_for(scenario(), 10))
    assert stats.n_poisoned == 1
    assert stats.n_submissions == 0


# ---------------------------------------------------------------------
# GatedDeployment.deliver_signed admitted a short packet list at the servers it
# covered, then raised IndexError framing it for the ones it did not
# ---------------------------------------------------------------------


def test_gated_deliver_refuses_a_short_packet_list():
    from repro.protocol import GatedDeployment

    dep = GatedDeployment(
        IntegerSumAfe(FIELD87, 4), n_servers=3, publish_threshold=1
    )
    signed = dep.new_client(random.Random(43)).prepare_submission(5)
    assert not dep.deliver_signed(signed[:2])
    for server in dep.servers:
        assert not server._admitted
        assert not server._pending_ids
    # the id was never spent: the honest full retry is accepted
    assert dep.deliver_signed(signed)
    assert dep.publish() == 5
