"""Regression pins for the PR-6 lifecycle/leak bugfix sweep.

Each test fails on the pre-fix code:

* ``PrioServer.abandon`` dropped the id but never released the share
  sources, pinning seeds / plane matrices via the caller's handle.
* the fused receive sweep guessed row 0 for a ``FieldError`` without
  ``batch_row`` attribution, silently evicting an innocent packet
  instead of failing loudly.
* ``AsyncPrioPipeline`` carried ``stats`` / ``_next_batch_id`` /
  ``_verifying`` across ``run()`` calls, so a reused pipeline reported
  cumulative nonsense.
* ``ClientPacket.encode`` let out-of-range header fields escape as a
  bare ``OverflowError`` from ``to_bytes``.
"""

import random

import pytest

from repro.afe import IntegerSumAfe
from repro.field import FIELD87, FieldError
from repro.protocol import AsyncPrioPipeline, PrioDeployment
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
    packet = _explicit_packet(dep.client.prepare_submission(1))
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
    submission = dep.client.prepare_submission(1)
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
        _explicit_packet(dep.client.prepare_submission(1))
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
        _explicit_packet(dep.client.prepare_submission(1))
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
# AsyncPrioPipeline must be reusable across runs
# ---------------------------------------------------------------------


def test_pipeline_reuse_resets_per_run_state():
    dep = _deployment()
    pipeline = AsyncPrioPipeline(
        dep.servers, batch_size=4, executor="inline"
    )
    first = dep.client.prepare_submissions([1] * 9)
    second = dep.client.prepare_submissions([2] * 5)

    assert pipeline.run(first) == [True] * 9
    first_batches = pipeline.stats.n_batches
    assert first_batches == 3
    assert pipeline.run(second) == [True] * 5

    # Pre-fix, stats accumulated across runs and batch ids resumed
    # from the previous stream's counter.
    assert pipeline.stats.n_batches == 2
    assert pipeline.stats.batch_sizes == [4, 1]
    assert pipeline.stats.n_receive_failures == 0
    assert not pipeline._verifying
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
