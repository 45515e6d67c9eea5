"""Tests for the wire format."""

import random

import pytest

from repro.field import FIELD87
from repro.protocol import (
    ClientPacket,
    PacketKind,
    WireError,
    new_submission_id,
    packets_for_explicit_bodies,
    packets_for_share_bodies,
    total_upload_bytes,
)
from repro.sharing import prg_share_vector, share_vector

from oracle import packet_share_vector


@pytest.fixture
def rng():
    return random.Random(9090)


def _compressed_packets(f, sid, seeds, explicit):
    return packets_for_share_bodies(
        sid, seeds, f.encode_vector(explicit), len(explicit)
    )


def _explicit_packets(f, sid, shares):
    return packets_for_explicit_bodies(
        sid, [f.encode_vector(share) for share in shares], len(shares[0])
    )


def test_explicit_packet_roundtrip(rng):
    f = FIELD87
    vec = f.rand_vector(7, rng)
    packet = ClientPacket(
        submission_id=new_submission_id(rng),
        server_index=2,
        kind=PacketKind.EXPLICIT,
        n_elements=7,
        body=f.encode_vector(vec),
    )
    decoded = ClientPacket.decode(packet.encode(), f)
    assert decoded == packet
    assert packet_share_vector(decoded, f) == vec


def test_seed_packet_roundtrip(rng):
    f = FIELD87
    xs = f.rand_vector(10, rng)
    seeds, explicit = prg_share_vector(f, xs, 3, rng)
    packets = _compressed_packets(f, new_submission_id(rng), seeds, explicit)
    assert len(packets) == 3
    assert packets[0].kind is PacketKind.SEED
    assert packets[-1].kind is PacketKind.EXPLICIT
    # Shares reconstruct through the wire format.
    total = [0] * 10
    for packet in packets:
        decoded = ClientPacket.decode(packet.encode(), f)
        share = packet_share_vector(decoded, f)
        total = f.vec_add(total, share)
    assert total == xs


def test_explicit_shares_builder(rng):
    f = FIELD87
    xs = f.rand_vector(4, rng)
    shares = share_vector(f, xs, 2, rng)
    packets = _explicit_packets(f, new_submission_id(rng), shares)
    assert all(p.kind is PacketKind.EXPLICIT for p in packets)
    reconstructed = f.vec_sum([packet_share_vector(p, f) for p in packets])
    assert reconstructed == xs


def test_decode_rejects_garbage():
    f = FIELD87
    with pytest.raises(WireError):
        ClientPacket.decode(b"xx", f)
    with pytest.raises(WireError):
        ClientPacket.decode(b"XX" + b"\x00" * 30, f)  # bad magic
    good = ClientPacket(
        submission_id=b"\x01" * 16,
        server_index=0,
        kind=PacketKind.SEED,
        n_elements=5,
        body=b"\x02" * 16,
    ).encode()
    tampered = bytearray(good)
    tampered[2] = 9  # version
    with pytest.raises(WireError):
        ClientPacket.decode(bytes(tampered), f)
    tampered = bytearray(good)
    tampered[3] = 7  # kind
    with pytest.raises(WireError):
        ClientPacket.decode(bytes(tampered), f)


def test_decode_rejects_wrong_body_size():
    f = FIELD87
    packet = ClientPacket(
        submission_id=b"\x01" * 16,
        server_index=0,
        kind=PacketKind.EXPLICIT,
        n_elements=3,
        body=b"\x00" * (3 * f.encoded_size + 1),
    )
    with pytest.raises(WireError):
        ClientPacket.decode(packet.encode(), f)


def test_bad_submission_id_size():
    with pytest.raises(WireError):
        ClientPacket(
            submission_id=b"short",
            server_index=0,
            kind=PacketKind.SEED,
            n_elements=1,
            body=b"\x00" * 16,
        ).encode()


def test_compression_saves_bandwidth(rng):
    """PRG packets beat explicit packets by ~s for long vectors."""
    f = FIELD87
    xs = f.rand_vector(500, rng)
    sid = new_submission_id(rng)
    seeds, explicit = prg_share_vector(f, xs, 5, rng)
    compressed = total_upload_bytes(
        _compressed_packets(f, sid, seeds, explicit)
    )
    shares = share_vector(f, xs, 5, rng)
    uncompressed = total_upload_bytes(_explicit_packets(f, sid, shares))
    assert compressed < uncompressed / 4
