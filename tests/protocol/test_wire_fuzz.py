"""Property-based fuzzing of the wire format.

A Prio server parses packets from untrusted clients; decoding must
either return a faithful packet or raise :class:`WireError` — never
crash, never mis-parse.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import FIELD87, FIELD_SMALL
from repro.protocol.wire import (
    ClientPacket,
    PacketKind,
    WireError,
    new_submission_id,
)
from repro.sharing.prg import SEED_SIZE

from oracle import packet_share_vector


@given(data=st.binary(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_decode_never_crashes_on_garbage(data):
    try:
        packet = ClientPacket.decode(data, FIELD87)
    except WireError:
        return
    # If it decoded, re-encoding must be the identity.
    assert packet.encode() == data


@given(
    server_index=st.integers(0, 65535),
    n_elements=st.integers(0, 50),
    seed_byte=st.integers(0, 255),
)
@settings(max_examples=100, deadline=None)
def test_seed_packet_roundtrip_property(server_index, n_elements, seed_byte):
    packet = ClientPacket(
        submission_id=bytes([seed_byte]) * 16,
        server_index=server_index,
        kind=PacketKind.SEED,
        n_elements=n_elements,
        body=bytes([seed_byte ^ 0xFF]) * SEED_SIZE,
    )
    decoded = ClientPacket.decode(packet.encode(), FIELD87)
    assert decoded == packet
    assert len(packet_share_vector(decoded, FIELD87)) == n_elements


@given(
    values=st.lists(
        st.integers(0, FIELD_SMALL.modulus - 1), min_size=0, max_size=30
    ),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_explicit_packet_roundtrip_property(values, seed):
    rng = random.Random(seed)
    packet = ClientPacket(
        submission_id=new_submission_id(rng),
        server_index=rng.randrange(100),
        kind=PacketKind.EXPLICIT,
        n_elements=len(values),
        body=FIELD_SMALL.encode_vector(values),
    )
    decoded = ClientPacket.decode(packet.encode(), FIELD_SMALL)
    assert packet_share_vector(decoded, FIELD_SMALL) == values


@given(
    data=st.binary(min_size=26, max_size=100),
    flip=st.integers(0, 25),
)
@settings(max_examples=150, deadline=None)
def test_header_bitflips_detected_or_consistent(data, flip):
    """Start from a valid packet, flip a header byte: decode must raise
    WireError or produce a packet that re-encodes to the mutated bytes
    (i.e. the mutation only changed benign header fields)."""
    base = ClientPacket(
        submission_id=b"\x11" * 16,
        server_index=3,
        kind=PacketKind.SEED,
        n_elements=7,
        body=b"\x22" * SEED_SIZE,
    ).encode()
    mutated = bytearray(base)
    mutated[flip] ^= 0x41
    mutated = bytes(mutated)
    if mutated == base:
        return
    try:
        packet = ClientPacket.decode(mutated, FIELD87)
    except WireError:
        return
    assert packet.encode() == mutated


def test_truncation_always_detected():
    base = ClientPacket(
        submission_id=b"\x33" * 16,
        server_index=0,
        kind=PacketKind.SEED,
        n_elements=4,
        body=b"\x44" * SEED_SIZE,
    ).encode()
    for cut in range(len(base)):
        with pytest.raises(WireError):
            ClientPacket.decode(base[:cut], FIELD87)
