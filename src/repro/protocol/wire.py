"""Binary wire format for client->server uploads, with byte accounting.

Each client submission becomes one packet per server.  With PRG share
compression (Appendix I), all but the last server receive a 16-byte
seed instead of an explicit share vector, so the total upload is
``L + proof`` field elements plus ``s - 1`` seeds — the bandwidth
numbers behind Figure 6 and Table 2's "data transfer" row.

Packet layout (big-endian):

    magic(2) | version(1) | kind(1) | submission_id(16) |
    server_index(2) | n_elements(4) | body

``kind`` is SEED (body = 16-byte PRG seed) or EXPLICIT (body =
``n_elements`` fixed-width field elements).

Sealed packets.  Packets may additionally be sealed with the recipient
server's box key (:mod:`repro.crypto.box`).  A sealed packet is not a
bare box: it carries a cleartext *envelope header* so that routing
infrastructure (the socket transport's response frames) can see the
submission id without holding a decryption key::

    envelope = magic(2)="PS" | version(1) | submission_id(16) |
               server_index(2)
    sealed packet = envelope || box(packet_bytes, ad=envelope)

The envelope is passed to the box as *associated data*, so the box MAC
covers ``envelope || ciphertext``: an attacker cannot graft envelope A
onto box B without failing authentication, and the server additionally
rejects any opened packet whose inner header disagrees with its
envelope.  The trust story is deliberately asymmetric — the cleartext
envelope is trusted only for *routing* and the cheap replay pre-check
(both of which the server re-validates against the authenticated inner
header after opening); share data, packet kind, and lengths come
exclusively from inside the box.  Sealing therefore adds a constant
21 (envelope) + 49 (33-byte point + 16-byte tag) = 70 bytes per
packet.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

from repro.crypto.box import seal
from repro.field.prime_field import PrimeField
from repro.sharing.prg import SEED_SIZE

MAGIC = b"PR"
VERSION = 1
SUBMISSION_ID_SIZE = 16
_HEADER_SIZE = 2 + 1 + 1 + SUBMISSION_ID_SIZE + 2 + 4
#: offsets of the submission id inside an encoded packet header
PACKET_SID_START = 4
PACKET_SID_END = PACKET_SID_START + SUBMISSION_ID_SIZE

#: sealed-packet envelope: magic(2) | version(1) | sid(16) | index(2)
ENVELOPE_MAGIC = b"PS"
ENVELOPE_VERSION = 1
ENVELOPE_SIZE = 2 + 1 + SUBMISSION_ID_SIZE + 2
#: offsets of the submission id inside an envelope
ENVELOPE_SID_START = 3
ENVELOPE_SID_END = ENVELOPE_SID_START + SUBMISSION_ID_SIZE

#: Upper bound on the ``n_elements`` a packet header may claim.  The
#: header field is attacker-controlled and feeds body-size arithmetic,
#: so it is sanity-bounded before being trusted; 2^22 elements is
#: ~44 MiB of body at the 87-bit field — far beyond any real
#: submission (the largest benchmark circuit ships ~2^19 elements).
MAX_N_ELEMENTS = 1 << 22


class WireError(ValueError):
    """Raised for malformed packets."""


class PacketKind(enum.IntEnum):
    SEED = 0
    EXPLICIT = 1


@dataclass(frozen=True)
class ClientPacket:
    """One server's slice of a client submission."""

    submission_id: bytes
    server_index: int
    kind: PacketKind
    #: total share-vector length in field elements (both kinds)
    n_elements: int
    #: seed bytes (SEED) or encoded field elements (EXPLICIT)
    body: bytes

    def encode(self) -> bytes:
        if len(self.submission_id) != SUBMISSION_ID_SIZE:
            raise WireError("bad submission id size")
        # Mirror of the decode-side hardening: a value the fixed-width
        # header cannot represent must fail as a WireError here, not
        # escape as a bare OverflowError from ``to_bytes`` (or worse,
        # encode an n_elements no decoder will ever accept).
        if not 0 <= self.server_index < (1 << 16):
            raise WireError(
                f"server_index {self.server_index} does not fit the "
                "2-byte header field"
            )
        if not 0 <= self.n_elements <= MAX_N_ELEMENTS:
            raise WireError(
                f"n_elements {self.n_elements} outside "
                f"[0, {MAX_N_ELEMENTS}]"
            )
        return (
            MAGIC
            + bytes([VERSION, int(self.kind)])
            + self.submission_id
            + self.server_index.to_bytes(2, "big")
            + self.n_elements.to_bytes(4, "big")
            + self.body
        )

    @classmethod
    def decode(cls, data: bytes, field: PrimeField) -> "ClientPacket":
        if len(data) < _HEADER_SIZE:
            raise WireError("packet too short")
        if data[:2] != MAGIC:
            raise WireError("bad magic")
        if data[2] != VERSION:
            raise WireError(f"unsupported version {data[2]}")
        try:
            kind = PacketKind(data[3])
        except ValueError as exc:
            raise WireError(f"unknown packet kind {data[3]}") from exc
        submission_id = data[PACKET_SID_START:PACKET_SID_END]
        server_index = int.from_bytes(data[20:22], "big")
        n_elements = int.from_bytes(data[22:26], "big")
        if n_elements > MAX_N_ELEMENTS:
            raise WireError(
                f"n_elements {n_elements} exceeds the maximum "
                f"{MAX_N_ELEMENTS}"
            )
        body = data[26:]
        if kind is PacketKind.SEED:
            if len(body) < SEED_SIZE:
                raise WireError("seed packet body too short")
            if len(body) > SEED_SIZE:
                raise WireError("seed packet has trailing bytes")
        if kind is PacketKind.EXPLICIT and (
            len(body) != n_elements * field.encoded_size
        ):
            raise WireError("explicit packet has wrong body size")
        return cls(
            submission_id=submission_id,
            server_index=server_index,
            kind=kind,
            n_elements=n_elements,
            body=body,
        )

    def encoded_size(self) -> int:
        return _HEADER_SIZE + len(self.body)


def encode_envelope(submission_id: bytes, server_index: int) -> bytes:
    """The cleartext routing header prefixed to a sealed packet."""
    if len(submission_id) != SUBMISSION_ID_SIZE:
        raise WireError("bad submission id size")
    if not 0 <= server_index < (1 << 16):
        raise WireError(
            f"server_index {server_index} does not fit the "
            "2-byte envelope field"
        )
    return (
        ENVELOPE_MAGIC
        + bytes([ENVELOPE_VERSION])
        + submission_id
        + server_index.to_bytes(2, "big")
    )


def parse_envelope(data: bytes) -> "tuple[bytes, int, bytes]":
    """Split a sealed packet into ``(sid, server_index, box_bytes)``.

    Only the envelope is parsed — the box stays sealed.  The returned
    fields are *routing hints* until the box is opened and the inner
    header confirmed; see the module docstring for the trust story.
    """
    if len(data) < ENVELOPE_SIZE:
        raise WireError("sealed packet too short for its envelope")
    if data[:2] != ENVELOPE_MAGIC:
        raise WireError("bad envelope magic")
    if data[2] != ENVELOPE_VERSION:
        raise WireError(f"unsupported envelope version {data[2]}")
    submission_id = bytes(data[ENVELOPE_SID_START:ENVELOPE_SID_END])
    server_index = int.from_bytes(data[ENVELOPE_SID_END:ENVELOPE_SIZE], "big")
    return submission_id, server_index, bytes(data[ENVELOPE_SIZE:])


def is_sealed_payload(payload: bytes) -> bool:
    """True when ``payload`` opens with the sealed-envelope magic."""
    return bytes(payload[:2]) == ENVELOPE_MAGIC


def routing_id(payload: bytes) -> bytes:
    """Submission id of one uploaded payload, raw or sealed.

    The one owner of the header offsets routing infrastructure needs
    (the transport's response frames): raw packets carry the id in the
    :class:`ClientPacket` header, sealed packets in their cleartext
    envelope — a fixed-offset slice either way, the box is never
    touched.  The id is a routing
    hint only; the receiving server re-validates everything.  Raises
    :class:`WireError` when the bytes are too short to hold the id.
    """
    if is_sealed_payload(payload):
        sid = bytes(payload[ENVELOPE_SID_START:ENVELOPE_SID_END])
    else:
        sid = bytes(payload[PACKET_SID_START:PACKET_SID_END])
    if len(sid) != SUBMISSION_ID_SIZE:
        raise WireError("payload too short to carry a submission id")
    return sid


def seal_packet(recipient_public, packet: ClientPacket, rng=None) -> bytes:
    """Seal one packet to its server: ``envelope || box(.., ad=env)``."""
    envelope = encode_envelope(packet.submission_id, packet.server_index)
    return envelope + seal(
        recipient_public, packet.encode(), rng, associated_data=envelope
    )


def new_submission_id(rng=None) -> bytes:
    if rng is None:
        return os.urandom(SUBMISSION_ID_SIZE)
    return rng.randbytes(SUBMISSION_ID_SIZE)


def packets_for_share_bodies(
    submission_id: bytes,
    seeds: list[bytes],
    explicit_body: bytes,
    n_elements: int,
) -> list[ClientPacket]:
    """PRG-compressed packet layout from an already-encoded body.

    The one place the compressed layout is defined: SEED packets for
    servers ``0 .. len(seeds) - 1``, the explicit share at the last
    index.  The client builds here from bodies
    :func:`~repro.field.batch.encode_bytes_batch` wrote.
    """
    packets = [
        ClientPacket(
            submission_id=submission_id,
            server_index=i,
            kind=PacketKind.SEED,
            n_elements=n_elements,
            body=seed,
        )
        for i, seed in enumerate(seeds)
    ]
    packets.append(
        ClientPacket(
            submission_id=submission_id,
            server_index=len(seeds),
            kind=PacketKind.EXPLICIT,
            n_elements=n_elements,
            body=explicit_body,
        )
    )
    return packets


def packets_for_explicit_bodies(
    submission_id: bytes,
    bodies: list[bytes],
    n_elements: int,
) -> list[ClientPacket]:
    """Uncompressed packet layout from already-encoded bodies."""
    return [
        ClientPacket(
            submission_id=submission_id,
            server_index=i,
            kind=PacketKind.EXPLICIT,
            n_elements=n_elements,
            body=body,
        )
        for i, body in enumerate(bodies)
    ]


def total_upload_bytes(packets: list[ClientPacket]) -> int:
    """Client upload cost across all servers for one submission."""
    return sum(p.encoded_size() for p in packets)
