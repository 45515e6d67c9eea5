"""Length-framed stream format for Prio uploads over sockets.

A client connection carries a sequence of *upload frames*; the server
answers each with one *response frame*.  All integers are big-endian.

Upload frame (client -> server)::

    u32 payload_len | payload

    payload = u8 n_packets | n_packets x ( u32 pkt_len | pkt_bytes )

Each ``pkt_bytes`` is one encoded :class:`~repro.protocol.wire
.ClientPacket` — or, when the deployment encrypts uploads, one sealed
packet (``envelope || box``; the envelope's ``b"PS"`` magic
distinguishes the two, see :func:`repro.protocol.wire.routing_id`) — one per
logical Prio server, in server order.  The frame is the unit of
submission: all of one client value's packets travel together so the
front end can fan them out to every logical server as one batch
position.

Response frame (server -> client)::

    u32 payload_len (== 17) | submission_id(16) | status(1)

``status`` is a :class:`Status` value.  ``submission_id`` echoes the
id parsed from the upload's first packet — the raw header for
cleartext packets, the cleartext envelope for sealed ones — so clients
can match responses to in-flight submissions without per-connection
sequencing (responses may interleave across verification batches).

The parser (:class:`FrameAssembler`) is incremental and bounded: it
accepts arbitrary chunk boundaries, yields complete payloads, and
raises :class:`FrameError` the moment a length prefix exceeds the
configured maximum — *before* buffering the body — so an oversized
claim cannot balloon server memory.
"""

from __future__ import annotations

import enum

from repro.protocol.wire import WireError, routing_id

__all__ = [
    "FrameAssembler",
    "FrameError",
    "RESPONSE_SIZE",
    "Status",
    "decode_response",
    "encode_response",
    "encode_upload",
    "packet_submission_id",
    "split_upload",
]

_LEN_SIZE = 4

#: largest value a u32 length prefix can carry; anything bigger must be
#: rejected as a FrameError *before* int.to_bytes raises a bare
#: OverflowError mid-write
_MAX_U32 = (1 << 32) - 1

#: response payload: 16-byte submission id + 1 status byte
RESPONSE_SIZE = 17

#: default cap on one frame's payload (1 MiB — the largest benchmark
#: circuit's upload is ~600 KiB across *all* servers; one packet is
#: far below this)
DEFAULT_MAX_FRAME = 1 << 20


class FrameError(ValueError):
    """Raised for a malformed or oversized frame."""


class Status(enum.IntEnum):
    """Per-submission verdict carried in a response frame."""

    ACCEPTED = 0
    REJECTED = 1
    #: load-shed: the submission was not processed at all; safe to retry
    BUSY = 2


def encode_upload(packet_bytes: "list[bytes]") -> bytes:
    """Frame one submission's per-server packets for the wire."""
    if not 0 < len(packet_bytes) < 256:
        raise FrameError("an upload frame carries 1..255 packets")
    parts = [bytes([len(packet_bytes)])]
    for data in packet_bytes:
        if len(data) > _MAX_U32:
            raise FrameError("packet too large for a u32 length prefix")
        parts.append(len(data).to_bytes(_LEN_SIZE, "big"))
        parts.append(data)
    payload = b"".join(parts)
    if len(payload) > _MAX_U32:
        raise FrameError("upload frame too large for a u32 length prefix")
    return len(payload).to_bytes(_LEN_SIZE, "big") + payload


def split_upload(payload: bytes) -> "list[bytes]":
    """Split an upload payload back into its per-server packet bytes."""
    view = memoryview(payload)
    if len(view) < 1:
        raise FrameError("empty upload payload")
    n_packets = view[0]
    if n_packets == 0:
        raise FrameError("upload frame carries no packets")
    packets: "list[bytes]" = []
    offset = 1
    for _ in range(n_packets):
        if offset + _LEN_SIZE > len(view):
            raise FrameError("truncated packet length in upload frame")
        length = int.from_bytes(view[offset:offset + _LEN_SIZE], "big")
        offset += _LEN_SIZE
        if offset + length > len(view):
            raise FrameError("truncated packet body in upload frame")
        packets.append(bytes(view[offset:offset + length]))
        offset += length
    if offset != len(view):
        raise FrameError("trailing bytes after last packet in upload frame")
    return packets


def packet_submission_id(pkt: bytes) -> bytes:
    """Submission id of one uploaded packet, raw or sealed
    (:func:`repro.protocol.wire.routing_id`).  Raises
    :class:`FrameError` — the connection-poisoning error — when the
    bytes are too short to hold the id.
    """
    try:
        return routing_id(pkt)
    except WireError as exc:
        raise FrameError(str(exc)) from exc


def encode_response(submission_id: bytes, status: Status) -> bytes:
    if len(submission_id) != 16:
        raise FrameError("bad submission id size in response")
    payload = submission_id + bytes([int(status)])
    return RESPONSE_SIZE.to_bytes(_LEN_SIZE, "big") + payload


def decode_response(payload: bytes) -> "tuple[bytes, Status]":
    if len(payload) != RESPONSE_SIZE:
        raise FrameError("response frame has wrong size")
    try:
        status = Status(payload[16])
    except ValueError as exc:
        raise FrameError(f"unknown response status {payload[16]}") from exc
    return bytes(payload[:16]), status


class FrameAssembler:
    """Incremental length-prefix deframer with a hard size bound.

    Feed raw socket chunks with :meth:`feed`; it returns the list of
    complete frame payloads the chunk completed (possibly empty,
    possibly several).  State is a single compacted ``bytearray``, so
    memory is bounded by ``max_frame`` plus one socket read regardless
    of how adversarially the sender fragments.

    A length prefix above ``max_frame`` raises :class:`FrameError`
    immediately — the connection is poisoned before a single body byte
    is buffered.  Once raised, the assembler refuses further input.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        if max_frame < 1:
            raise ValueError("max_frame must be positive")
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held for an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> "list[bytes]":
        if self._poisoned:
            raise FrameError("assembler already poisoned")
        self._buffer.extend(data)
        frames: "list[bytes]" = []
        offset = 0
        buffer = self._buffer
        while True:
            if len(buffer) - offset < _LEN_SIZE:
                break
            length = int.from_bytes(buffer[offset:offset + _LEN_SIZE], "big")
            if length > self.max_frame:
                self._poisoned = True
                raise FrameError(
                    f"frame length {length} exceeds the {self.max_frame}"
                    "-byte maximum"
                )
            if len(buffer) - offset < _LEN_SIZE + length:
                break
            start = offset + _LEN_SIZE
            frames.append(bytes(buffer[start:start + length]))
            offset = start + length
        if offset:
            del buffer[:offset]
        return frames
