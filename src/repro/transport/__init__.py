"""Real socket transport for Prio uploads.

This package puts the batch protocol (:mod:`repro.protocol.pipeline`)
behind real sockets:

* :mod:`repro.transport.framing` — the length-framed stream format
  (one upload frame per submission, one response frame per decision)
  and an incremental, bounded frame parser.
* :mod:`repro.transport.server` — an asyncio TCP / unix-socket front
  end that frames uploads off the wire into per-server byte batches
  and runs the shared batch protocol on them, with watermark
  backpressure, per-connection rate limiting, load shedding, and
  graceful drain.
* :mod:`repro.transport.client` — the matching framing client (used
  by the end-to-end benchmark's load generator and the tests).

Decisions are bit-identical to the in-memory drivers by construction:
the same wire bytes enter the same two protocol coroutines.
"""

from repro.transport.framing import (
    FrameAssembler,
    FrameError,
    Status,
    decode_response,
    encode_response,
    encode_upload,
    split_upload,
)
from repro.transport.client import TransportClient
from repro.transport.server import PrioTransportServer, TransportConfig

__all__ = [
    "FrameAssembler",
    "FrameError",
    "PrioTransportServer",
    "Status",
    "TransportClient",
    "TransportConfig",
    "decode_response",
    "encode_response",
    "encode_upload",
    "split_upload",
]
