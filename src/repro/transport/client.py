"""Framing client for the Prio socket transport.

:class:`TransportClient` speaks the :mod:`repro.transport.framing`
stream protocol over TCP or a unix socket: it frames one upload per
submission, keeps a window of them in flight, and matches response
frames back to submissions by id (responses may interleave across the
server's verification batches).

Two call styles:

* :meth:`submit` — one submission, await its decision (tests, simple
  clients).
* :meth:`submit_many` — pipelined: up to ``window`` submissions in
  flight at once, per-submission latency recorded (the soak
  benchmark's hot loop).
"""

from __future__ import annotations

import asyncio

from repro.transport.framing import (
    FrameAssembler,
    Status,
    decode_response,
    encode_upload,
)

__all__ = ["TransportClient"]


class TransportClient:
    """One connection to a :class:`~repro.transport.server
    .PrioTransportServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self._assembler = FrameAssembler()
        #: in-flight submission id -> (future, send-time)
        self._inflight: "dict[bytes, tuple[asyncio.Future, float]]" = {}
        #: seconds each decided submission spent in flight, send order
        self.latencies: "list[float]" = []
        self._reader_task: "asyncio.Task | None" = None
        #: why the response pump stopped; set once, and every later
        #: send raises it instead of waiting on a dead connection
        self._pump_error: "ConnectionError | None" = None
        self._closed = False

    # -- connection ------------------------------------------------------

    @classmethod
    async def connect_tcp(cls, host: str, port: int) -> "TransportClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    @classmethod
    async def connect_unix(cls, path: str) -> "TransportClient":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "TransportClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- response pump ---------------------------------------------------

    def _ensure_reader(self) -> None:
        if self._reader_task is None:
            self._reader_task = asyncio.ensure_future(self._pump())

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                data = await self.reader.read(65536)
                if not data:
                    break
                for payload in self._assembler.feed(data):
                    submission_id, status = decode_response(payload)
                    entry = self._inflight.pop(submission_id, None)
                    if entry is None:
                        continue  # duplicate/unknown: ignore
                    future, sent_at = entry
                    if not future.done():
                        self.latencies.append(loop.time() - sent_at)
                        future.set_result(status)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fail the waiters
            self._pump_error = ConnectionError(
                f"response stream failed: {exc!r}"
            )
            self._fail_inflight(exc)
            return
        self._pump_error = ConnectionError("server closed the connection")
        self._fail_inflight(self._pump_error)

    def _fail_inflight(self, exc: Exception) -> None:
        for future, _ in self._inflight.values():
            if not future.done():
                future.set_exception(exc)
        self._inflight.clear()

    # -- submission ------------------------------------------------------

    @staticmethod
    def frame_submission(submission, sealed: bool = False) -> bytes:
        """Encode a :class:`~repro.protocol.client.ClientSubmission`
        (or any object with ``.packets``) as one upload frame.

        With ``sealed=True`` the frame carries the submission's
        box-sealed packets (``envelope || box`` per server) instead of
        the cleartext ones; the submission must have been prepared by
        an encrypting client.
        """
        if sealed:
            if submission.sealed_packets is None:
                raise ValueError("submission carries no sealed packets")
            return encode_upload(list(submission.sealed_packets))
        return encode_upload([p.encode() for p in submission.packets])

    async def send_frame(
        self, frame: bytes, submission_id: bytes
    ) -> "asyncio.Future":
        """Write one pre-encoded upload frame; returns the decision
        future (resolves to a :class:`Status`).

        Responses are matched by submission id alone, so an id that is
        still in flight on this connection is refused with
        :class:`ValueError` before anything is written.  Once the
        response pump has stopped (the server closed the connection, or
        its stream failed) nothing could resolve the future, so every
        send raises that :class:`ConnectionError` instead.
        """
        if self._pump_error is not None:
            raise self._pump_error
        if submission_id in self._inflight:
            raise ValueError(
                f"submission {submission_id.hex()} is already in flight"
            )
        self._ensure_reader()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[submission_id] = (future, loop.time())
        self.writer.write(frame)
        await self.writer.drain()
        return future

    async def submit(self, submission, sealed: bool = False) -> Status:
        """Send one submission and await its decision."""
        future = await self.send_frame(
            self.frame_submission(submission, sealed=sealed),
            submission.submission_id,
        )
        return await future

    async def submit_many(
        self, frames: "list[tuple[bytes, bytes]]", window: int = 128
    ) -> "list[Status]":
        """Stream ``(submission_id, frame)`` pairs with a bounded
        in-flight window; returns one status per frame, send order."""
        futures: "list[asyncio.Future]" = []
        oldest = 0
        for submission_id, frame in frames:
            # Window the in-flight set: wait on the oldest decision
            # until there is room, so a slow (or read-paused) server
            # bounds this client's memory too.
            while len(self._inflight) >= window and oldest < len(futures):
                await futures[oldest]
                oldest += 1
            futures.append(await self.send_frame(frame, submission_id))
        return [await future for future in futures]
