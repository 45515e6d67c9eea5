"""Asyncio socket front end for the batched Prio verification core.

:class:`PrioTransportServer` hosts a full logical server set behind
real TCP and/or unix-domain listeners.  Clients stream length-framed
uploads (:mod:`repro.transport.framing`); the front end groups them
into verification batches and hands each batch to the one batch
protocol (:func:`~repro.protocol.pipeline.receive_and_ingest` then
:func:`~repro.protocol.pipeline.verify_and_accumulate`) the in-memory
pipeline runs — so decisions, and what happens when a worker crashes,
are identical to :func:`~repro.protocol.pipeline.run_pipelined` on the
same uploads.
Packet bytes go from the socket buffer to the fused batch decode with
no intermediate per-packet materialization: frames split into byte
slices, headers parse as fixed-offset views, and every body joins one
vectorized sweep per server per batch.

The production ingredients a real front end forces:

**Watermark backpressure.**  ``pending`` counts submissions accepted
off the wire but not yet decided.  At ``high_watermark`` every
connection's reads pause (``transport.pause_reading``); kernel socket
buffers then fill and TCP flow control pushes back to the clients.
Reads resume once verification drains ``pending`` to
``low_watermark``.  Server memory is bounded by the watermark, not by
client send rate.

**Load shedding.**  Frames that arrive while ``pending`` is at
``shed_limit`` (buffered bytes parsed after the pause, connections
racing the watermark) are answered ``BUSY`` without touching the
verification core — the submission was not processed and may be
retried.

**Per-connection rate limiting.**  A token bucket per connection
(``rate_limit`` frames/s, burst ``rate_burst``); a connection that
exceeds it has its reads paused until its bucket refills — the flood
slows down, honest connections are untouched.

**Poison-only-the-offender.**  A malformed or oversized frame
(unparseable structure, length prefix above ``max_frame``, packet too
short to carry a submission id, wrong packet count) closes that
connection alone.  Protocol-level badness inside a well-formed frame
(bad share ranges, replays, wrong lengths) stays per submission:
the offending upload is ``REJECTED``, batchmates are unaffected.

**Graceful drain.**  :meth:`stop` closes the listeners, flushes the
partial batch, waits for every in-flight batch to be *decided*,
answers stragglers ``BUSY``, releases any still-open ids (nothing is
ever stranded in ``_pending_ids``), merges worker state back
(process fan-out), and closes the connections.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.pipeline import receive_and_ingest, verify_and_accumulate
from repro.protocol.server import PrioServer
from repro.protocol.wire import is_sealed_payload
from repro.transport.framing import (
    DEFAULT_MAX_FRAME,
    FrameAssembler,
    FrameError,
    Status,
    encode_response,
    packet_submission_id,
    split_upload,
)

__all__ = ["PrioTransportServer", "TransportConfig", "TransportStats"]


@dataclass
class TransportConfig:
    """Tuning knobs for one :class:`PrioTransportServer`.

    Defaults derive from ``batch_size``: pause reads at four batches
    of undecided submissions, resume at two, shed at eight.
    """

    batch_size: int = 64
    #: seconds a partial batch may wait for more frames before it
    #: flushes to verification anyway
    linger_s: float = 0.005
    max_frame: int = DEFAULT_MAX_FRAME
    high_watermark: "int | None" = None
    low_watermark: "int | None" = None
    shed_limit: "int | None" = None
    #: per-connection sustained frames/second (None = unlimited)
    rate_limit: "float | None" = None
    #: per-connection burst allowance in frames
    rate_burst: "int | None" = None
    #: execution backend: "inline" | "thread" | "process" | "auto"
    #: (optionally with a ":K" shard suffix, e.g. "process:4"), a
    #: ready ServerFanout, or None for the host-sized default
    executor: object = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.high_watermark is None:
            self.high_watermark = 4 * self.batch_size
        if self.low_watermark is None:
            self.low_watermark = max(1, self.high_watermark // 2)
        if self.shed_limit is None:
            self.shed_limit = 2 * self.high_watermark
        if not (
            0 < self.low_watermark
            <= self.high_watermark
            <= self.shed_limit
        ):
            raise ValueError(
                "need 0 < low_watermark <= high_watermark <= shed_limit"
            )
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.rate_burst is None:
            self.rate_burst = max(8, self.batch_size)


@dataclass
class TransportStats:
    """Counters one server keeps across its whole serve lifetime."""

    n_connections: int = 0
    n_poisoned: int = 0
    n_submissions: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    n_shed: int = 0
    n_rate_limited: int = 0
    n_batches: int = 0
    #: submissions failed by a backend/worker crash (answered BUSY)
    n_worker_failures: int = 0
    #: watermark pause events (reads paused on every connection)
    n_pauses: int = 0
    #: highest undecided-submission count observed
    max_pending: int = 0
    executor: str = ""


class _TokenBucket:
    """Frames-per-second policing with pushback (may run negative)."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = now

    def consume(self, now: float) -> float:
        """Take one token; returns seconds to pause (0 when allowed)."""
        self.tokens = min(
            self.tokens + (now - self.last) * self.rate, self.burst
        )
        self.last = now
        self.tokens -= 1.0
        if self.tokens >= 0.0:
            return 0.0
        return -self.tokens / self.rate


@dataclass
class _PendingUpload:
    """One framed submission waiting for its verification batch."""

    __slots__ = ("conn", "submission_id", "payloads", "sealed")
    conn: "_UploadConnection"
    submission_id: bytes
    payloads: "list[bytes]"
    #: packets are box-sealed (envelope-prefixed); decides which
    #: receive op the verification batch runs
    sealed: bool


class _UploadConnection(asyncio.Protocol):
    """One client connection: deframe, rate-limit, hand off uploads."""

    def __init__(self, server: "PrioTransportServer") -> None:
        self.server = server
        self.transport: "asyncio.Transport | None" = None
        self.assembler = FrameAssembler(server.config.max_frame)
        self.bucket: "_TokenBucket | None" = None
        self.closed = False
        #: reads paused for the global watermark
        self.flow_paused = False
        #: reads paused by this connection's own rate limiter
        self.rate_paused = False
        self._rate_resume: "asyncio.TimerHandle | None" = None

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        config = server.config
        if config.rate_limit is not None:
            self.bucket = _TokenBucket(
                config.rate_limit, config.rate_burst,
                server._loop.time(),
            )
        server._register(self)

    def connection_lost(self, exc) -> None:  # noqa: ARG002
        self.closed = True
        if self._rate_resume is not None:
            self._rate_resume.cancel()
            self._rate_resume = None
        self.server._unregister(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.assembler.feed(data)
        except FrameError:
            self.poison()
            return
        for payload in frames:
            if not self.server._handle_upload(self, payload):
                return  # poisoned mid-iteration; drop the rest
        if self.bucket is not None and frames:
            now = self.server._loop.time()
            delay = 0.0
            for _ in frames:
                delay = self.bucket.consume(now)
            if delay > 0.0 and not self.rate_paused and not self.closed:
                self.rate_paused = True
                self.server.stats.n_rate_limited += 1
                self._apply_flow()
                self._rate_resume = self.server._loop.call_later(
                    delay, self._rate_refill
                )

    def eof_received(self) -> bool:
        return False  # close the transport

    # -- flow control ----------------------------------------------------

    def _rate_refill(self) -> None:
        self._rate_resume = None
        self.rate_paused = False
        self._apply_flow()

    def set_flow_paused(self, paused: bool) -> None:
        self.flow_paused = paused
        self._apply_flow()

    def _apply_flow(self) -> None:
        if self.closed or self.transport is None:
            return
        if self.flow_paused or self.rate_paused:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    # -- output ----------------------------------------------------------

    def send_response(self, submission_id: bytes, status: Status) -> None:
        if self.closed or self.transport is None:
            return
        self.transport.write(encode_response(submission_id, status))

    def poison(self) -> None:
        """Close this connection for a frame-level violation."""
        if self.closed:
            return
        self.closed = True
        self.server.stats.n_poisoned += 1
        if self.transport is not None:
            self.transport.close()


class PrioTransportServer:
    """Socket front end over one logical Prio server set.

    Typical use::

        server = PrioTransportServer(deployment.servers,
                                     TransportConfig(batch_size=64))
        await server.start()
        host, port = await server.serve_tcp("127.0.0.1", 0)
        ...                      # clients connect and stream uploads
        await server.stop()      # drain: every in-flight id decided

    The same instance may serve TCP and unix listeners at once; all
    feed one batcher and one verification worker.
    """

    def __init__(
        self,
        servers: "list[PrioServer]",
        config: "TransportConfig | None" = None,
    ) -> None:
        self.servers = servers
        self.config = config or TransportConfig()
        self.stats = TransportStats()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._fanout: "ServerFanout | None" = None
        self._owned_fanout = False
        self._listeners: "list[asyncio.AbstractServer]" = []
        self._connections: "set[_UploadConnection]" = set()
        self._batch: "list[_PendingUpload]" = []
        self._batch_q: "asyncio.Queue | None" = None
        self._linger: "asyncio.TimerHandle | None" = None
        self._worker: "asyncio.Task | None" = None
        self._pending = 0
        self._paused = False
        self._draining = False
        self._started = False
        self._next_batch_id = 0
        #: test/ops hook: clear to stall the verify worker mid-stream
        self._verify_gate: "asyncio.Event | None" = None
        #: first accumulate-sweep failure; re-raised by :meth:`stop`
        self._commit_failure: "Exception | None" = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Resolve the execution backend and start the verify worker."""
        if self._started:
            raise RuntimeError("transport server already started")
        self._loop = asyncio.get_running_loop()
        # Bounded by the shed gate's invariant: every queued batch holds
        # at least one pending upload and _handle_upload sheds once
        # _pending reaches shed_limit, so depth can never legitimately
        # reach shed_limit — QueueFull here means broken accounting, not
        # load, and beats growing without bound.
        self._batch_q = asyncio.Queue(maxsize=self.config.shed_limit)
        self._verify_gate = asyncio.Event()
        self._verify_gate.set()
        self._fanout, self._owned_fanout = resolve_fanout(
            self.servers, self.config.executor, self.config.batch_size
        )
        self.stats.executor = self._fanout.kind
        if not self._owned_fanout:
            # A reused backend may hold a previous run's worker state;
            # re-sync it from the driver-side servers (the same rule
            # the in-memory pipeline applies).
            self._fanout.begin_run()
        self._started = True
        self._draining = False
        self._worker = asyncio.create_task(self._verify_worker())

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "tuple[str, int]":
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._require_started()
        listener = await self._loop.create_server(
            lambda: _UploadConnection(self), host, port
        )
        self._listeners.append(listener)
        sock = listener.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_unix(self, path: str) -> str:
        """Listen on a unix-domain socket; returns the bound path."""
        self._require_started()
        listener = await self._loop.create_unix_server(
            lambda: _UploadConnection(self), path
        )
        self._listeners.append(listener)
        return path

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("call start() before serving")

    async def stop(self) -> None:
        """Graceful drain: decide everything in flight, then tear down.

        Listeners close first (no new connections), frames still
        arriving on live connections answer ``BUSY``, the partial
        batch flushes, and the call returns only after every queued
        batch has been decided and responded to.  No submission id is
        left pending at any logical server.  Raises the first
        commit-point (accumulate) failure of the serve, if any — the
        published aggregate cannot be trusted after one.
        """
        if not self._started:
            return
        self._draining = True
        # A held verification gate must not hang the drain: in-flight
        # batches get decided, not stranded.
        self._verify_gate.set()
        for listener in self._listeners:
            listener.close()
        for listener in self._listeners:
            await listener.wait_closed()
        self._listeners.clear()
        if self._linger is not None:
            self._linger.cancel()
            self._linger = None
        self._flush_batch()
        await self._batch_q.join()
        self._worker.cancel()
        try:
            await self._worker
        except asyncio.CancelledError:
            pass
        self._worker = None
        try:
            # Safety net: a crashed batch may have left ids pending at
            # a subset of servers; an honest retry must not look like
            # a replay, and plane matrices must not outlive the serve.
            await self._fanout.sweep(
                "abandon_open", [()] * len(self.servers)
            )
        except Exception:  # noqa: BLE001 - backend may be gone
            pass
        try:
            self._fanout.end_run()
        finally:
            if self._owned_fanout:
                self._fanout.close()
            self._fanout = None
        for conn in list(self._connections):
            if conn.transport is not None:
                conn.transport.close()
        self._started = False
        failure, self._commit_failure = self._commit_failure, None
        if failure is not None:
            raise failure

    async def __aenter__(self) -> "PrioTransportServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- test/ops hooks --------------------------------------------------

    def hold_verification(self) -> None:
        """Stall the verify worker before its next batch (watermark
        drills, chaos testing).  Reads pause once ``pending`` crosses
        the high watermark; nothing is lost."""
        self._require_started()
        self._verify_gate.clear()

    def release_verification(self) -> None:
        self._require_started()
        self._verify_gate.set()

    @property
    def pending_submissions(self) -> int:
        """Submissions accepted off the wire but not yet decided."""
        return self._pending

    # -- connection registry --------------------------------------------

    def _register(self, conn: _UploadConnection) -> None:
        self.stats.n_connections += 1
        self._connections.add(conn)
        if self._paused:
            conn.set_flow_paused(True)

    def _unregister(self, conn: _UploadConnection) -> None:
        self._connections.discard(conn)

    # -- upload intake ---------------------------------------------------

    def _handle_upload(self, conn: _UploadConnection, payload: bytes) -> bool:
        """One complete upload frame; returns False when ``conn`` was
        poisoned (the caller drops the rest of its parsed frames)."""
        try:
            payloads = split_upload(payload)
            if len(payloads) != len(self.servers):
                raise FrameError(
                    f"upload carries {len(payloads)} packets for "
                    f"{len(self.servers)} servers"
                )
            # raw or sealed: the id sits at a fixed cleartext offset
            # either way, so the response frame can echo it
            submission_id = packet_submission_id(payloads[0])
        except FrameError:
            conn.poison()
            return False
        sealed = is_sealed_payload(payloads[0])
        self.stats.n_submissions += 1
        if self._draining or self._pending >= self.config.shed_limit:
            self.stats.n_shed += 1
            conn.send_response(submission_id, Status.BUSY)
            return True
        if self._batch and self._batch[0].sealed != sealed:
            # A verification batch runs one receive op; keep batches
            # homogeneous by flushing when sealed-ness flips.
            self._flush_batch()
        self._batch.append(
            _PendingUpload(conn, submission_id, payloads, sealed)
        )
        self._pending += 1
        if self._pending > self.stats.max_pending:
            self.stats.max_pending = self._pending
        if self._pending >= self.config.high_watermark and not self._paused:
            self._paused = True
            self.stats.n_pauses += 1
            for other in self._connections:
                other.set_flow_paused(True)
        if len(self._batch) >= self.config.batch_size:
            self._flush_batch()
        elif self._linger is None:
            self._linger = self._loop.call_later(
                self.config.linger_s, self._linger_flush
            )
        return True

    def _linger_flush(self) -> None:
        self._linger = None
        self._flush_batch()

    def _flush_batch(self) -> None:
        if self._linger is not None:
            self._linger.cancel()
            self._linger = None
        if not self._batch:
            return
        self._batch_q.put_nowait(self._batch)
        self._batch = []

    def _settle(self, n: int) -> None:
        """Account ``n`` decided submissions; resume reads below low."""
        self._pending -= n
        if self._paused and self._pending <= self.config.low_watermark:
            self._paused = False
            for conn in self._connections:
                conn.set_flow_paused(False)

    # -- verification worker --------------------------------------------

    async def _verify_worker(self) -> None:
        while True:
            batch = await self._batch_q.get()
            try:
                await self._verify_gate.wait()
                await self._process_batch(batch)
            except Exception as exc:  # noqa: BLE001 - the commit point
                # Only a failed accumulate sweep gets here: servers that
                # folded the batch cannot roll back, so the aggregate may
                # be divergent.  Stop admitting (uploads answer BUSY),
                # keep the drain alive, and fail the serve at stop().
                self._draining = True
                self._commit_failure = self._commit_failure or exc
            finally:
                self._batch_q.task_done()

    def _payloads_for(self, server_slot: int, batch) -> "list[bytes]":
        """One server's packet bytes, routed by *protocol* index (a
        shuffled server list still receives the packets addressed to
        it — frame positions follow server order on the wire)."""
        index = self.servers[server_slot].server_index
        return [upload.payloads[index] for upload in batch]

    def _respond(self, uploads, statuses) -> None:
        """Answer ``uploads`` and account them as decided."""
        for upload, status in zip(uploads, statuses):
            upload.conn.send_response(upload.submission_id, status)
        self._settle(len(uploads))

    async def _process_batch(self, batch: "list[_PendingUpload]") -> None:
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self.stats.n_batches += 1
        ingested = await receive_and_ingest(
            self._fanout,
            batch_id,
            [
                self._payloads_for(s, batch)
                for s in range(len(self.servers))
            ],
            sealed=batch[0].sealed,
        )
        # At least one server refused the frame (replay, bad range,
        # wrong length...): reject those uploads alone, right away.
        refused = [
            upload for upload, refusal in zip(batch, ingested.refusals)
            if refusal is not None
        ]
        self.stats.n_rejected += len(refused)
        self._respond(refused, [Status.REJECTED] * len(refused))
        survivors = [batch[pos] for pos in ingested.keep]
        decisions = None
        try:
            if not ingested.abandoned:
                decisions = await verify_and_accumulate(
                    self._fanout, self.servers, ingested
                )
        finally:
            if decisions is None:
                # A worker failed: nothing was decided, the ids are
                # released, the client may retry.
                self.stats.n_worker_failures += len(survivors)
                self._respond(survivors, [Status.BUSY] * len(survivors))
        if decisions is not None:
            self.stats.n_accepted += sum(decisions)
            self.stats.n_rejected += len(decisions) - sum(decisions)
            self._respond(survivors, [
                Status.ACCEPTED if accepted else Status.REJECTED
                for accepted in decisions
            ])
