"""The per-batch server protocol, written once, and its asyncio driver.

Appendix H defines one server protocol — Upload, Validate (two SNIP
rounds), Aggregate — and this module holds its one implementation, as
two coroutines over :meth:`ServerFanout.sweep
<repro.protocol.fanout.ServerFanout.sweep>`:

:func:`receive_and_ingest` (the *ingest half*)
    receive sweep -> first refusal per position -> ``ingest(keep)``
    sweep.  A position any server refused is rejected alone (the
    servers that did receive it abandon it, so an honest retry is not a
    replay); the survivors are committed to planes.

:func:`verify_and_accumulate` (the *verify half*)
    ``round1`` -> ``round2`` -> ``decide_batch`` -> ``accumulate``.

The halves own the one failure policy.  A failed sweep is
infrastructure — a crashed worker, a broken pool — and *abandons* the
batch (``abandon_all``: ids released, nothing decided, an honest retry
is accepted), in either half.  The one exception: a ``ValueError`` out
of the rounds is a protocol inconsistency (shapes were validated at
receive time) and *rejects* the batch (``reject_all``: ids burned).
The ``accumulate`` sweep is the commit point: a failure there cannot be
isolated (servers that already folded the batch cannot roll back), so
it propagates.

Every driver calls these halves: :class:`AsyncPrioPipeline` here (and,
through it, :class:`~repro.protocol.runner.PrioDeployment` and
:class:`~repro.protocol.registration.GatedDeployment`) and the socket
front end (:class:`~repro.transport.server.PrioTransportServer`).  The
simulated cluster (:mod:`repro.simnet.prio_cluster`) keeps its
message-driven schedule but speaks the same ops.

:class:`AsyncPrioPipeline` stages the halves over bounded
:class:`asyncio.Queue` hops —

    submissions -> [batcher] -> [ingest half] -> [verify half]

so expansion/decode of batch ``N+1`` overlaps verification of batch
``N``, and the per-server CPU work inside each half fans out over an
execution backend (:mod:`repro.protocol.fanout`: ``"inline"`` /
``"thread"`` / ``"process"`` / ``"auto"``, optionally ``":K"``
sharded).  With :meth:`AsyncPrioPipeline.run_values` the *client*
joins the pipeline as a producer stage —

    values -> [batched client prover] -> [ingest half] -> [verify half]

— each chunk proved, shared, and framed through the plane-resident
batched prover while the servers verify the previous chunk.  Queue
bounds give backpressure: a slow verify stage stalls ingest instead of
buffering unbounded plane matrices.

Everything that enters a server is wire bytes: the pipeline hands
``packet.encode()`` (or the sealed packet) to the receive ops, exactly
what the socket front end reads off the wire, so decisions are
bit-identical across drivers and backends by construction.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.server import PrioServer
from repro.protocol.wire import WireError

__all__ = [
    "AsyncPrioPipeline",
    "IngestedBatch",
    "PipelineStats",
    "receive_and_ingest",
    "run_pipelined",
    "verify_and_accumulate",
]

#: sentinel closing each stage's input queue
_DONE = object()


@dataclass
class PipelineStats:
    """Counters the pipeline keeps per run (all per submission)."""

    n_batches: int = 0
    n_receive_failures: int = 0
    #: submissions failed by a worker/backend crash (not a protocol
    #: rejection): the batch was abandoned — nothing decided, ids
    #: released — and the stream continued
    n_worker_failures: int = 0
    #: ingest batches that were in flight when verify started one —
    #: a direct measure of stage overlap (0 on a fully serial run)
    overlapped_batches: int = 0
    batch_sizes: list[int] = dc_field(default_factory=list)
    #: resolved execution backend ("inline" | "thread" | "process")
    executor: str = ""
    #: client-producer counters (run_values only): batches the batched
    #: prover framed, and their total upload bytes
    client_batches: int = 0
    upload_bytes: int = 0


@dataclass
class IngestedBatch:
    """What the ingest half hands the verify half (and the driver).

    The ingested share planes themselves stay wherever the backend
    keeps server state (driver process or per-server worker), keyed by
    ``batch_id``; only this bookkeeping crosses stages.
    """

    batch_id: int
    #: per position: the first server's typed refusal, or ``None``
    refusals: "list[Exception | None]"
    #: a worker failed before anything was decided: the batch is
    #: abandoned at every server and ``keep`` will not be verified
    abandoned: bool = False

    @property
    def keep(self) -> "list[int]":
        """Positions no server refused, ascending — the verify half's
        rows."""
        return [
            pos for pos, refusal in enumerate(self.refusals)
            if refusal is None
        ]


async def _cleanup_batch(
    fanout: ServerFanout, n_servers: int, batch_id: int, op: str
) -> None:
    """Best-effort per-server sweep after a mid-batch failure."""
    for s in range(n_servers):
        try:
            await fanout.call(s, op, batch_id)
        except Exception:  # noqa: BLE001 - backend may be gone
            continue


async def receive_and_ingest(
    fanout: ServerFanout, batch_id: int, payloads, sealed: bool
) -> IngestedBatch:
    """The ingest half of the per-batch protocol.

    ``payloads[s]`` is server ``s``'s wire bytes, one per batch
    position — sealed packets when ``sealed``, encoded packets
    otherwise.  Receive mutates only per-server replay state, so the
    servers' fused frame-check+decode sweeps fan out safely; within one
    server the batch stays in stream order.
    """
    n_servers = len(payloads)
    n = len(payloads[0])
    try:
        received = await fanout.sweep(
            "receive_sealed" if sealed else "receive_wire",
            [(batch_id, payloads[s]) for s in range(n_servers)],
        )
    except Exception:  # noqa: BLE001 - a worker died mid-receive
        # Servers that did receive must release the ids so an honest
        # retry is not mistaken for a replay.
        await _cleanup_batch(fanout, n_servers, batch_id, "abandon_all")
        return IngestedBatch(batch_id, [None] * n, abandoned=True)
    ingested = IngestedBatch(batch_id, [
        next((r[pos] for r in received if r[pos] is not None), None)
        for pos in range(n)
    ])
    try:
        # The heavy part — PRG expansion and byte decode into plane
        # matrices — fans out per server; refused positions are
        # abandoned wherever receive succeeded.
        await fanout.sweep(
            "ingest", [(batch_id, ingested.keep)] * n_servers
        )
    except Exception:  # noqa: BLE001 - a worker died mid-ingest
        await _cleanup_batch(fanout, n_servers, batch_id, "abandon_all")
        ingested.abandoned = True
    return ingested


async def verify_and_accumulate(
    fanout: ServerFanout, servers: "list[PrioServer]", ingested: IngestedBatch
) -> "list[bool] | None":
    """The verify half: one decision per ``ingested.keep`` position.

    Returns ``None`` when a worker failed before the commit point and
    the batch was abandoned (nothing decided; retryable).
    """
    n_kept = len(ingested.keep)
    if not n_kept:
        return []  # the ingest sweep already settled the batch
    n_servers = len(servers)
    batch_id = ingested.batch_id
    try:
        # The round-1/round-2 broadcasts stay in plane form — every
        # server consumes the same per-server batches.
        round1 = await fanout.sweep("round1", [(batch_id,)] * n_servers)
        round2 = await fanout.sweep(
            "round2", [(batch_id, round1)] * n_servers
        )
        decisions = servers[0].decide_batch(round2)
    except ValueError:
        # Shapes were validated at receive time, so an inconsistent
        # batch is a protocol violation: fail all of it, one submission
        # at a time, rather than mis-credit any of it.
        await _cleanup_batch(fanout, n_servers, batch_id, "reject_all")
        return [False] * n_kept
    except Exception:  # noqa: BLE001 - a worker died mid-round
        # Nothing was committed and nobody verified these submissions:
        # release the ids instead of burning them.
        await _cleanup_batch(fanout, n_servers, batch_id, "abandon_all")
        return None
    # The commit point.  A failure here cannot be isolated to the
    # batch: servers that already folded it into their accumulators
    # cannot roll back, so a partial commit leaves the server set
    # divergent (shares would no longer cancel at publish).  Let the
    # exception propagate — the run fails loudly instead of silently
    # publishing garbage.
    await fanout.sweep("accumulate", [(batch_id, decisions)] * n_servers)
    return decisions


class AsyncPrioPipeline:
    """Drives a server set through the staged batch protocol.

    ``queue_depth`` bounds how many ingested-but-unverified batches may
    exist at once (the overlap window); ``executor`` selects the
    per-server execution backend — ``"thread"`` / ``"process"`` /
    ``"inline"`` / ``"auto"`` (optionally ``":K"`` sharded), a ready
    :class:`~repro.protocol.fanout.ServerFanout` (reused across runs,
    caller-owned), a plain ``concurrent.futures`` executor
    (caller-owned), or ``None`` for the host-sized default.
    """

    def __init__(
        self,
        servers: "list[PrioServer]",
        batch_size: int = 64,
        queue_depth: int = 2,
        executor: "str | ServerFanout | ThreadPoolExecutor | None" = None,
        encrypt: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.servers = servers
        self.batch_size = batch_size
        self.queue_depth = queue_depth
        self.executor = executor
        self.encrypt = encrypt
        self.stats = PipelineStats()
        #: True while the verify stage is mid-batch (stage-overlap probe)
        self._verifying = False
        #: False when a reused backend could not be state-synced for
        #: this run (ops must not run against stale worker state)
        self._backend_ready = True
        self._next_batch_id = 0

    # ------------------------------------------------------------------

    def run(self, submissions) -> list[bool]:
        """Synchronous entry point: pipeline every submission, return
        one accept/reject decision per submission (stream order)."""
        return asyncio.run(self.run_async(submissions))

    def run_values(self, client, values) -> list[bool]:
        """Synchronous entry point for the client-producer pipeline."""
        return asyncio.run(self.run_values_async(client, values))

    async def run_values_async(self, client, values) -> list[bool]:
        """Pipeline raw *values* with the batched client as a producer.

        Stage 0 proves and frames the values in client batches of
        ``batch_size`` through the plane-resident batched prover
        (:meth:`~repro.protocol.client.PrioClient.prepare_submissions`),
        off the event loop's thread, so the client proves/frames chunk
        ``N+1`` while the servers ingest and verify chunk ``N`` — the
        protocol's two halves are batched *and* overlapped.  Decisions,
        replay protection, and statistics match preparing everything up
        front and calling :meth:`run_async` (the prover draws in scalar
        order, so cleartext uploads are bit-identical in any chunking).
        """
        values = list(values)
        submissions: list = [None] * len(values)

        def producer(ingest_q):
            return self._producer(client, values, submissions, ingest_q)

        return await self._run_stream(submissions, producer)

    async def run_async(self, submissions) -> list[bool]:
        submissions = list(submissions)

        def producer(ingest_q):
            return self._batcher(submissions, ingest_q)

        return await self._run_stream(submissions, producer)

    async def _run_stream(self, submissions, make_producer) -> list[bool]:
        # A pipeline object is reusable: every run starts from fresh
        # per-run state.  Without this, a second run() reports the
        # previous run's counters folded into its own and resumes
        # batch ids mid-stream (confusing any op log keyed on them).
        self.stats = PipelineStats()
        self._verifying = False
        self._next_batch_id = 0
        results: "list[bool]" = [False] * len(submissions)
        fanout, owned = resolve_fanout(
            self.servers, self.executor, self.batch_size
        )
        self.stats.executor = fanout.kind
        synced = True
        try:
            if not owned:
                # A reused backend may hold state from a previous run;
                # re-sync it from the driver-side servers.  A failed
                # push is not fatal — every batch below fails without
                # touching the backend — but the run must NOT execute
                # ops against whatever stale state the workers kept,
                # and end_run must not clobber the driver-side servers
                # with it either.
                try:
                    fanout.begin_run()
                except Exception:  # noqa: BLE001
                    synced = False
            self._backend_ready = synced
            ingest_q: asyncio.Queue = asyncio.Queue(self.queue_depth)
            verify_q: asyncio.Queue = asyncio.Queue(self.queue_depth)
            tasks = [
                asyncio.create_task(make_producer(ingest_q)),
                asyncio.create_task(
                    self._ingest_stage(
                        submissions, ingest_q, verify_q, fanout
                    )
                ),
                asyncio.create_task(
                    self._verify_stage(verify_q, results, fanout)
                ),
            ]
            try:
                await asyncio.gather(*tasks)
            except BaseException:
                # Cancel *and await* the stages: an abandoned pending
                # task would otherwise die with "task was destroyed but
                # it is pending" after the loop closes.
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                # In-flight batches were received but will never be
                # decided: release their ids (an honest retry must not
                # look like a replay) and their batch state (a reused
                # backend must not pin plane matrices forever).
                try:
                    await fanout.sweep(
                        "abandon_open", [()] * len(self.servers)
                    )
                except BaseException:  # noqa: BLE001 - cleanup only
                    pass
                raise
        finally:
            try:
                if synced:
                    fanout.end_run()
            finally:
                if owned:
                    # wait=True: a fire-and-forget shutdown leaks one
                    # worker set per run() call.
                    fanout.close()
        return results

    # ------------------------------------------------------------------
    # Stage 1: group the stream into verification batches
    # ------------------------------------------------------------------

    async def _batcher(self, submissions, ingest_q: asyncio.Queue) -> None:
        batch: list[int] = []
        for index in range(len(submissions)):
            batch.append(index)
            if len(batch) >= self.batch_size:
                await ingest_q.put(batch)
                batch = []
        if batch:
            await ingest_q.put(batch)
        await ingest_q.put(_DONE)

    async def _producer(
        self, client, values, submissions, ingest_q: asyncio.Queue
    ) -> None:
        """Stage 0: the batched client prover as a pipeline producer.

        Each client batch proves/shares/frames on a worker thread (the
        batch NTT and byte-encode kernels release the GIL on the numpy
        backend) and lands in ``submissions`` before its index batch is
        queued, so the ingest stage's payload lookups always hit ready
        uploads.  Queue backpressure applies to the client too: a slow
        verify stage stalls proving instead of buffering every upload.
        """
        for start in range(0, len(values), self.batch_size):
            indices = list(
                range(start, min(start + self.batch_size, len(values)))
            )
            prepared = await asyncio.to_thread(
                client.prepare_submissions, [values[i] for i in indices]
            )
            for index, submission in zip(indices, prepared):
                submissions[index] = submission
                self.stats.upload_bytes += submission.upload_bytes
            self.stats.client_batches += 1
            await ingest_q.put(indices)
        await ingest_q.put(_DONE)

    # ------------------------------------------------------------------
    # Stage 2: the ingest half, per server in workers
    # ------------------------------------------------------------------

    def _payloads_for(self, server_slot: int, submissions, indices):
        """One server's slice of a batch as wire bytes.

        Packets are selected by the server's *protocol* index, not its
        position in ``self.servers`` — a shuffled server list must
        still route every share to the server it was addressed to.  A
        (mutated) packet whose header fields cannot be encoded goes out
        as an empty payload, which the server refuses as a malformed
        frame — that submission's receive failure, like any other.
        """
        index = self.servers[server_slot].server_index
        if self.encrypt:
            return [submissions[i].sealed_packets[index] for i in indices]
        payloads = []
        for i in indices:
            try:
                payloads.append(submissions[i].packets[index].encode())
            except WireError:
                payloads.append(b"")
        return payloads

    async def _ingest_stage(
        self, submissions, ingest_q, verify_q, fanout
    ) -> None:
        while True:
            batch = await ingest_q.get()
            if batch is _DONE:
                await verify_q.put(_DONE)
                return
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self.stats.n_batches += 1
            if not self._backend_ready:
                # State push failed on a reused backend: running ops
                # would execute against stale worker state.  Fail the
                # stream without touching the backend at all.
                self.stats.n_worker_failures += len(batch)
                self.stats.batch_sizes.append(0)
                continue
            payloads = [
                self._payloads_for(s, submissions, batch)
                for s in range(len(self.servers))
            ]
            ingested = await receive_and_ingest(
                fanout, batch_id, payloads, self.encrypt
            )
            survivors = [batch[pos] for pos in ingested.keep]
            self.stats.n_receive_failures += len(batch) - len(survivors)
            if ingested.abandoned:
                self.stats.n_worker_failures += len(survivors)
                self.stats.batch_sizes.append(0)
                continue
            self.stats.batch_sizes.append(len(survivors))
            if self._verifying:
                self.stats.overlapped_batches += 1
            if survivors:
                await verify_q.put((ingested, survivors))

    # ------------------------------------------------------------------
    # Stage 3: the verify half
    # ------------------------------------------------------------------

    async def _verify_stage(self, verify_q, results, fanout) -> None:
        while True:
            item = await verify_q.get()
            if item is _DONE:
                return
            ingested, survivors = item
            self._verifying = True
            try:
                decisions = await verify_and_accumulate(
                    fanout, self.servers, ingested
                )
            finally:
                self._verifying = False
            if decisions is None:
                self.stats.n_worker_failures += len(survivors)
                continue
            for index, accepted in zip(survivors, decisions):
                results[index] = accepted


def run_pipelined(
    servers: "list[PrioServer]",
    submissions,
    batch_size: int = 64,
    queue_depth: int = 2,
    encrypt: bool = False,
    executor: "str | ServerFanout | ThreadPoolExecutor | None" = None,
) -> tuple[list[bool], PipelineStats]:
    """One-call pipeline run over prepared submissions.

    Returns ``(decisions, stats)`` with one decision per submission in
    stream order (``False`` for rejected *and* for abandoned ones —
    ``stats.n_worker_failures`` tells them apart).  ``executor``
    selects the per-server backend (see :class:`AsyncPrioPipeline`).
    """
    pipeline = AsyncPrioPipeline(
        servers,
        batch_size=batch_size,
        queue_depth=queue_depth,
        executor=executor,
        encrypt=encrypt,
    )
    decisions = pipeline.run(submissions)
    return decisions, pipeline.stats
