"""Per-server execution backends behind one batch-id-keyed op seam.

Prio's deployment model assumes each server runs on its own hardware
(NSDI 2017 §6).  This module is where the batch protocol in
:mod:`repro.protocol.pipeline` hands per-server work to wherever that
server's state lives.

The op seam
-----------

Every backend drives the *same* op implementation, :class:`_ServerOps`
— a thin batch-id-keyed wrapper over the ``PrioServer`` batch entry
points — so accept/reject decisions are bit-identical by construction.
The ten ops are the whole server-side protocol surface: ``receive_wire``
/ ``receive_sealed`` (wire bytes in, one ``None | Exception`` verdict
per position out), ``ingest`` (commit the survivors to planes),
``round1`` / ``round2`` (the SNIP broadcasts, plane form),
``accumulate`` (apply decisions), ``reject_all`` / ``abandon_all`` /
``abandon_open`` (failure cleanup) and ``snapshot`` (state sync).

Backends
--------

A backend is named one way (:func:`resolve_fanout`): a kind from
:data:`EXECUTOR_KINDS` or a ready :class:`ServerFanout`.  ``None``
means ``"inline"``.

``inline``
    Ops run on the event loop's thread, each op's future completing one
    loop turn later (the socket front end reads frames at those
    awaits).  There is no thread-pool kind: the hot kernels release the
    GIL, but everything between them holds it, so threads add hand-offs
    without adding overlap.  Parallelism is ``process``'s job.

``process``
    One single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
    per server.  The single worker pins each server's mutable state
    (replay sets, epoch counters, the plane-resident accumulator) to
    exactly one process — ops for server ``i`` always execute where
    server ``i`` lives — while distinct servers verify genuinely in
    parallel, GIL-free.

What crosses the process boundary
---------------------------------

Everything crosses in plane form, never as per-element Python ints:

* **inbound** — each server's slice of a batch's wire bytes (seeds
  stay 16-byte seeds and expand worker-side),
* **between rounds** — :class:`~repro.snip.verifier.Round1Batch` /
  ``Round2Batch``, i.e. two ``(B,)`` limb planes each (pickling a
  :class:`~repro.field.batch.BatchVector` serializes the int64 plane
  buffer directly),
* **outbound** — per-position receive verdicts and, at run end, one
  delta snapshot per worker (plane accumulator + counters + replay
  ids + epoch clock) folded into the driver's server objects by
  :meth:`PrioServer.fold_shard_state
  <repro.protocol.server.PrioServer.fold_shard_state>` — the one
  run-end merge — so ``publish()`` and the deployment statistics keep
  working unchanged.

The ingested ``(B, z_len)`` share matrix and the verifier party never
cross at all: they are born and die inside the worker.

Worker lifecycle is strict: pools shut down with ``wait=True`` so
repeated runs leak neither threads nor child processes, and a crashed
worker (``BrokenProcessPool``) fails the affected batches without
hanging the driver.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ProcessPoolExecutor

from repro.protocol.server import PendingSubmission, PrioServer

#: the executor kinds :func:`resolve_fanout` accepts
EXECUTOR_KINDS = ("inline", "process")


class FanoutError(ValueError):
    """Raised for an unknown ``executor`` selection."""


class _InlineExecutor:
    """Executor that runs work on the calling thread.

    Implements the one Executor method :meth:`loop.run_in_executor
    <asyncio.loop.run_in_executor>` uses, so an inline op's future
    completes one event-loop turn after the call.
    """

    def submit(self, fn, *args):
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - mirror Executor
            future.set_exception(exc)
        return future


# ----------------------------------------------------------------------
# The shared op implementation
# ----------------------------------------------------------------------


class _BatchState:
    """One in-flight verification batch at one server."""

    __slots__ = ("received", "pendings", "party")

    def __init__(self) -> None:
        #: per-position ``PendingSubmission | Exception`` (receive output)
        self.received: "list | None" = None
        #: survivors, in stream order (set at ingest)
        self.pendings: "list[PendingSubmission] | None" = None
        self.party = None


class _ServerOps:
    """Batch-id-keyed protocol ops over one :class:`PrioServer`.

    Every backend — inline or process — executes exactly this class,
    so the protocol's semantics cannot drift between them.  In
    process mode an instance lives in the worker that owns the server;
    locally one instance per server lives in the driver process.  All
    state is keyed by an opaque ``batch_id`` the driver picks.
    """

    def __init__(self, server: PrioServer) -> None:
        self.server = server
        self._batches: dict[int, _BatchState] = {}

    def _receive(self, batch_id: int, received):
        """Open a batch with its receive output; pendings stay resident.

        Returns one ``None`` (success) or the refusing exception per
        position — the cross-boundary form; the heavy
        :class:`PendingSubmission` objects (latent seeds, decoded
        planes) never leave this process.
        """
        state = self._batches[batch_id] = _BatchState()
        state.received = received
        return [r if isinstance(r, Exception) else None for r in received]

    def receive_wire(self, batch_id: int, payloads):
        """Frame-validate encoded packets, one per position — bytes
        cross the worker boundary (cheap to pickle), headers parse
        worker-side, bodies join the server's fused batch decode."""
        return self._receive(
            batch_id, self.server.receive_wire_batch(payloads)
        )

    def receive_sealed(self, batch_id: int, payloads):
        """Frame-validate sealed packets (``envelope || box`` per
        position).  Boxes open worker-side — the worker owns its
        server's box key — and plaintexts join the same fused decode."""
        return self._receive(
            batch_id, self.server.receive_sealed_batch(payloads)
        )

    def ingest(self, batch_id: int, keep) -> None:
        """Commit receive: abandon non-survivors, plane-ingest the rest.

        ``keep`` holds the positions (into this batch's payloads) that
        every server received successfully.  Positions this server
        received but a peer did not are abandoned: no decision was
        made, so an honest retry must not be mistaken for a replay.
        """
        state = self._batches[batch_id]
        keep_set = set(keep)
        survivors: list[PendingSubmission] = []
        for pos, received in enumerate(state.received):
            if not isinstance(received, PendingSubmission):
                continue
            if pos in keep_set:
                survivors.append(received)
            else:
                self.server.abandon(received)
        state.received = None
        state.pendings = survivors
        if survivors:
            self.server._ingest_batch(survivors)
        else:
            # Nothing to verify: the batch is settled here and now.
            del self._batches[batch_id]

    def round1(self, batch_id: int):
        state = self._batches[batch_id]
        state.party, batch = self.server.begin_verification_batch(
            state.pendings
        )
        return batch

    def round2(self, batch_id: int, round1_batches):
        state = self._batches[batch_id]
        return self.server.finish_verification_batch(
            state.party, round1_batches
        )

    def accumulate(self, batch_id: int, decisions) -> None:
        state = self._batches[batch_id]
        self.server.accumulate_batch(state.pendings, decisions)
        del self._batches[batch_id]

    def _settle_undecided(self, batch_id: int, settle) -> None:
        """Apply ``settle`` to every undecided pending of a batch."""
        state = self._batches.pop(batch_id, None)
        if state is None:
            return
        for pending in state.pendings or ():
            settle(pending)
        for received in state.received or ():
            if isinstance(received, PendingSubmission):
                settle(received)

    def reject_all(self, batch_id: int) -> None:
        """Defensive sweep: reject every undecided pending of a batch.

        Used when a verification round found the batch inconsistent
        (a ``ValueError`` — shapes were validated at receive time, so
        this is a protocol violation): rather than mis-credit anything,
        every received submission is rejected individually.
        """
        self._settle_undecided(batch_id, self.server.reject)

    def abandon_all(self, batch_id: int) -> None:
        """Release every received-but-undecided pending of a batch.

        Used when a worker failed before the commit point (receive,
        ingest or a round): ids must not stay pending (honest retries
        would look like replays) and must not enter the seen set (no
        decision was made)."""
        self._settle_undecided(batch_id, self.server.abandon)

    def abandon_open(self) -> None:
        """Release every batch still open at this server.

        The drivers' abnormal-exit sweep (cancellation, fatal error):
        in-flight batches were received but will never be decided, so
        their ids must leave the pending set — an honest retry of the
        same submissions after the interrupted run must succeed — and
        their plane share matrices must not outlive the run on a
        reused backend."""
        for batch_id in list(self._batches):
            self.abandon_all(batch_id)

    # -- the run-end delta (process backend) ---------------------------

    def snapshot(self):
        return self.server.snapshot_state()


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def _consume_exception(future) -> None:
    """Mark a future's exception retrieved (cancellation cleanup)."""
    if not future.cancelled():
        future.exception()


class ServerFanout:
    """Executes :class:`_ServerOps` calls for a set of servers.

    ``call`` is the asyncio seam the drivers await; ``call_sync`` is
    its blocking twin for callers without an event loop.
    ``begin_run``/``end_run`` bracket one run: where server state lives
    away from the driver (process workers), ``begin_run``
    starts a run delta there and ``end_run`` folds it home, once — a
    second ``end_run`` must not add it again.  ``close`` releases
    every worker, waiting for them — no leaked threads or child
    processes.
    """

    kind = "base"

    def call(self, s: int, op: str, *args):
        raise NotImplementedError

    async def sweep(self, op: str, args_per_server):
        """One ``op`` per server, all submitted before any is awaited.

        The batch protocol's workhorse: submission happens eagerly (so
        process backends run the servers genuinely in parallel)
        and awaiting a completed future suspends nothing (so the inline
        backend pays no ``gather`` scheduling overhead, which is what
        keeps batch-of-one cheap).  The first failure is
        re-raised after every future has been drained, so no worker
        exception goes unretrieved.
        """
        futures = [
            self.call(s, op, *args)
            for s, args in enumerate(args_per_server)
        ]
        results = []
        error: "BaseException | None" = None
        for position, future in enumerate(futures):
            try:
                results.append(await future)
            except asyncio.CancelledError:
                # The *driving task* is being cancelled (worker
                # futures themselves never cancel — executors run them
                # to completion).  Cancellation must win over any
                # earlier worker error: folding it into the error slot
                # would consume the task's one-shot cancellation, and
                # the caller would carry on as if nothing had asked it
                # to stop.  Silence the undrained futures first so no
                # worker exception goes unretrieved.
                for remaining in futures[position:]:
                    remaining.add_done_callback(_consume_exception)
                raise
            except BaseException as exc:  # noqa: BLE001 - drain them all
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def call_sync(self, s: int, op: str, *args):
        raise NotImplementedError

    def begin_run(self) -> None:
        return None

    def end_run(self) -> None:
        return None

    def close(self) -> None:
        return None


class LocalFanout(ServerFanout):
    """Ops against the driver-process servers, on the calling thread."""

    kind = "inline"

    def __init__(self, servers: "list[PrioServer]") -> None:
        self.servers = servers
        self.ops = [_ServerOps(server) for server in servers]
        self.executor = _InlineExecutor()

    def call(self, s: int, op: str, *args):
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(
            self.executor, getattr(self.ops[s], op), *args
        )

    def call_sync(self, s: int, op: str, *args):
        return self.executor.submit(getattr(self.ops[s], op), *args).result()


# Worker-process global: the one server this worker owns.
_WORKER_OPS: "_ServerOps | None" = None


def _worker_install(server: PrioServer) -> None:
    global _WORKER_OPS
    # The copy runs on a delta: the run-end snapshot ships only what
    # this run added, not the full (possibly multi-million id) replay
    # history or the accumulator the server arrived with.
    server.begin_run()
    _WORKER_OPS = _ServerOps(server)


def _worker_call(op: str, args):
    return getattr(_WORKER_OPS, op)(*args)


class ProcessFanout(ServerFanout):
    """One single-worker process pool per server (state residency).

    ``max_workers=1`` is load-bearing: it guarantees every op for
    server ``i`` executes in the one process that holds server ``i``'s
    replay sets, epoch counters, in-flight batch planes, and
    accumulator.  Parallelism comes from the *pools* being distinct —
    the per-server work of a batch runs on as many cores as there are
    servers, with no GIL in common.

    ``begin_run`` ships each (picklable) server into its worker, where
    the copy runs on a delta; ``end_run`` folds that delta into the
    driver-process server objects, so publishes, statistics, and replay
    protection carry across runs and across backend switches.
    """

    kind = "process"
    #: set by end_run when a dead worker's state could not be merged
    #: back — the server set may be divergent (see the warning there)
    degraded = False

    def __init__(self, servers: "list[PrioServer]") -> None:
        self.servers = servers
        self.pools: "list[ProcessPoolExecutor]" = []
        self._run_open = False
        try:
            for _ in servers:
                self.pools.append(ProcessPoolExecutor(max_workers=1))
            self.begin_run()
        except BaseException:
            self.close()
            raise

    def begin_run(self) -> None:
        # Push current driver-side state into every worker (one pickle
        # of the whole server: afe, warm verification context, replay
        # sets).  Fanned out, then awaited.  The run is open — there is
        # a delta to fold — only once every worker holds its copy.
        self._run_open = False
        futures = [
            pool.submit(_worker_install, server)
            for pool, server in zip(self.pools, self.servers)
        ]
        for future in futures:
            future.result()
        self._run_open = True

    def end_run(self) -> None:
        if not self._run_open:
            return  # a second fold would double-add the deltas
        self._run_open = False
        futures = []
        for pool in self.pools:
            try:
                futures.append(pool.submit(_worker_call, "snapshot", ()))
            except Exception:  # noqa: BLE001 - broken pool: keep old state
                futures.append(None)
        stale: list[int] = []
        for s, (server, future) in enumerate(zip(self.servers, futures)):
            if future is None:
                stale.append(s)
                continue
            try:
                server.fold_shard_state(future.result())
            except Exception:  # noqa: BLE001 - a dead worker keeps old state
                stale.append(s)
        if stale:
            # A worker died after possibly committing batches its
            # driver-side server never sees: the server set may now be
            # divergent (shares no longer cancel at publish).  The run
            # already failed its remaining batches; make the state loss
            # visible too rather than letting publish() present a
            # silently corrupted aggregate.
            import warnings

            self.degraded = True
            warnings.warn(
                f"process fan-out lost worker state for server(s) "
                f"{stale}: driver-side state kept its pre-run snapshot; "
                "aggregates from this server set may be divergent",
                RuntimeWarning,
                stacklevel=2,
            )

    def call(self, s: int, op: str, *args):
        return asyncio.wrap_future(
            self.pools[s].submit(_worker_call, op, args)
        )

    def call_sync(self, s: int, op: str, *args):
        return self.pools[s].submit(_worker_call, op, args).result()

    def close(self) -> None:
        for pool in self.pools:
            pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def resolve_fanout(
    servers: "list[PrioServer]",
    executor=None,
    batch_size: int = 1,  # noqa: ARG001 - unused; benchmarks/e2e pass it
) -> "tuple[ServerFanout, bool]":
    """Resolve the ``executor`` knob to a backend instance.

    Accepts one of :data:`EXECUTOR_KINDS`, ``None`` (``"inline"``), or
    a ready :class:`ServerFanout` (reused verbatim — the caller owns
    it).  Anything else raises :class:`FanoutError`.  Returns ``(fanout,
    owned)``; callers close only backends they own.

    ``"process"`` falls back to ``"inline"``, with a warning, when
    worker processes cannot be created (restricted sandboxes, missing
    ``multiprocessing`` support).
    """
    if isinstance(executor, ServerFanout):
        return executor, False
    if executor is None:
        executor = "inline"
    if executor not in EXECUTOR_KINDS:
        raise FanoutError(f"unknown executor selection: {executor!r}")
    if executor == "process":
        try:
            return ProcessFanout(servers), True
        except Exception as exc:  # noqa: BLE001 - automatic fallback
            import warnings

            warnings.warn(
                f"process fan-out unavailable ({exc!r}); falling back to "
                "the inline backend",
                RuntimeWarning,
                stacklevel=2,
            )
    return LocalFanout(servers), True
