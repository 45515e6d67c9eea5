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
:data:`EXECUTOR_KINDS`, optionally with a ``":K"`` shard suffix, or a
ready :class:`ServerFanout`.  ``None`` means ``"inline"``.

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

``"kind:K"``
    :class:`ShardedFanout`: K workers of that kind per logical server,
    partitioned by submission id.  One table (``ShardedFanout._ROUTES``)
    says how each op crosses the shards and how their results merge.

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
  run-end merge, shared with the sharded backend — so ``publish()``
  and the deployment statistics keep working unchanged.

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
from dataclasses import fields, is_dataclass

from repro.field.batch import concat_vectors
from repro.protocol.server import PendingSubmission, PrioServer
from repro.protocol.wire import WireError, routing_id

#: the executor kinds :func:`resolve_fanout` accepts; each also takes a
#: ``":K"`` suffix (e.g. ``"process:4"``) to shard each logical server
#: across K workers of that kind
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

    Every backend — inline, process, sharded — executes exactly this
    class, so the protocol's semantics cannot drift between them.  In
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
    away from the driver (process workers, shards), ``begin_run``
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
# Sharded fan-out: K workers per logical server
# ----------------------------------------------------------------------


def shard_of(sid: bytes, n_shards: int) -> int:
    """Stable shard assignment for a submission id.

    The low 8 id bytes (little-endian) mod K — identical at every
    server (all servers see the same submission ids), so a submission's
    shares land on the *same shard index* everywhere and the SNIP
    rounds run shard-local with no cross-shard coordination.
    """
    return int.from_bytes(sid[:8], "little") % n_shards


class _ShardPlan:
    """Driver-side bookkeeping for one batch across one server's shards."""

    __slots__ = ("positions", "ok", "ranks")

    def __init__(self, positions: "list[list[int]]") -> None:
        #: per shard: global payload positions routed there (ascending)
        self.positions = positions
        #: global positions this server received successfully
        self.ok: "set[int]" = set()
        #: shard -> the global survivor ranks of its survivors, in
        #: shard-local (ascending) order; only shards holding one, in
        #: ascending shard order.  ``None`` until ``ingest`` fixes them.
        self.ranks: "dict[int, list[int]] | None" = None


def _take(values, ranks):
    """One shard's slice of a per-survivor argument: a list with one
    entry per survivor, or one plane-form round batch per server."""
    if values and is_dataclass(values[0]):
        return [
            type(batch)(*(
                getattr(batch, f.name).take_elements(ranks)
                for f in fields(batch)
            ))
            for batch in values
        ]
    return [values[r] for r in ranks]


class ShardedFanout(ServerFanout):
    """K sharded workers per logical server, behind the one-op seam.

    Submissions partition by submission id (:func:`shard_of`); each
    shard is a full :class:`PrioServer` (:meth:`PrioServer.make_shard`)
    owning its slice of the id space — replay set, epoch counters,
    plane accumulator — and runs the ordinary :class:`_ServerOps` over
    its sub-batch on an inner backend (``inline``/``process``)
    resolved over the ``S x K`` flat shard-server list.
    Because the partition is identical across servers, shard ``k`` at
    every server holds the same submissions and the SNIP rounds run
    shard-local; the driver merges each shard's ``(B_k,)`` round planes
    into the global survivor order (one plane concat + gather), so the
    pipeline, the transport, and ``decide_batch`` are unchanged.
    :attr:`_ROUTES` is the whole of what crosses: one route per op.

    Replay protection is exact: a given id always routes to the same
    shard, so shard-local replay and pending sets see every copy.
    Sealed payloads carry the id in their cleartext envelope
    (:mod:`repro.protocol.wire`), so encrypted batches partition
    across shards exactly like raw frames; a forged envelope sid can
    only misroute its own upload to a shard that then rejects it when
    the authenticated inner header disagrees.

    ``begin_run``/``end_run`` bracket a run: each shard takes its slice
    of the logical server's replay ids and starts a run delta
    (:meth:`PrioServer.begin_run`, which also moves its epoch clock past
    the logical server's), runs, then folds it back into the logical
    server via :meth:`PrioServer.fold_shard_state` — the same fold
    process workers use — so ``publish()``, statistics, and cross-run
    replay protection keep working unchanged, whichever backend the
    logical servers ran on in between.
    """

    def __init__(
        self,
        servers: "list[PrioServer]",
        n_shards: int,
        executor=None,
    ) -> None:
        if n_shards < 1:
            raise FanoutError("n_shards must be >= 1")
        self.servers = servers
        self.n_shards = n_shards
        #: per logical server: its K shard servers (driver-side objects,
        #: persistent across runs)
        self.shards: "list[list[PrioServer]]" = [
            [server.make_shard(k, n_shards) for k in range(n_shards)]
            for server in servers
        ]
        #: per logical server: batch_id -> plan
        self._plans: "list[dict[int, _ShardPlan]]" = [{} for _ in servers]
        self._run_open = False
        flat = [shard for shard_row in self.shards for shard in shard_row]
        self.inner, self._own_inner = resolve_fanout(flat, executor)
        self.kind = f"sharded({self.inner.kind}x{n_shards})"
        try:
            self.begin_run()
        except BaseException:
            self.close()
            raise

    @property
    def degraded(self) -> bool:
        return getattr(self.inner, "degraded", False)

    # -- run lifecycle --------------------------------------------------

    def begin_run(self) -> None:
        # Re-split each logical server's replay ids on every run: the
        # servers may have decided submissions through another backend
        # since this fan-out last ran, and the shard that owns an id's
        # slice must catch its replay.
        self._run_open = False
        for server, shard_row in zip(self.servers, self.shards):
            slices: "list[set[bytes]]" = [set() for _ in shard_row]
            for sid in server._replay:
                slices[shard_of(sid, self.n_shards)].add(sid)
            for shard, seen in zip(shard_row, slices):
                shard._replay = seen
                shard.begin_run(server)
        self.inner.begin_run()
        self._run_open = True

    def end_run(self) -> None:
        # Fold worker-side deltas into the driver-side shard objects
        # first (process inner; no-op for inline).
        self.inner.end_run()
        if not self._run_open:
            return  # a second fold would double-add the shard deltas
        self._run_open = False
        for server, shard_row in zip(self.servers, self.shards):
            for shard in shard_row:
                server.fold_shard_state(shard.snapshot_state())

    def close(self) -> None:
        if self._own_inner:
            self.inner.close()

    # -- the op seam ----------------------------------------------------

    def call(self, s: int, op: str, *args):
        calls, merge = self._route(s, op, args)
        futures = [
            self.inner.call(s * self.n_shards + k, op, *shard_args)
            for k, shard_args in calls
        ]
        return asyncio.ensure_future(self._finish(futures, merge))

    async def _finish(self, futures, merge):
        try:
            results = await asyncio.gather(*futures, return_exceptions=True)
        except asyncio.CancelledError:
            for future in futures:
                future.add_done_callback(_consume_exception)
            raise
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return merge(results) if merge else None

    def call_sync(self, s: int, op: str, *args):
        calls, merge = self._route(s, op, args)
        results = [
            self.inner.call_sync(s * self.n_shards + k, op, *shard_args)
            for k, shard_args in calls
        ]
        return merge(results) if merge else None

    def _route(self, s: int, op: str, args):
        """Partition one logical-server op into per-shard calls.

        Returns ``(calls, merge)``: ``calls`` is ``[(shard_index,
        shard_args), ...]`` and ``merge`` (``None``: nothing to merge)
        combines the per-shard results, in ``calls`` order, into the
        logical result.  Routing and merging are pure driver-side
        bookkeeping; every shard call is dispatched before any result
        is awaited.
        """
        route = self._ROUTES.get(op)
        if route is None:
            raise FanoutError(f"op not supported by the sharded fan-out: {op}")
        return route(self, s, *args)

    # -- the three routes ------------------------------------------------

    def _by_sid(self, s, batch_id, payloads):
        """Open a plan: partition the payloads by submission id, and
        scatter the shards' per-position verdicts back."""
        # Raw or sealed, the id sits at a fixed cleartext offset
        # (``routing_id``).  It is only a routing hint — each shard
        # re-validates everything, and a sealed packet's envelope sid
        # against the authenticated inner header.  Too-short payloads
        # route to shard 0, whose receive rejects them with the same
        # WireError the unsharded path raises.
        positions: "list[list[int]]" = [[] for _ in range(self.n_shards)]
        for pos, data in enumerate(payloads):
            try:
                k = shard_of(routing_id(data), self.n_shards)
            except WireError:
                k = 0
            positions[k].append(pos)
        plan = self._plans[s][batch_id] = _ShardPlan(positions)
        calls = [
            (k, (batch_id, [payloads[p] for p in pos]))
            for k, pos in enumerate(positions)
            if pos
        ]

        def merge(results):
            out = [None] * len(payloads)
            for (k, _), verdicts in zip(calls, results):
                for p, verdict in zip(positions[k], verdicts):
                    out[p] = verdict
            plan.ok = {p for p, v in enumerate(out) if v is None}
            return out

        return calls, merge

    def _by_rank(self, s, batch_id, *args):
        """Split per-survivor arguments by survivor rank, and gather the
        shards' per-survivor round planes back into rank order."""
        plan = self._plans[s][batch_id]
        if plan.ranks is None:
            return self._fix_ranks(s, batch_id, plan, *args), None
        calls = [
            (k, (batch_id, *(_take(arg, ranks) for arg in args)))
            for k, ranks in plan.ranks.items()
        ]

        def merge(results):
            if results[0] is None:
                # accumulate: the batch is settled at every shard
                del self._plans[s][batch_id]
                return None
            server = self.servers[s]
            order = [r for ranks in plan.ranks.values() for r in ranks]
            inv = sorted(range(len(order)), key=order.__getitem__)
            return type(results[0])(*(
                concat_vectors(
                    server.field,
                    [getattr(batch, f.name) for batch in results],
                    server.force_pure_backend,
                ).take_elements(inv)
                for f in fields(results[0])
            ))

        return calls, merge

    def _fix_ranks(self, s, batch_id, plan, keep):
        """``ingest(keep)``: the survivors fix every shard's ranks.

        Survivors are the kept positions this server received, in
        ascending position order — the unsharded server's order.  Every
        shard holding part of the batch ingests, so it abandons its
        non-survivors too.
        """
        local = {
            p: (k, i)
            for k, pos in enumerate(plan.positions)
            for i, p in enumerate(pos)
        }
        local_keep: "list[list[int]]" = [[] for _ in range(self.n_shards)]
        ranks: "list[list[int]]" = [[] for _ in range(self.n_shards)]
        for rank, p in enumerate(sorted(set(keep) & plan.ok)):
            k, i = local[p]
            local_keep[k].append(i)
            ranks[k].append(rank)
        plan.ranks = {k: r for k, r in enumerate(ranks) if r}
        if not plan.ranks:
            # No survivors anywhere: every shard's ingest settles its
            # sub-batch (the unsharded op deletes the batch likewise).
            del self._plans[s][batch_id]
        return [
            (k, (batch_id, local_keep[k]))
            for k, pos in enumerate(plan.positions)
            if pos
        ]

    def _to_all(self, s, *args):
        """The same call at every shard; nothing to merge.

        For the cleanup sweeps: the per-shard op tolerates unknown
        batch ids, and a partially-dispatched batch may be open at any
        subset of the shards.  The batch's plan — every plan, for
        ``abandon_open`` — is dropped first.
        """
        if args:
            self._plans[s].pop(args[0], None)
        else:
            self._plans[s].clear()
        return [(k, args) for k in range(self.n_shards)], None

    #: How each :class:`_ServerOps` op crosses the shards — every op but
    #: ``snapshot``, the process backend's run-end delta.  Changing what
    #: crosses the seam is an edit here.
    _ROUTES = {
        "receive_wire": _by_sid,
        "receive_sealed": _by_sid,
        "ingest": _by_rank,
        "round1": _by_rank,
        "round2": _by_rank,
        "accumulate": _by_rank,
        "reject_all": _to_all,
        "abandon_all": _to_all,
        "abandon_open": _to_all,
    }


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def resolve_fanout(
    servers: "list[PrioServer]",
    executor=None,
    batch_size: int = 1,  # noqa: ARG001 - unused; benchmarks/e2e pass it
) -> "tuple[ServerFanout, bool]":
    """Resolve the ``executor`` knob to a backend instance.

    Accepts one of :data:`EXECUTOR_KINDS` — optionally with a ``":K"``
    shard-count suffix (``"process:4"`` = four sharded workers of that
    kind per logical server) — ``None`` (``"inline"``), or a ready
    :class:`ServerFanout` (reused verbatim — the caller owns it).
    Anything else raises :class:`FanoutError`.  Returns ``(fanout,
    owned)``; callers close only backends they own.

    ``"process"`` falls back to ``"inline"``, with a warning, when
    worker processes cannot be created (restricted sandboxes, missing
    ``multiprocessing`` support).
    """
    if isinstance(executor, ServerFanout):
        return executor, False
    if executor is None:
        executor = "inline"
    if not isinstance(executor, str):
        raise FanoutError(f"unknown executor selection: {executor!r}")
    kind, sharded, count = executor.partition(":")
    if sharded:
        try:
            n_shards = int(count)
        except ValueError:
            raise FanoutError(
                f"bad shard count in executor spec: {executor!r}"
            ) from None
        if n_shards != 1:
            return ShardedFanout(servers, n_shards, kind), True
    if kind not in EXECUTOR_KINDS:
        raise FanoutError(f"unknown executor selection: {executor!r}")
    if kind == "process":
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
