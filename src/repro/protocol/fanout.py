"""Per-server execution backends behind one batch-id-keyed op seam.

Prio's deployment model assumes each server runs on its own hardware
(NSDI 2017 §6).  This module is where a driver — the batch protocol in
:mod:`repro.protocol.pipeline`, the simulated cluster's nodes — hands
per-server work to wherever that server's state lives.

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

``inline``
    Ops run on the calling thread.  Right for batch-of-one calls and
    single-CPU hosts, where hand-offs cost latency and buy nothing.

``thread``
    Ops run on a shared :class:`~concurrent.futures.ThreadPoolExecutor`.
    The hot kernels (SHAKE digests, numpy limb matmuls) release the
    GIL; everything between them runs under it, which caps overlap
    well below the core count.

``process``
    One single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
    per server.  The single worker pins each server's mutable state
    (replay sets, epoch counters, the plane-resident accumulator) to
    exactly one process — ops for server ``i`` always execute where
    server ``i`` lives — while distinct servers verify genuinely in
    parallel, GIL-free.

``"kind:K"``
    :class:`ShardedFanout`: K workers of that kind per logical server,
    partitioned by submission id.

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
  state snapshot per server (plane accumulator + counters + replay
  ids) merged back into the driver's server objects so ``publish()``
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
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

from repro.field.batch import concat_vectors
from repro.protocol.server import PendingSubmission, PrioServer
from repro.protocol.wire import WireError, routing_id
from repro.snip.verifier import Round1Batch, Round2Batch

#: executor knob values accepted everywhere the pipeline is exposed;
#: any kind also accepts a ``":K"`` suffix (e.g. ``"process:4"``) to
#: shard each logical server across K workers of that kind
EXECUTOR_KINDS = ("inline", "thread", "process", "auto")

#: ``executor="auto"`` picks the process backend only at or above this
#: batch size — below it, process-crossing overhead beats the GIL win
AUTO_PROCESS_MIN_BATCH = 32


class FanoutError(ValueError):
    """Raised for an unknown ``executor`` selection."""


class _InlineExecutor:
    """Executor that runs work on the calling thread.

    For batch-of-one calls and on a single-CPU host, thread hand-offs
    cost latency and buy no parallelism, so the pipeline keeps its
    staged structure but executes stage work inline.  Implements the
    two Executor methods asyncio uses.
    """

    def submit(self, fn, *args):
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - mirror Executor
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):  # noqa: ARG002 - Executor interface
        return None


def default_executor(n_servers: int):
    """Thread pool sized to the host, or inline when threads cannot help."""
    if (os.cpu_count() or 1) <= 1:
        return _InlineExecutor()
    return ThreadPoolExecutor(max_workers=max(2, n_servers))


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

    Every backend — inline, thread, process — executes exactly this
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

    # -- state sync (process backend) ----------------------------------

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
    ``begin_run``/``end_run`` bracket one pipeline run (the process
    backend pushes/pulls server state there); ``close`` releases every
    worker, waiting for them — no leaked threads or child processes.
    """

    kind = "base"

    def call(self, s: int, op: str, *args):
        raise NotImplementedError

    async def sweep(self, op: str, args_per_server):
        """One ``op`` per server, all submitted before any is awaited.

        The batch protocol's workhorse: submission happens eagerly (so
        thread/process backends run the servers genuinely in parallel)
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
                # The *stage task* is being cancelled (worker futures
                # themselves never cancel — executors run them to
                # completion).  Cancellation must win over any earlier
                # worker error: folding it into the error slot would
                # consume the task's one-shot cancellation and leave
                # the pipeline waiting on stages that already stopped
                # producing.  Silence the undrained futures first so no
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
    """Ops against the driver-process servers, inline or on a thread pool."""

    def __init__(
        self,
        servers: "list[PrioServer]",
        executor=None,
        own_executor: "bool | None" = None,
    ) -> None:
        self.servers = servers
        self.ops = [_ServerOps(server) for server in servers]
        self._own_executor = (
            executor is None if own_executor is None else own_executor
        )
        self.executor = (
            default_executor(len(servers)) if executor is None else executor
        )
        self.kind = (
            "inline" if isinstance(self.executor, _InlineExecutor)
            else "thread"
        )

    def call(self, s: int, op: str, *args):
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(
            self.executor, getattr(self.ops[s], op), *args
        )

    def call_sync(self, s: int, op: str, *args):
        return self.executor.submit(getattr(self.ops[s], op), *args).result()

    def close(self) -> None:
        # wait=True: repeated runs must not accumulate worker threads.
        if self._own_executor:
            self.executor.shutdown(wait=True)


# Worker-process global: the one server this worker owns.
_WORKER_OPS: "_ServerOps | None" = None


def _worker_install(server: PrioServer) -> None:
    global _WORKER_OPS
    # Mark the replay cache: the run-end snapshot then ships only the
    # ids added during this run, not the full (possibly multi-million
    # id) history the server arrived with.
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

    ``begin_run`` ships each (picklable) server into its worker;
    ``end_run`` pulls a state snapshot back and merges it into the
    driver-process server objects, so publishes, statistics, and replay
    protection carry across runs and across backend switches.
    """

    kind = "process"
    #: set by end_run when a dead worker's state could not be merged
    #: back — the server set may be divergent (see the warning there)
    degraded = False

    def __init__(self, servers: "list[PrioServer]", mp_context=None) -> None:
        import multiprocessing

        if mp_context is None:
            # Follow the interpreter's default start method (fork on
            # Linux <= 3.13, forkserver afterward — upstream moved away
            # from forking inside threaded processes for good reason);
            # REPRO_MP_START overrides for hosts that need e.g. spawn.
            method = os.environ.get("REPRO_MP_START")
            mp_context = multiprocessing.get_context(method or None)
        self.servers = servers
        self.pools: "list[ProcessPoolExecutor]" = []
        try:
            for _ in servers:
                self.pools.append(
                    ProcessPoolExecutor(max_workers=1, mp_context=mp_context)
                )
            self.begin_run()
        except BaseException:
            self.close()
            raise

    def begin_run(self) -> None:
        # Push current driver-side state into every worker (one pickle
        # of the whole server: afe, warm verification context, replay
        # sets, plane accumulator).  Fanned out, then awaited.
        futures = [
            pool.submit(_worker_install, server)
            for pool, server in zip(self.pools, self.servers)
        ]
        for future in futures:
            future.result()

    def end_run(self) -> None:
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
                server.restore_state(future.result())
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

    __slots__ = ("positions", "ok", "shard_order", "ranks", "n_survivors")

    def __init__(self, positions: "list[list[int]]") -> None:
        #: per shard: global payload positions routed there (ascending)
        self.positions = positions
        #: global positions this server received successfully
        self.ok: "set[int]" = set()
        #: shards holding >= 1 survivor, in ascending shard order
        self.shard_order: "list[int]" = []
        #: per entry of ``shard_order``: the global survivor ranks of
        #: that shard's survivors, in shard-local (ascending) order
        self.ranks: "list[list[int]]" = []
        self.n_survivors = 0


class ShardedFanout(ServerFanout):
    """K sharded workers per logical server, behind the one-op seam.

    Submissions partition by submission id (:func:`shard_of`); each
    shard is a full :class:`PrioServer` (:meth:`PrioServer.make_shard`)
    owning its slice of the id space — replay cache, epoch counters,
    plane accumulator — and runs the ordinary :class:`_ServerOps` over
    its sub-batch on an inner backend (``inline``/``thread``/
    ``process``) resolved over the ``S x K`` flat shard-server list.
    Because the partition is identical across servers, shard ``k`` at
    every server holds the same submissions and the SNIP rounds run
    shard-local; the driver merges each shard's ``(B_k,)`` round planes
    into the global survivor order (one plane concat + gather), so the
    pipeline, the transport, and ``decide_batch`` are unchanged.

    Replay protection is exact: a given id always routes to the same
    shard, so shard-local caches (pending sets included) see every copy.
    Sealed payloads carry the id in their cleartext envelope
    (:mod:`repro.protocol.wire`), so encrypted batches partition
    across shards exactly like raw frames; a forged envelope sid can
    only misroute its own upload to a shard that then rejects it when
    the authenticated inner header disagrees.

    ``begin_run``/``end_run`` bracket a run: shards sync their epoch
    clock from the logical server and mark their replay caches, run,
    then fold their *delta* state (plane add, counter sums, replay-id
    union) back into the logical server via
    :meth:`PrioServer.fold_shard_state` — so ``publish()``, statistics,
    and cross-run replay protection keep working unchanged.
    """

    def __init__(
        self,
        servers: "list[PrioServer]",
        n_shards: int,
        executor=None,
        batch_size: int = 1,
    ) -> None:
        if n_shards < 1:
            raise FanoutError("n_shards must be >= 1")
        self.servers = servers
        self.n_shards = n_shards
        #: per logical server: its K shard servers (driver-side objects;
        #: persistent across runs — they hold the shard replay slices)
        self.shards: "list[list[PrioServer]]" = []
        flat: "list[PrioServer]" = []
        for server in servers:
            shard_row = [server.make_shard() for _ in range(n_shards)]
            # One-time partition of pre-existing replay ids, so replays
            # of submissions seen before this fan-out existed are still
            # caught at the shard that now owns their slice.
            for sid in server._replay:
                shard_row[shard_of(sid, n_shards)]._replay.add(sid)
            self.shards.append(shard_row)
            flat.extend(shard_row)
        self.inner, self._own_inner = resolve_fanout(
            flat, executor, batch_size
        )
        self.kind = f"sharded({self.inner.kind}x{n_shards})"
        #: per logical server: batch_id -> plan
        self._plans: "list[dict[int, _ShardPlan]]" = [{} for _ in servers]
        self._run_open = False
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
        for server, shard_row in zip(self.servers, self.shards):
            for shard in shard_row:
                server.sync_shard_epoch(shard)
                shard.begin_run()
        self.inner.begin_run()
        self._run_open = True

    def end_run(self) -> None:
        # Pull worker-side state into the driver-side shard objects
        # first (process inner; no-op for inline/thread).
        self.inner.end_run()
        if not self._run_open:
            # Idempotence guard: a second fold would double-add the
            # shard accumulators into the logical servers.
            return
        self._run_open = False
        for server, shard_row in zip(self.servers, self.shards):
            for shard in shard_row:
                server.fold_shard_state(shard.snapshot_state())
                shard.reset_run_deltas()

    def close(self) -> None:
        if self._own_inner:
            self.inner.close()
        for shard_row in self.shards:
            for shard in shard_row:
                shard._replay.close()

    # -- the op seam ----------------------------------------------------

    def call(self, s: int, op: str, *args):
        calls, merge = self._plan(s, op, args)
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
                return_exceptions_error = result
                break
        else:
            return merge(list(results))
        raise return_exceptions_error

    def call_sync(self, s: int, op: str, *args):
        calls, merge = self._plan(s, op, args)
        results = [
            self.inner.call_sync(s * self.n_shards + k, op, *shard_args)
            for k, shard_args in calls
        ]
        return merge(results)

    def _plan(self, s: int, op: str, args):
        """Partition one logical-server op into per-shard calls.

        Returns ``(calls, merge)``: ``calls`` is ``[(shard_index,
        shard_args), ...]`` and ``merge`` combines the per-shard
        results (in ``calls`` order) into the logical result.  Planning
        and merging are pure driver-side bookkeeping; every shard call
        is dispatched before any result is awaited.
        """
        planner = getattr(self, "_plan_" + op, None)
        if planner is None:
            raise FanoutError(f"op not supported by the sharded fan-out: {op}")
        return planner(s, *args)

    # -- the ops ---------------------------------------------------------

    def _plan_receive_wire(self, s, batch_id, payloads):
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
        plan = _ShardPlan(positions)
        self._plans[s][batch_id] = plan
        calls = [
            (k, (batch_id, [payloads[p] for p in pos]))
            for k, pos in enumerate(positions)
            if pos
        ]

        def merge(results):
            out = [None] * len(payloads)
            for (k, _), shard_out in zip(calls, results):
                for p, verdict in zip(positions[k], shard_out):
                    out[p] = verdict
            plan.ok = {p for p, v in enumerate(out) if v is None}
            return out

        return calls, merge

    _plan_receive_sealed = _plan_receive_wire

    def _plan_ingest(self, s, batch_id, keep):
        plan = self._plans[s][batch_id]
        keep_set = set(keep)
        calls = []
        survivor_positions: "list[list[int]]" = []
        plan.shard_order = []
        for k, pos in enumerate(plan.positions):
            if not pos:
                continue
            local_keep = [
                i for i, g in enumerate(pos)
                if g in keep_set and g in plan.ok
            ]
            calls.append((k, (batch_id, local_keep)))
            if local_keep:
                plan.shard_order.append(k)
                survivor_positions.append([pos[i] for i in local_keep])
        # Global survivor order is ascending stream position — exactly
        # what the unsharded server produces.  Store each shard's
        # survivor *ranks* in that order for the round merge/split.
        flat = [g for group in survivor_positions for g in group]
        order = sorted(range(len(flat)), key=flat.__getitem__)
        rank_of = [0] * len(flat)
        for rank, i in enumerate(order):
            rank_of[i] = rank
        plan.ranks = []
        offset = 0
        for group in survivor_positions:
            plan.ranks.append(rank_of[offset:offset + len(group)])
            offset += len(group)
        plan.n_survivors = len(flat)
        if not plan.shard_order:
            # No survivors anywhere: every shard's ingest settles its
            # sub-batch (the unsharded op deletes the batch likewise).
            del self._plans[s][batch_id]
        return calls, lambda results: None

    def _merge_round(self, s, plan, parts, build):
        server = self.servers[s]
        force = server.force_pure_backend
        inv = [0] * plan.n_survivors
        for i, rank in enumerate(
            r for ranks in plan.ranks for r in ranks
        ):
            inv[rank] = i
        first = concat_vectors(
            server.field, [p[0] for p in parts], force
        ).take_elements(inv)
        second = concat_vectors(
            server.field, [p[1] for p in parts], force
        ).take_elements(inv)
        return build(first, second)

    def _plan_round1(self, s, batch_id):
        plan = self._plans[s][batch_id]
        calls = [(k, (batch_id,)) for k in plan.shard_order]

        def merge(results):
            return self._merge_round(
                s, plan,
                [(batch.d, batch.e) for batch in results],
                lambda d, e: Round1Batch(d=d, e=e),
            )

        return calls, merge

    def _split_round1(self, round1_batches, indices):
        return [
            Round1Batch(
                d=batch.d.take_elements(indices),
                e=batch.e.take_elements(indices),
            )
            for batch in round1_batches
        ]

    def _plan_round2(self, s, batch_id, round1_batches):
        plan = self._plans[s][batch_id]
        calls = [
            (k, (batch_id, self._split_round1(round1_batches, indices)))
            for k, indices in zip(plan.shard_order, plan.ranks)
        ]

        def merge(results):
            return self._merge_round(
                s, plan,
                [(batch.sigma, batch.assertion) for batch in results],
                lambda sg, an: Round2Batch(sigma=sg, assertion=an),
            )

        return calls, merge

    def _plan_accumulate(self, s, batch_id, decisions):
        plan = self._plans[s][batch_id]
        calls = [
            (k, (batch_id, [decisions[r] for r in indices]))
            for k, indices in zip(plan.shard_order, plan.ranks)
        ]

        def merge(results):
            self._plans[s].pop(batch_id, None)
            return None

        return calls, merge

    def _settle_plan(self, s, op, batch_id):
        # Cleanup sweeps go to every shard: the per-shard op tolerates
        # unknown batch ids, and a partially-dispatched batch may be
        # open at any subset of them.
        self._plans[s].pop(batch_id, None)
        calls = [(k, (batch_id,)) for k in range(self.n_shards)]
        return calls, lambda results: None

    def _plan_reject_all(self, s, batch_id):
        return self._settle_plan(s, "reject_all", batch_id)

    def _plan_abandon_all(self, s, batch_id):
        return self._settle_plan(s, "abandon_all", batch_id)

    def _plan_abandon_open(self, s):
        self._plans[s].clear()
        calls = [(k, ()) for k in range(self.n_shards)]
        return calls, lambda results: None


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def resolve_fanout(
    servers: "list[PrioServer]",
    executor=None,
    batch_size: int = 1,
) -> "tuple[ServerFanout, bool]":
    """Resolve the ``executor`` knob to a backend instance.

    Accepts ``None`` (host-sized: threads, or inline on a single-CPU
    host), one of :data:`EXECUTOR_KINDS` — optionally with a ``":K"``
    shard-count suffix (``"process:4"`` = four sharded workers of that
    kind per logical server) — a ready :class:`ServerFanout` (reused
    verbatim — the caller owns it), or a plain ``concurrent.futures``
    executor (wrapped, caller-owned).  Returns ``(fanout, owned)``;
    callers close only backends they own.

    ``"process"`` falls back to the thread backend automatically when
    worker processes cannot be created (restricted sandboxes, missing
    ``multiprocessing`` support); ``"auto"`` additionally requires a
    multi-core host and a batch size of at least
    :data:`AUTO_PROCESS_MIN_BATCH` — below that, per-op
    process-crossing overhead outweighs what the GIL was costing.
    """
    if isinstance(executor, str) and ":" in executor:
        kind, _, count = executor.partition(":")
        try:
            n_shards = int(count)
        except ValueError:
            raise FanoutError(
                f"bad shard count in executor spec: {executor!r}"
            ) from None
        if n_shards != 1:
            return ShardedFanout(servers, n_shards, kind, batch_size), True
        executor = kind
    if isinstance(executor, ServerFanout):
        return executor, False
    if executor is None:
        return LocalFanout(servers), True
    if executor == "thread":
        # Explicit request: a real pool even on a single-CPU host (the
        # None default auto-drops to inline there).
        return LocalFanout(
            servers,
            ThreadPoolExecutor(max_workers=max(2, len(servers))),
            own_executor=True,
        ), True
    if executor == "inline":
        return LocalFanout(servers, _InlineExecutor()), True
    if executor == "auto":
        if (
            (os.cpu_count() or 1) > 1
            and batch_size >= AUTO_PROCESS_MIN_BATCH
        ):
            executor = "process"
        else:
            return LocalFanout(servers), True
    if executor == "process":
        try:
            return ProcessFanout(servers), True
        except Exception as exc:  # noqa: BLE001 - automatic fallback
            import warnings

            warnings.warn(
                f"process fan-out unavailable ({exc!r}); falling back to "
                "the thread backend",
                RuntimeWarning,
                stacklevel=2,
            )
            # The same real pool an explicit "thread" request gets —
            # the warning must describe what actually happens, even on
            # a single-CPU host.
            return resolve_fanout(servers, "thread", batch_size)
    if isinstance(executor, ProcessPoolExecutor):
        # Wrapping a raw process pool in LocalFanout would mutate
        # throwaway pickled server copies in the workers — every
        # submission would silently reject.  Process fan-out needs
        # state residency; that is what executor="process" provides.
        raise FanoutError(
            "a raw ProcessPoolExecutor cannot back the fan-out (server "
            'state must live with its worker); use executor="process" '
            "or a ProcessFanout instance instead"
        )
    if hasattr(executor, "submit"):
        return LocalFanout(servers, executor), False
    raise FanoutError(f"unknown executor selection: {executor!r}")
