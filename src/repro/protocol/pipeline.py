"""The per-batch server protocol, written once, and its in-memory loop.

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

Both batch loops call these halves the same way, one batch after the
other — await the ingest half, then the verify half: the socket front
end (``PrioTransportServer._process_batch`` in
:mod:`repro.transport.server`) and the in-memory loop here, which
:func:`run_pipelined`, :class:`~repro.protocol.runner.PrioDeployment`
and :class:`~repro.protocol.registration.GatedDeployment` run.

The per-server CPU work inside each half fans out over an execution
backend (:mod:`repro.protocol.fanout`: ``"inline"`` or ``"process"``,
optionally ``":K"`` sharded).  Parallelism comes from there — distinct
servers in distinct processes, as in the paper's deployment — not
from staging batches inside one event loop.  The one overlap that pays is
the client's: :meth:`PrioDeployment.submit_many
<repro.protocol.runner.PrioDeployment.submit_many>` proves the next
chunk on a worker thread while this loop verifies the current one.

Everything that enters a server is wire bytes: the loop hands
``packet.encode()`` (or the sealed packet) to the receive ops, exactly
what the socket front end reads off the wire, so decisions are
bit-identical across drivers and backends by construction.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field as dc_field

from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.server import PrioServer
from repro.protocol.wire import WireError

__all__ = [
    "IngestedBatch",
    "PipelineStats",
    "receive_and_ingest",
    "run_pipelined",
    "verify_and_accumulate",
]


@dataclass
class PipelineStats:
    """Counters one in-memory run keeps (all per submission)."""

    n_batches: int = 0
    n_receive_failures: int = 0
    #: submissions failed by a worker/backend crash (not a protocol
    #: rejection): the batch was abandoned — nothing decided, ids
    #: released — and the stream continued
    n_worker_failures: int = 0
    batch_sizes: list[int] = dc_field(default_factory=list)
    #: resolved execution backend ("inline" | "process", or
    #: "sharded(<kind>xK)")
    executor: str = ""


@dataclass
class IngestedBatch:
    """What the ingest half hands the verify half (and the driver).

    The ingested share planes themselves stay wherever the backend
    keeps server state (driver process or per-server worker), keyed by
    ``batch_id``; only this bookkeeping passes between the halves.
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


def _payloads(server: PrioServer, chunk, encrypt: bool) -> "list[bytes]":
    """One server's slice of a batch as wire bytes.

    Packets are selected by the server's *protocol* index, not its
    position in the server list — a shuffled list must still route
    every share to the server it was addressed to.  A (mutated) packet
    whose header fields cannot be encoded goes out as an empty payload,
    which the server refuses as a malformed frame — that submission's
    receive failure, like any other.
    """
    index = server.server_index
    if encrypt:
        return [submission.sealed_packets[index] for submission in chunk]
    payloads = []
    for submission in chunk:
        try:
            payloads.append(submission.packets[index].encode())
        except WireError:
            payloads.append(b"")
    return payloads


async def _run_batches(
    servers: "list[PrioServer]",
    executor: "str | ServerFanout | None",
    encrypt: bool,
    chunks,
    record,
) -> PipelineStats:
    """Drive ``servers`` through the batch protocol, one chunk at a time.

    ``chunks`` is an async generator of submission lists, each one
    verification batch; the loop closes it on the way out.  After each
    batch, ``record(chunk, decided)`` gets one entry per submission:
    ``True`` (accepted), ``False`` (rejected), or ``None`` (a worker
    failure abandoned it: nothing decided, the id released).  A run
    that raises has recorded every batch it decided.  ``executor`` is
    any :func:`~repro.protocol.fanout.resolve_fanout` spelling; a ready
    fan-out is the caller's to close.
    """
    stats = PipelineStats()
    fanout, owned = resolve_fanout(servers, executor)
    stats.executor = fanout.kind
    synced = True
    try:
        if not owned:
            # A reused backend may hold state from a previous run;
            # re-sync it from the driver-side servers.  A failed push
            # is not fatal — every batch below fails without touching
            # the backend — but the run must NOT execute ops against
            # whatever stale state the workers kept, and end_run must
            # not fold a stale delta into the driver-side servers.
            try:
                fanout.begin_run()
            except Exception:  # noqa: BLE001
                synced = False
        async for chunk in chunks:
            batch_id = stats.n_batches
            stats.n_batches += 1
            if not synced:
                stats.n_worker_failures += len(chunk)
                stats.batch_sizes.append(0)
                record(chunk, [None] * len(chunk))
                continue
            ingested = await receive_and_ingest(
                fanout,
                batch_id,
                [_payloads(server, chunk, encrypt) for server in servers],
                encrypt,
            )
            # A refused position is rejected; a kept one awaits its verdict.
            decided: "list[bool | None]" = [
                None if refusal is None else False
                for refusal in ingested.refusals
            ]
            keep = ingested.keep
            stats.n_receive_failures += len(chunk) - len(keep)
            verdicts = None
            if ingested.abandoned:
                stats.batch_sizes.append(0)
            else:
                stats.batch_sizes.append(len(keep))
                verdicts = await verify_and_accumulate(
                    fanout, servers, ingested
                )
            if verdicts is None:
                stats.n_worker_failures += len(keep)
            else:
                for pos, accepted in zip(keep, verdicts):
                    decided[pos] = accepted
            record(chunk, decided)
    except BaseException:
        # The open batch was received but will never be decided: release
        # its ids (an honest retry must not look like a replay) and its
        # batch state (a reused backend must not pin plane matrices
        # forever).
        try:
            await fanout.sweep("abandon_open", [()] * len(servers))
        except BaseException:  # noqa: BLE001 - cleanup only
            pass
        raise
    finally:
        await chunks.aclose()
        try:
            if synced:
                fanout.end_run()
        finally:
            if owned:
                fanout.close()
    return stats


async def _slices(submissions, batch_size: int):
    """Prepared submissions as chunks of ``batch_size``."""
    for start in range(0, len(submissions), batch_size):
        yield submissions[start:start + batch_size]


def run_pipelined(
    servers: "list[PrioServer]",
    submissions,
    batch_size: int = 64,
    encrypt: bool = False,
    executor: "str | ServerFanout | None" = None,
) -> tuple[list[bool], PipelineStats]:
    """One-call in-memory run over prepared submissions.

    Returns ``(decisions, stats)`` with one decision per submission in
    stream order (``False`` for rejected *and* for abandoned ones —
    ``stats.n_worker_failures`` tells them apart).  ``executor``
    selects the per-server backend: a kind from
    :data:`~repro.protocol.fanout.EXECUTOR_KINDS` (``None`` is
    ``"inline"``), optionally ``":K"`` sharded, or a ready
    :class:`~repro.protocol.fanout.ServerFanout` (reused, caller-owned).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    submissions = list(submissions)
    decisions: list[bool] = []

    def record(chunk, decided) -> None:
        decisions.extend(map(bool, decided))

    stats = asyncio.run(_run_batches(
        servers, executor, encrypt, _slices(submissions, batch_size), record
    ))
    return decisions, stats
