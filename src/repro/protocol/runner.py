"""In-process deployment: a client, a server set, and one driver.

``PrioDeployment`` is the high-level API most examples use:

    deployment = PrioDeployment.create(afe, n_servers=5)
    deployment.submit_many(private_values)
    aggregate = deployment.publish()

It executes the full Appendix H protocol — upload (optionally sealed),
two-round SNIP verification, accumulate, publish, decode — with every
server a real :class:`~repro.protocol.server.PrioServer`, and keeps
the bandwidth/acceptance statistics the benchmarks report.

It is the one in-memory driver.  There are three ways in, and all of
them run its one batch loop over the deployment's fan-out, which calls
the per-batch protocol of :mod:`repro.protocol.pipeline`:
:meth:`PrioDeployment.submit` (one value, with a fault-injection
hook), :meth:`PrioDeployment.submit_many` (values; the batched client
prover prepares the next chunk while the servers verify this one) and
:meth:`PrioDeployment.deliver` (prepared uploads).  ``batch_size`` is
the verification batch: one fused sweep per server per batch.
Acceptance decisions, replay protection, and every statistic remain
per submission — a bad upload rejects alone, and
``n_rejected``/``upload_bytes_total`` count submissions, never batches.
The statistics move as each batch is decided, so a call that raises
keeps what it decided; a submission a worker failure abandoned counts
as submitted, never as accepted or rejected.
"""

from __future__ import annotations

import asyncio
import contextlib
import random as _random
from dataclasses import dataclass, field as dc_field

from repro.afe.base import Afe
from repro.crypto.box import BoxKeyPair
from repro.protocol.client import PrioClient
from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.pipeline import receive_and_ingest, verify_and_accumulate
from repro.protocol.server import PrioServer, ProtocolError
from repro.protocol.wire import WireError
from repro.snip.verifier import ServerRandomness


@dataclass
class DeploymentStats:
    n_submitted: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    upload_bytes_total: int = 0
    #: per-server broadcast elements (verification traffic)
    broadcast_elements: list[int] = dc_field(default_factory=list)


class PrioDeployment:
    """A full in-process Prio deployment for one aggregation task."""

    def __init__(
        self,
        afe: Afe,
        servers: list[PrioServer],
        client: PrioClient,
        encrypt: bool,
        batch_size: int = 1,
        executor=None,
    ) -> None:
        if batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        self.afe = afe
        self.servers = servers
        self.client = client
        self.encrypt = encrypt
        self.batch_size = batch_size
        #: execution backend ("inline" | "process", or a
        #: ServerFanout); None = inline
        self.executor = executor
        #: the backend, resolved on first use and reused by every call
        #: until :meth:`close` (spawning process workers per call would
        #: dwarf the fan-out win)
        self._fanout: "ServerFanout | None" = None
        self._owns_fanout = False
        self.stats = DeploymentStats()

    @classmethod
    def create(
        cls,
        afe: Afe,
        n_servers: int,
        seed: bytes | None = None,
        use_prg_compression: bool = True,
        encrypt: bool = False,
        epoch_size: int = 1024,
        batch_size: int = 1,
        force_pure_backend: bool | None = None,
        rng=None,
        executor=None,
    ) -> "PrioDeployment":
        """``batch_size`` makes servers accumulate and verify submissions
        in batches of that size (``submit_many`` chunks accordingly);
        decisions and statistics remain per submission.  ``executor``
        selects the per-server execution backend
        (``"inline"``/``"process"``, or a ready ``ServerFanout``; see
        :mod:`repro.protocol.fanout`); the default runs every server
        inline on the calling thread."""
        if n_servers < 2:
            raise ProtocolError("Prio needs at least two servers")
        if rng is None:
            rng = _random.SystemRandom()
        randomness = ServerRandomness(seed or rng.randbytes(16))
        box_keys = None
        box_keypairs: list[BoxKeyPair | None] = [None] * n_servers
        if encrypt:
            box_keypairs = [BoxKeyPair.generate(rng) for _ in range(n_servers)]
            box_keys = [kp.public for kp in box_keypairs]
        servers = [
            PrioServer(
                afe, i, n_servers, randomness,
                epoch_size=epoch_size, box_keypair=box_keypairs[i],
                force_pure_backend=force_pure_backend,
            )
            for i in range(n_servers)
        ]
        client = PrioClient(
            afe, n_servers,
            use_prg_compression=use_prg_compression,
            server_box_keys=box_keys,
            rng=rng,
        )
        return cls(
            afe=afe, servers=servers, client=client, encrypt=encrypt,
            batch_size=batch_size, executor=executor,
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release any worker pools the deployment created; idempotent."""
        if self._fanout is not None:
            if self._owns_fanout:
                self._fanout.close()
            self._fanout = None

    def __enter__(self) -> "PrioDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def submit(self, value, mutate=None) -> bool:
        """Run one client's value through the protocol (a batch of one).

        ``mutate``, if given, receives the
        :class:`~repro.protocol.client.ClientSubmission` before
        delivery and may corrupt it — the robustness tests'
        fault-injection hook.
        """
        submission = self.client.prepare_submissions([value])[0]
        if mutate is not None:
            mutate(submission)
        return self.deliver([submission])[0]

    def submit_many(self, values) -> int:
        """Submit many values in ONE run; returns the number accepted.

        The batched plane prover prepares chunks of ``batch_size``
        values, one chunk ahead: chunk ``N+1`` is proved and framed on
        a worker thread while the servers verify chunk ``N``.  Only one
        prepare is ever in flight, so the client's rng draws — and the
        uploads — are those of preparing every value up front.
        """
        return sum(self._run(self._prepared_chunks(list(values))))

    async def _prepared_chunks(self, values):
        """``values`` as prepared chunks of ``batch_size``, with the
        next chunk's prepare in flight while the caller verifies."""
        size = self.batch_size
        slices = [values[i:i + size] for i in range(0, len(values), size)]
        if not slices:
            return

        def prepare(chunk_values):
            return asyncio.ensure_future(asyncio.to_thread(
                self.client.prepare_submissions, chunk_values
            ))

        ahead = prepare(slices[0])
        try:
            for following in slices[1:] + [None]:
                prepared = await ahead
                ahead = None if following is None else prepare(following)
                yield prepared
        finally:
            # The run stopped early: let the prefetch finish (its thread
            # and its exception are not left behind) — the run's own
            # error is the one that propagates.
            if ahead is not None:
                with contextlib.suppress(Exception):
                    await ahead

    def deliver(self, submissions) -> list[bool]:
        """Run prepared submissions through the protocol, in batches
        of ``batch_size``; one decision per submission, stream order.

        Framing errors (wrong length, replay, bad seal) reject the
        offending submission alone; the rest of its batch proceeds to
        one vectorized SNIP verification sweep per server, after which
        every submission is accepted or rejected — and counted in the
        statistics — individually.
        """
        submissions = list(submissions)
        size = self.batch_size

        async def chunks():
            for start in range(0, len(submissions), size):
                yield submissions[start:start + size]

        return self._run(chunks())

    def _run(self, chunks) -> list[bool]:
        """One run of ``chunks`` over the deployment's fan-out (resolved
        on first use); one decision per submission, stream order."""
        if self._fanout is None:
            self._fanout, self._owns_fanout = resolve_fanout(
                self.servers, self.executor
            )
        decisions: list[bool] = []
        asyncio.run(self._run_batches(chunks, decisions))
        return decisions

    async def _run_batches(self, chunks, decisions: list[bool]) -> None:
        """Drive the servers through the batch protocol, one chunk at a
        time — the one in-memory batch loop.

        ``chunks`` is an async generator of submission lists, each one
        verification batch; the loop closes it on the way out.  Each
        decided batch extends ``decisions`` and moves the statistics,
        so a run that raises has counted every batch it decided.  A
        submission a worker failure abandoned (nothing decided, id
        released) is ``False`` in ``decisions`` and counts as
        submitted, never as accepted or rejected.
        """
        fanout = self._fanout
        stats = self.stats
        synced = True
        try:
            try:
                # The backend may hold state from a previous run;
                # re-sync it from the driver-side servers.  A failed
                # push is not fatal — every batch below is abandoned
                # without touching the backend — but the run must NOT
                # execute ops against whatever stale state the workers
                # kept, and end_run must not fold a stale delta into the
                # driver-side servers.
                fanout.begin_run()
            except Exception:  # noqa: BLE001
                synced = False
            batch_id = 0
            async for chunk in chunks:
                # A refused position is rejected, a kept one awaits its
                # verdict, and None marks an abandoned one.
                decided: "list[bool | None]" = [None] * len(chunk)
                if synced:
                    payloads = [
                        _payloads(server, chunk, self.encrypt)
                        for server in self.servers
                    ]
                    ingested = await receive_and_ingest(
                        fanout, batch_id, payloads, self.encrypt
                    )
                    decided = [
                        None if refusal is None else False
                        for refusal in ingested.refusals
                    ]
                    verdicts = None if ingested.abandoned else (
                        await verify_and_accumulate(
                            fanout, self.servers, ingested
                        )
                    )
                    for pos, accepted in zip(ingested.keep, verdicts or ()):
                        decided[pos] = accepted
                batch_id += 1
                stats.n_submitted += len(chunk)
                stats.upload_bytes_total += sum(
                    submission.upload_bytes for submission in chunk
                )
                stats.n_accepted += decided.count(True)
                stats.n_rejected += decided.count(False)
                decisions.extend(map(bool, decided))
        except BaseException:
            # The open batch was received but will never be decided:
            # release its ids (an honest retry must not look like a
            # replay) and its batch state (a reused backend must not
            # pin plane matrices forever).
            try:
                await fanout.sweep(
                    "abandon_open", [()] * len(self.servers)
                )
            except BaseException:  # noqa: BLE001 - cleanup only
                pass
            raise
        finally:
            await chunks.aclose()
            if synced:
                fanout.end_run()

    # ------------------------------------------------------------------

    def publish_shares(self) -> list[list[int]]:
        return [server.publish() for server in self.servers]

    def publish(self):
        """Combine accumulators and AFE-decode the aggregate."""
        shares = self.publish_shares()
        sigma = self.afe.field.vec_sum(shares)
        n = self.servers[0].n_accepted
        self.stats.broadcast_elements = [
            server.elements_broadcast for server in self.servers
        ]
        return self.afe.decode(sigma, n)


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
