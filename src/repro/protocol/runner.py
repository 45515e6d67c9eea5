"""In-process deployment: a client, a server set, and one driver.

``PrioDeployment`` is the high-level API most examples use:

    deployment = PrioDeployment.create(afe, n_servers=5)
    deployment.submit_many(private_values)
    aggregate = deployment.publish()

It executes the full Appendix H protocol — upload (optionally sealed),
two-round SNIP verification, accumulate, publish, decode — with every
server a real :class:`~repro.protocol.server.PrioServer`, and keeps
the bandwidth/acceptance statistics the benchmarks report.

There are three ways in, and all of them run the one per-batch loop
(:mod:`repro.protocol.pipeline`) over the deployment's fan-out:
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
import os
import random as _random
from dataclasses import dataclass, field as dc_field

from repro.afe.base import Afe
from repro.crypto.box import BoxKeyPair
from repro.protocol.client import PrioClient
from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.pipeline import _run_batches, _slices
from repro.protocol.server import PrioServer, ProtocolError
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
        if batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if rng is None:
            rng = _random.Random(os.urandom(16))
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

        def prepare(chunk_values):
            return asyncio.ensure_future(asyncio.to_thread(
                self.client.prepare_submissions, chunk_values
            ))

        ahead = prepare(slices[0]) if slices else None
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
        return self._run(_slices(list(submissions), self.batch_size))

    def _run(self, chunks) -> list[bool]:
        """One run of ``chunks`` over the deployment's fan-out (resolved
        on first use), counting each batch as it is decided."""
        if self._fanout is None:
            self._fanout, self._owns_fanout = resolve_fanout(
                self.servers, self.executor
            )
        decisions: list[bool] = []

        def record(chunk, decided) -> None:
            self.stats.n_submitted += len(chunk)
            self.stats.upload_bytes_total += sum(
                submission.upload_bytes for submission in chunk
            )
            self.stats.n_accepted += decided.count(True)
            self.stats.n_rejected += decided.count(False)
            decisions.extend(map(bool, decided))

        asyncio.run(_run_batches(
            self.servers, self._fanout, self.encrypt, chunks, record
        ))
        return decisions

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
