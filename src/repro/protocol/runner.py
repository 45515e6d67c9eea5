"""In-process deployment: a client, a server set, and one driver.

``PrioDeployment`` is the high-level API most examples use:

    deployment = PrioDeployment.create(afe, n_servers=5)
    deployment.submit_many(private_values)
    aggregate = deployment.publish()

It executes the full Appendix H protocol — upload (optionally sealed),
two-round SNIP verification, accumulate, publish, decode — with every
server a real :class:`~repro.protocol.server.PrioServer`, and keeps
the bandwidth/acceptance statistics the benchmarks report.

There are three ways in, and all of them run the one batch protocol
(:mod:`repro.protocol.pipeline`) over the deployment's fan-out:
:meth:`PrioDeployment.submit` (one value, with a fault-injection
hook), :meth:`PrioDeployment.submit_many` (values; the batched client
prover is the pipeline's producer stage) and
:meth:`PrioDeployment.deliver` (prepared uploads).  ``batch_size`` is
the verification batch: one fused sweep per server per batch.
Acceptance decisions, replay protection, and every statistic remain
per submission — a bad upload rejects alone, and
``n_rejected``/``upload_bytes_total`` count submissions, never batches.
"""

from __future__ import annotations

import os
import random as _random
from dataclasses import dataclass, field as dc_field

from repro.afe.base import Afe
from repro.crypto.box import BoxKeyPair
from repro.protocol.client import PrioClient
from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.pipeline import AsyncPrioPipeline
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
        #: execution backend ("inline" | "thread" | "process" | "auto",
        #: optionally ":K" sharded, or a ServerFanout); None = inline
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
        replay_cache=None,
    ) -> "PrioDeployment":
        """``batch_size`` makes servers accumulate and verify submissions
        in batches of that size (``submit_many`` chunks accordingly);
        decisions and statistics remain per submission.  ``executor``
        selects the per-server execution backend
        (``"inline"``/``"thread"``/``"process"``/``"auto"``, optionally
        with a ``":K"`` shard suffix; see :mod:`repro.protocol.fanout`);
        the default runs every server inline on the calling thread.
        ``replay_cache`` selects each server's replay store
        (``"memory"``/``"tiered"``; see :mod:`repro.protocol.replay`) —
        only a string spec is accepted here because every server needs
        its own independent cache."""
        if n_servers < 2:
            raise ProtocolError("Prio needs at least two servers")
        if batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if replay_cache is not None and not isinstance(replay_cache, str):
            raise ProtocolError(
                "replay_cache must be a string spec here (each server "
                "needs its own cache instance); pass instances to "
                "PrioServer directly"
            )
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
                replay_cache=replay_cache,
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

    def _pipeline(self) -> AsyncPrioPipeline:
        """A pipeline over the deployment's (lazily resolved) fan-out."""
        if self._fanout is None:
            self._fanout, self._owns_fanout = resolve_fanout(
                self.servers, self.executor or "inline", self.batch_size
            )
        return AsyncPrioPipeline(
            self.servers, batch_size=self.batch_size,
            executor=self._fanout, encrypt=self.encrypt,
        )

    def close(self) -> None:
        """Release any worker pools the deployment created, plus each
        server's replay cache (tiered caches own on-disk databases);
        idempotent."""
        if self._fanout is not None:
            if self._owns_fanout:
                self._fanout.close()
            self._fanout = None
        for server in self.servers:
            server._replay.close()

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
        """Submit many values in ONE pipeline run; returns the number
        accepted.

        The batched plane prover runs as the pipeline's producer stage
        (:meth:`~repro.protocol.pipeline.AsyncPrioPipeline.run_values`):
        the client proves and frames chunk ``N+1`` of ``batch_size``
        values while the servers ingest and verify chunk ``N``.
        """
        values = list(values)
        pipeline = self._pipeline()
        decisions = pipeline.run_values(self.client, values)
        self._count(decisions, pipeline.stats.upload_bytes)
        return sum(decisions)

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
        decisions = self._pipeline().run(submissions)
        self._count(decisions, sum(s.upload_bytes for s in submissions))
        return decisions

    def _count(self, decisions: list[bool], upload_bytes: int) -> None:
        self.stats.n_submitted += len(decisions)
        self.stats.upload_bytes_total += upload_bytes
        self.stats.n_accepted += sum(decisions)
        self.stats.n_rejected += len(decisions) - sum(decisions)

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
