"""Run the full Prio verification protocol over the simulated WAN.

The in-memory drivers (:mod:`repro.protocol.pipeline`) sweep every
server in lock-step, which hides message timing entirely.  This module
instead drives real :class:`~repro.protocol.server.PrioServer`
instances as asynchronous nodes of a
:class:`~repro.simnet.network.SimNetwork`: upload packets, round-1 and
round-2 broadcasts are all delivered by the event queue with topology
latencies, and servers make progress purely by reacting to messages —
submissions interleave exactly as they would across a real WAN.

Verification is *group-granular*: each server buffers arriving uploads
(wire bytes) into groups of ``batch_size`` (1 by default — one
submission per group, the paper's baseline) and, once a group is full,
runs it through the same batch-id-keyed ops every other driver uses
(:class:`~repro.protocol.fanout._ServerOps`, the group id as batch id):
``receive_wire`` + ``ingest`` + ``round1`` at group formation,
``round2`` when every peer's round-1 broadcast is in, ``accumulate``
when every round-2 broadcast is in — so one broadcast carries a whole
group's messages.  Only the *schedule* is this module's own; there is
no driver to intersect survivors across servers, so a refusal every
server shares (a replayed id) drops its position from the group, while
one they disagree on fails the run loudly through the group-membership
cross-check the broadcasts carry.

Server-side CPU work executes through the fan-out seam
(:mod:`repro.protocol.fanout`): ``executor="inline"`` (default) runs it
on the event loop's thread, ``executor="process"`` gives every
simulated server a dedicated worker process that owns its state — the
single-host stand-in for the paper's one-server-per-machine
deployment.  The event schedule, group membership, and decisions are
identical either way (asserted by the integration tests).

Used by the integration tests (correctness must be independent of
message timing and of ``batch_size``) and by latency experiments (how
long until a submission is fully verified across five regions?).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field as dc_field

from repro.afe.base import Afe
from repro.protocol.client import PrioClient
from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.server import PrioServer
from repro.protocol.wire import routing_id
from repro.simnet.network import SimError, SimNetwork
from repro.simnet.regions import Topology
from repro.snip.verifier import Round1Batch, Round2Batch, ServerRandomness


@dataclass
class _GroupState:
    """One verification group (a batch of submissions) at one server."""

    sids: tuple[bytes, ...] | None
    #: True once this server formed the group locally (received every
    #: upload and ran round 1); peers' broadcasts may arrive earlier
    formed: bool = False
    #: per-server plane-form broadcasts (one batch covers the group)
    round1: dict[int, Round1Batch] = dc_field(default_factory=dict)
    round2: dict[int, Round2Batch] = dc_field(default_factory=dict)
    round2_sent: bool = False
    done: bool = False


@dataclass
class ClusterReport:
    """Outcome of one simulated cluster run."""

    n_accepted: int
    n_rejected: int
    aggregate: object
    #: simulated seconds from first upload to last decision
    wall_clock_s: float
    #: bytes each server transmitted to peers
    server_tx_bytes: list[int]
    #: simulated seconds until the first submission was decided
    first_decision_s: float


class _ServerNode:
    """Adapter: a PrioServer reacting to simulated network messages.

    The node owns only bookkeeping (group membership, arrival buffers
    of wire bytes, decision log); the server's actual state — pendings,
    verifier parties, accumulator — lives behind the fan-out backend,
    which may be this process or a dedicated worker per server.
    """

    def __init__(
        self,
        server: PrioServer,
        fanout: ServerFanout,
        element_bytes: int,
        batch_size: int,
        expected_uploads: int,
    ) -> None:
        self.server = server
        self.fanout = fanout
        self.index = server.server_index
        self.n_servers = server.n_servers
        self.element_bytes = element_bytes
        self.batch_size = batch_size
        self.expected_uploads = expected_uploads
        self.uploads_received = 0
        #: arrived, not yet grouped: one encoded packet per upload
        self._buffer: list[bytes] = []
        self._next_group = 0
        self.groups: dict[int, _GroupState] = {}
        self.decisions: dict[bytes, bool] = {}
        self.decision_times: list[float] = []

    async def handle(self, net: SimNetwork, src: int, message: tuple) -> None:
        kind = message[0]
        if kind == "upload":
            await self._on_upload(net, message[1])
        elif kind == "r1":
            await self._on_round1(net, *message[1:])
        elif kind == "r2":
            await self._on_round2(net, *message[1:])

    # ------------------------------------------------------------------

    async def _on_upload(self, net: SimNetwork, payload: bytes) -> None:
        self.uploads_received += 1
        self._buffer.append(payload)
        # Close the group when full — or when no further uploads can
        # arrive (the final, possibly partial, group).
        if (
            len(self._buffer) >= self.batch_size
            or self.uploads_received == self.expected_uploads
        ):
            await self._form_group(net)

    async def _form_group(self, net: SimNetwork) -> None:
        payloads = list(self._buffer)
        self._buffer.clear()
        gid = self._next_group
        self._next_group += 1
        verdicts = await self.fanout.call(
            self.index, "receive_wire", gid, payloads
        )
        keep = [pos for pos, v in enumerate(verdicts) if v is None]
        await self.fanout.call(self.index, "ingest", gid, keep)
        sids = tuple(routing_id(payloads[pos]) for pos in keep)
        if not sids:
            return  # every upload refused (replays): nothing to verify
        state = self.groups.get(gid)
        if state is None:
            state = self.groups[gid] = _GroupState(sids=sids)
        else:
            # Peer broadcasts raced ahead of our uploads; the group
            # they announced must match the one we just formed.
            if state.sids is not None and state.sids != sids:
                raise SimError(f"group {gid} membership disagreement")
            state.sids = sids
        state.formed = True
        round1 = await self.fanout.call(self.index, "round1", gid)
        state.round1[self.index] = round1
        # The broadcast carries the plane-form batch; the byte cost on
        # the simulated wire is unchanged (two elements per submission).
        net.broadcast(
            self.index,
            ("r1", gid, sids, self.index, round1),
            2 * self.element_bytes * len(sids),
        )
        await self._maybe_round2(net, gid, state)

    def _require_group(
        self, gid: int, sids: tuple[bytes, ...]
    ) -> _GroupState:
        state = self.groups.get(gid)
        if state is None:
            # Upload(s) not here yet (WAN reordering): stash under the
            # announced group id until our own group forms.
            state = self.groups[gid] = _GroupState(sids=sids)
        elif state.sids is not None and state.sids != sids:
            raise SimError(f"group {gid} membership disagreement")
        return state

    async def _on_round1(
        self, net: SimNetwork, gid: int, sids, src_index: int, msgs
    ) -> None:
        state = self._require_group(gid, sids)
        state.round1[src_index] = msgs
        await self._maybe_round2(net, gid, state)

    async def _maybe_round2(
        self, net: SimNetwork, gid: int, state: _GroupState
    ) -> None:
        if (
            not state.formed
            or len(state.round1) < self.n_servers
            or state.round2_sent
        ):
            return
        round1_batches = [
            state.round1[s] for s in range(self.n_servers)
        ]
        round2 = await self.fanout.call(
            self.index, "round2", gid, round1_batches
        )
        state.round2_sent = True
        state.round2[self.index] = round2
        net.broadcast(
            self.index,
            ("r2", gid, state.sids, self.index, round2),
            2 * self.element_bytes * len(state.sids),
        )
        await self._maybe_decide(net, gid, state)

    async def _on_round2(
        self, net: SimNetwork, gid: int, sids, src_index: int, msgs
    ) -> None:
        state = self._require_group(gid, sids)
        state.round2[src_index] = msgs
        await self._maybe_decide(net, gid, state)

    async def _maybe_decide(
        self, net: SimNetwork, gid: int, state: _GroupState
    ) -> None:
        if (
            state.done
            or not state.formed
            or len(state.round2) < self.n_servers
        ):
            return
        round2_batches = [
            state.round2[s] for s in range(self.n_servers)
        ]
        decisions = self.server.decide_batch(round2_batches)
        await self.fanout.call(self.index, "accumulate", gid, decisions)
        for sid, accepted in zip(state.sids, decisions):
            self.decisions[sid] = accepted
            self.decision_times.append(net.clock)
        state.done = True


def run_cluster(
    afe: Afe,
    topology: Topology,
    values,
    rng,
    seed: bytes = b"cluster-seed",
    mutate=None,
    batch_size: int = 1,
    executor: "str | None" = "inline",
) -> ClusterReport:
    """Submit ``values`` through a simulated cluster; fully verify all.

    ``batch_size > 1`` makes every server verify uploads in groups of
    that size via the vectorized batch path; outcomes are identical to
    ``batch_size=1`` (asserted by the integration tests), only the
    message schedule changes.  ``executor`` selects where each server's
    CPU work runs (``"inline"`` default; ``"process"`` = one worker
    process per server; a ``":K"`` suffix such as ``"process:4"``
    shards every server across K workers of that kind); outcomes are
    backend-independent.  Server handlers execute through the network's
    latency-window concurrency (:meth:`SimNetwork.run_async`), so with
    a thread/process/sharded backend distinct servers' CPU work
    genuinely overlaps.  Uploads come from the batched plane-resident
    client prover; ``mutate(index, submission)`` may corrupt each one
    before it is sent.
    """
    if batch_size < 1:
        raise SimError("batch_size must be >= 1")
    if not (executor is None or isinstance(executor, str)):
        # The cluster constructs its own fresh servers below; a caller
        # fanout is bound to *its* servers, so its ops would mutate
        # those while this function published from the empty fresh
        # ones — a silently wrong report.  Only backend kinds make
        # sense here.
        raise SimError(
            "run_cluster accepts an executor kind "
            "(\"inline\"/\"thread\"/\"process\"/\"auto\"), not a fanout "
            "instance: the cluster owns its servers"
        )
    n_servers = topology.n_sites
    randomness = ServerRandomness(seed)
    servers = [
        PrioServer(afe, i, n_servers, randomness) for i in range(n_servers)
    ]
    element_bytes = afe.field.encoded_size
    values = list(values)
    fanout, owned = resolve_fanout(servers, executor, batch_size)
    try:
        nodes = [
            _ServerNode(
                server, fanout, element_bytes, batch_size, len(values)
            )
            for server in servers
        ]
        net = SimNetwork(topology)
        for node in nodes:
            net.register(node.index, node.handle)

        client = PrioClient(afe, n_servers, rng=rng)
        submissions = client.prepare_submissions(values)
        for index, submission in enumerate(submissions):
            if mutate is not None:
                mutate(index, submission)
            # Clients are modelled at the leader's site (site 0): upload
            # packets fan out from there with the topology's latencies.
            for packet in submission.packets:
                payload = packet.encode()
                net.send(
                    0, packet.server_index, ("upload", payload), len(payload)
                )
        # Latency-window concurrency: handlers at distinct servers run
        # through asyncio.gather, so per-server worker pools (thread,
        # process, sharded) genuinely overlap — the event schedule and
        # report are bit-identical to the serial run (asserted by the
        # integration tests).
        wall = asyncio.run(net.run_async())
    finally:
        try:
            fanout.end_run()
        finally:
            if owned:
                fanout.close()

    # All servers must agree on every decision (they are deterministic).
    for node in nodes[1:]:
        assert node.decisions == nodes[0].decisions, "servers disagree"

    shares = [server.publish() for server in servers]
    sigma = afe.field.vec_sum(shares)
    n_accepted = servers[0].n_accepted
    aggregate = afe.decode(sigma, n_accepted) if n_accepted else None
    return ClusterReport(
        n_accepted=n_accepted,
        n_rejected=servers[0].n_rejected,
        aggregate=aggregate,
        wall_clock_s=wall,
        server_tx_bytes=[net.total_bytes_from(i) for i in range(n_servers)],
        first_decision_s=min(
            (min(n.decision_times) for n in nodes if n.decision_times),
            default=0.0,
        ),
    )
