"""Tests for client registration and publish gating (Section 7)."""

import asyncio
import multiprocessing
import random

import pytest

from repro.afe import IntegerSumAfe
from repro.crypto.sign import SigningKeyPair, sign
from repro.field import FIELD87
from repro.protocol import ClientSubmission, PrioClient, PrioDeployment
from repro.protocol.registration import (
    ClientRegistry,
    GatedDeployment,
    RegisteredClient,
    RegistrationError,
    SignedPacket,
)
from repro.transport import PrioTransportServer, Status, TransportClient
from repro.transport import TransportConfig


@pytest.fixture
def rng():
    return random.Random(2468)


@pytest.fixture
def deployment():
    afe = IntegerSumAfe(FIELD87, 4)
    return GatedDeployment(afe, n_servers=3, publish_threshold=3)


def test_registry_basic(rng):
    registry = ClientRegistry()
    keypair = SigningKeyPair.generate(rng)
    client_id = registry.register(keypair.public)
    assert registry.is_registered(client_id)
    assert registry.public_key(client_id) == keypair.public
    assert len(registry) == 1
    assert not registry.is_registered(b"nobody")
    with pytest.raises(RegistrationError):
        registry.public_key(b"nobody")


def test_registered_clients_accepted(deployment, rng):
    clients = [deployment.new_client(rng) for _ in range(3)]
    for i, client in enumerate(clients):
        assert deployment.deliver_signed(client.prepare_submission(i + 1))
    assert deployment.publish() == 1 + 2 + 3


def test_unregistered_client_rejected(deployment, rng):
    afe = deployment.afe
    rogue_keypair = SigningKeyPair.generate(rng)  # never registered
    rogue = RegisteredClient(afe, 3, rogue_keypair, rng=rng)
    assert not deployment.deliver_signed(rogue.prepare_submission(5))


def test_bad_signature_rejected(deployment, rng):
    client = deployment.new_client(rng)
    packets = client.prepare_submission(7)
    # Tamper: re-sign with a different (registered!) key.
    other = deployment.new_client(rng)
    forged = [
        SignedPacket(
            packet=sp.packet,
            client_id=client.client_id,
            signature=sign(other.keypair, sp.packet.encode(), rng),
        )
        for sp in packets
    ]
    assert not deployment.deliver_signed(forged)


def test_publish_gated_below_threshold(deployment, rng):
    client = deployment.new_client(rng)
    assert deployment.deliver_signed(client.prepare_submission(9))
    # Only one distinct contributor; threshold is three.
    with pytest.raises(RegistrationError):
        deployment.publish()


def test_sybil_counts_once(deployment, rng):
    """One registered key submitting many times is one contributor —
    it cannot satisfy the threshold alone (replay protection also
    limits it to distinct submissions)."""
    client = deployment.new_client(rng)
    for value in (1, 2, 3, 4):
        deployment.deliver_signed(client.prepare_submission(value))
    assert deployment.servers[0].n_contributors == 1
    with pytest.raises(RegistrationError):
        deployment.publish()


def test_threshold_exactly_met(deployment, rng):
    for i in range(3):
        client = deployment.new_client(rng)
        deployment.deliver_signed(client.prepare_submission(i))
    assert deployment.servers[0].n_contributors == 3
    assert deployment.publish() == 0 + 1 + 2


def test_invalid_submission_does_not_count_toward_threshold(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = GatedDeployment(afe, n_servers=2, publish_threshold=2)
    good = deployment.new_client(rng)
    deployment.deliver_signed(good.prepare_submission(3))

    evil = deployment.new_client(rng)
    packets = evil.prepare_submission(3)
    # Corrupt the explicit packet body after signing: signature check
    # fails, so the submission is dropped before verification.
    from repro.protocol.wire import ClientPacket, PacketKind

    bad_packet = ClientPacket(
        submission_id=packets[-1].packet.submission_id,
        server_index=packets[-1].packet.server_index,
        kind=PacketKind.EXPLICIT,
        n_elements=packets[-1].packet.n_elements,
        body=b"\x00" * len(packets[-1].packet.body),
    )
    packets[-1] = SignedPacket(
        packet=bad_packet,
        client_id=packets[-1].client_id,
        signature=packets[-1].signature,
    )
    assert not deployment.deliver_signed(packets)
    # the server that did admit consumed its admission at receive
    assert [s._admitted for s in deployment.servers] == [{}, {}]
    assert deployment.servers[0].n_contributors == 1
    with pytest.raises(RegistrationError):
        deployment.publish()


def test_deployment_needs_two_servers():
    from repro.protocol import ProtocolError

    with pytest.raises(ProtocolError):
        GatedDeployment(IntegerSumAfe(FIELD87, 4), 1, publish_threshold=1)


def _admitted_submission(deployment, client, value):
    """``client``'s upload of ``value``, admitted at every server."""
    signed = client.prepare_submission(value)
    for server, packet in zip(deployment.servers, signed):
        server.admit(packet)
    packets = [sp.packet for sp in signed]
    return ClientSubmission(packets[0].submission_id, packets)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_runs_settle_their_admissions_on_every_backend(batch_size):
    """A run consumes the admissions it settles on every backend: a
    process worker's copy consumes its own, and the run-end fold must
    drop them driver-side too, or every later run ships them again.
    Contributors and the aggregate do not depend on the backend."""
    outcomes = []
    for executor in ("inline", "process"):
        rng = random.Random(1357)
        deployment = GatedDeployment(
            IntegerSumAfe(FIELD87, 4), n_servers=2, publish_threshold=3
        )
        clients = [deployment.new_client(rng) for _ in range(3)]
        # the first client submits twice: a Sybil counts once
        submissions = [
            _admitted_submission(deployment, client, value)
            for client, value in zip(clients + clients[:1], (1, 2, 3, 4))
        ]
        with PrioDeployment(
            deployment.afe, deployment.servers, deployment.client,
            encrypt=False, batch_size=batch_size, executor=executor,
        ) as driver:
            assert driver.deliver(submissions) == [True] * 4
        assert [s._admitted for s in deployment.servers] == [{}, {}]
        outcomes.append((
            [s.n_contributors for s in deployment.servers],
            deployment.publish(),
        ))
    assert outcomes == [([3, 3], 10)] * 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_servers_refuse_uploads_they_did_not_admit(executor, rng):
    """The registration gate is the server's, not the driver's: an
    unsigned upload is refused through every way into the deployment
    and every backend, counts in no aggregate, holds no id, and the
    same upload is accepted once it is admitted."""
    deployment = GatedDeployment(
        IntegerSumAfe(FIELD87, 4), n_servers=2, publish_threshold=1
    )
    assert deployment.deliver_signed(
        deployment.new_client(rng).prepare_submission(3)
    )
    rogue = PrioClient(deployment.afe, 2, rng=rng)  # signs nothing
    uploads = rogue.prepare_submissions([12] * 4)
    assert deployment.deliver(uploads[:2]) == [False, False]
    assert deployment.submit(12) is False
    assert deployment.submit_many([12] * 3) == 0
    with PrioDeployment(
        deployment.afe, deployment.servers, rogue, encrypt=False,
        batch_size=4, executor=executor,
    ) as driver:
        assert driver.deliver(uploads) == [False] * 4
        assert driver.submit_many([12] * 5) == 0
    assert deployment.publish() == 3
    for server in deployment.servers:
        assert (server.n_accepted, server.n_rejected) == (1, 0)
        assert not server._pending_ids
    # Refused at receive, never decided: admitted, the upload is taken.
    registered = deployment.new_client(rng)
    signed = [
        SignedPacket(packet, registered.client_id, sign(
            registered.keypair, packet.encode(), rng
        ))
        for packet in uploads[0].packets
    ]
    assert deployment.deliver_signed(signed)
    assert deployment.publish() == 3 + 12
    assert multiprocessing.active_children() == []


def test_socket_front_end_refuses_unadmitted_uploads(rng):
    """Over TCP every unsigned upload comes back ``REJECTED`` and is
    counted in no aggregate."""
    deployment = GatedDeployment(
        IntegerSumAfe(FIELD87, 4), n_servers=2, publish_threshold=0
    )
    uploads = PrioClient(deployment.afe, 2, rng=rng).prepare_submissions(
        [12] * 6
    )

    async def serve():
        config = TransportConfig(batch_size=4, linger_s=0.001)
        async with PrioTransportServer(deployment.servers, config) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) as c:
                return await asyncio.gather(*(c.submit(s) for s in uploads))

    assert asyncio.run(serve()) == [Status.REJECTED] * 6
    for server in deployment.servers:
        assert (server.n_accepted, server.n_rejected) == (0, 0)
        assert not server._pending_ids
    assert deployment.publish() == 0
