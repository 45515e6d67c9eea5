"""Tests for client registration and publish gating (Section 7)."""

import random

import pytest

from repro.afe import IntegerSumAfe
from repro.crypto.sign import SigningKeyPair, sign
from repro.field import FIELD87
from repro.protocol.registration import (
    ClientRegistry,
    GatedDeployment,
    RegisteredClient,
    RegistrationError,
    SignedPacket,
)


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
        assert deployment.deliver(client.prepare_submission(i + 1))
    assert deployment.publish() == 1 + 2 + 3


def test_unregistered_client_rejected(deployment, rng):
    afe = deployment.afe
    rogue_keypair = SigningKeyPair.generate(rng)  # never registered
    rogue = RegisteredClient(afe, 3, rogue_keypair, rng=rng)
    assert not deployment.deliver(rogue.prepare_submission(5))


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
    assert not deployment.deliver(forged)


def test_publish_gated_below_threshold(deployment, rng):
    client = deployment.new_client(rng)
    assert deployment.deliver(client.prepare_submission(9))
    # Only one distinct contributor; threshold is three.
    with pytest.raises(RegistrationError):
        deployment.publish()


def test_sybil_counts_once(deployment, rng):
    """One registered key submitting many times is one contributor —
    it cannot satisfy the threshold alone (replay protection also
    limits it to distinct submissions)."""
    client = deployment.new_client(rng)
    for value in (1, 2, 3, 4):
        deployment.deliver(client.prepare_submission(value))
    assert deployment.servers[0].n_contributors == 1
    with pytest.raises(RegistrationError):
        deployment.publish()


def test_threshold_exactly_met(deployment, rng):
    for i in range(3):
        client = deployment.new_client(rng)
        deployment.deliver(client.prepare_submission(i))
    assert deployment.servers[0].n_contributors == 3
    assert deployment.publish() == 0 + 1 + 2


def test_invalid_submission_does_not_count_toward_threshold(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = GatedDeployment(afe, n_servers=2, publish_threshold=2)
    good = deployment.new_client(rng)
    deployment.deliver(good.prepare_submission(3))

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
    assert not deployment.deliver(packets)
    assert deployment.servers[0].n_contributors == 1
    with pytest.raises(RegistrationError):
        deployment.publish()


def test_deployment_needs_two_servers():
    from repro.protocol import ProtocolError

    with pytest.raises(ProtocolError):
        GatedDeployment(IntegerSumAfe(FIELD87, 4), 1, publish_threshold=1)


def test_process_run_keeps_contributors(rng):
    """A process worker's copy credits the contributors; the run-end
    fold must bring them home, or ``publish()`` refuses a deployment
    that met its threshold."""
    from repro.protocol import ClientSubmission, run_pipelined

    deployment = GatedDeployment(
        IntegerSumAfe(FIELD87, 4), n_servers=2, publish_threshold=4
    )
    submissions = []
    for value in range(4):
        signed = deployment.new_client(rng).prepare_submission(value)
        for server, packet in zip(deployment.servers, signed):
            server.admit(packet)
        packets = [sp.packet for sp in signed]
        submissions.append(
            ClientSubmission(packets[0].submission_id, packets)
        )
    decisions, _ = run_pipelined(
        deployment.servers, submissions, executor="process"
    )
    assert decisions == [True] * 4
    assert [s.n_contributors for s in deployment.servers] == [4, 4]
    assert deployment.publish() == 0 + 1 + 2 + 3
