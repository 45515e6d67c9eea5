"""Edge cases and misuse handling across the client/server API."""

import random

import pytest

from repro.afe import BoolOrAfe, IntegerSumAfe
from repro.crypto import BoxKeyPair
from repro.field import FIELD87
from repro.protocol import PrioClient, PrioServer, ProtocolError
from repro.protocol.wire import (
    ClientPacket,
    PacketKind,
    WireError,
    encode_envelope,
)
from repro.snip import ServerRandomness, SnipError, SnipVerifierParty
from repro.snip.verifier import Round1Message, VerificationContext


@pytest.fixture
def rng():
    return random.Random(135791)


def make_server(afe, index=0, n=2, epoch_size=1024):
    return PrioServer(
        afe, index, n, ServerRandomness(b"edge-seed"), epoch_size=epoch_size
    )


def test_client_box_key_count_mismatch(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    keys = [BoxKeyPair.generate(rng).public]  # one key for two servers
    client = PrioClient(afe, 2, server_box_keys=keys, rng=rng)
    with pytest.raises(ValueError):
        client.prepare_submission(3)


def test_client_submission_elements_accounting(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    client = PrioClient(afe, 3, rng=rng)
    submission = client.prepare_submission(5)
    assert submission.packets[0].n_elements == client.submission_elements()
    # Proof-free AFE: elements == k.
    or_client = PrioClient(BoolOrAfe(lambda_bits=8), 3, rng=rng)
    assert or_client.submission_elements() == 8


def test_server_rejects_misdelivered_packet(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    client = PrioClient(afe, 2, rng=rng)
    submission = client.prepare_submission(3)
    server1 = make_server(afe, index=1, n=2)
    # packet for server 0
    [refusal] = server1.receive_wire_batch([submission.packets[0].encode()])
    assert isinstance(refusal, ProtocolError)
    assert not server1._pending_ids


def test_server_rejects_wrong_length_vector(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    server = make_server(afe)
    packet = ClientPacket(
        submission_id=b"\x01" * 16,
        server_index=0,
        kind=PacketKind.EXPLICIT,
        n_elements=3,
        body=FIELD87.encode_vector([1, 2, 3]),
    )
    [refusal] = server.receive_wire_batch([packet.encode()])
    assert isinstance(refusal, WireError)


def test_server_without_box_key_rejects_sealed(rng):
    """A keyless server refuses a sealed packet as a typed per-position
    verdict (it never raises for the whole batch)."""
    afe = IntegerSumAfe(FIELD87, 4)
    server = make_server(afe)
    sealed = encode_envelope(b"\x01" * 16, 0) + b"\x00" * 64
    [refusal] = server.receive_sealed_batch([sealed])
    assert isinstance(refusal, ProtocolError)
    assert "no box key" in str(refusal)


def test_verifier_party_needs_two_servers(rng):
    afe = IntegerSumAfe(FIELD87, 2)
    circuit = afe.valid_circuit()
    ctx = VerificationContext(
        FIELD87, circuit,
        ServerRandomness(b"x").challenge(FIELD87, circuit, 0),
    )
    from repro.snip import prove_and_share

    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, afe.encode(1), 2, rng
    )
    with pytest.raises(SnipError):
        SnipVerifierParty(ctx, 0, 1, x_shares[0], proof_shares[0])


def test_verifier_round2_needs_all_messages(rng):
    afe = IntegerSumAfe(FIELD87, 2)
    circuit = afe.valid_circuit()
    ctx = VerificationContext(
        FIELD87, circuit,
        ServerRandomness(b"y").challenge(FIELD87, circuit, 0),
    )
    from repro.snip import prove_and_share

    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, afe.encode(1), 2, rng
    )
    party = SnipVerifierParty(ctx, 0, 2, x_shares[0], proof_shares[0])
    with pytest.raises(SnipError):
        party.round2([Round1Message(0, 0)])  # only one of two messages


def test_verifier_rejects_wrong_h_share_size(rng):
    afe = IntegerSumAfe(FIELD87, 2)
    circuit = afe.valid_circuit()
    ctx = VerificationContext(
        FIELD87, circuit,
        ServerRandomness(b"z").challenge(FIELD87, circuit, 0),
    )
    from repro.snip import prove_and_share

    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, afe.encode(1), 2, rng
    )
    proof_shares[0].h_evals = proof_shares[0].h_evals[:-1]
    with pytest.raises(SnipError):
        SnipVerifierParty(ctx, 0, 2, x_shares[0], proof_shares[0])


def test_epoch_counter_only_advances_on_processed_submissions(rng):
    afe = IntegerSumAfe(FIELD87, 2)
    server = make_server(afe, epoch_size=2)
    assert server._epoch == 0
    # Force context creation without traffic; epoch stays 0.
    server._context()
    assert server._epoch == 0


def test_stats_counts_match(rng):
    from repro.protocol import PrioDeployment

    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    deployment.submit(3)
    deployment.submit(9)

    def corrupt(submission):
        packet = submission.packets[-1]
        vec = FIELD87.decode_vector(packet.body)
        vec[0] = (vec[0] + 5) % FIELD87.modulus
        submission.packets[-1] = ClientPacket(
            submission_id=packet.submission_id,
            server_index=packet.server_index,
            kind=PacketKind.EXPLICIT,
            n_elements=packet.n_elements,
            body=FIELD87.encode_vector(vec),
        )

    deployment.submit(1, mutate=corrupt)
    stats = deployment.stats
    assert stats.n_submitted == 3
    assert stats.n_accepted == 2
    assert stats.n_rejected == 1
    assert stats.upload_bytes_total > 0
    assert deployment.publish() == 12
    assert stats.broadcast_elements  # filled in by publish()
