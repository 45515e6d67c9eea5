"""Tests for the NIZK comparison system (ElGamal + OR proofs + decryption)."""

import random

import pytest

from baselines.nizk import (
    UPLOAD_BYTES_PER_ELEMENT,
    ElGamalCiphertext,
    NizkDeployment,
    NizkError,
    ServerKeyPair,
    combine_partials,
    combined_public_key,
    discrete_log,
    encrypt_bit,
    nizk_client_submit,
    nizk_server_transfer_bytes,
    partial_decrypt,
    prove_bit,
    prove_dleq,
    verify_bit,
    verify_dleq,
)
from repro.afe import VectorSumAfe
from repro.ec import (
    GENERATOR,
    INFINITY,
    random_scalar,
    reset_op_counter,
    scalar_mult,
    scalar_mult_count,
)
from repro.field import FIELD87
from repro.snip import build_proof


@pytest.fixture
def rng():
    return random.Random(13579)


# ----------------------------------------------------------------------
# ElGamal
# ----------------------------------------------------------------------


def test_encrypt_decrypt_single_server(rng):
    kp = ServerKeyPair.generate(rng)
    ct, _ = encrypt_bit(kp.public, 1, rng)
    partial = partial_decrypt(kp.secret, ct)
    assert combine_partials(ct, [partial]) == GENERATOR  # 1 * G


def test_homomorphic_sum(rng):
    kp = ServerKeyPair.generate(rng)
    bits = [1, 0, 1, 1, 0, 1]
    acc = None
    for bit in bits:
        ct, _ = encrypt_bit(kp.public, bit, rng)
        acc = ct if acc is None else acc + ct
    partial = partial_decrypt(kp.secret, acc)
    point = combine_partials(acc, [partial])
    assert discrete_log(point, len(bits)) == sum(bits)


def test_combined_key_requires_all_servers(rng):
    kps = [ServerKeyPair.generate(rng) for _ in range(3)]
    combined = combined_public_key([kp.public for kp in kps])
    ct, _ = encrypt_bit(combined, 1, rng)
    partials = [partial_decrypt(kp.secret, ct) for kp in kps]
    assert combine_partials(ct, partials) == GENERATOR
    # Missing one share leaves a blinded point.
    assert combine_partials(ct, partials[:2]) != GENERATOR


def test_encrypt_rejects_non_bit(rng):
    kp = ServerKeyPair.generate(rng)
    with pytest.raises(NizkError):
        encrypt_bit(kp.public, 2, rng)


def test_combined_key_empty():
    with pytest.raises(NizkError):
        combined_public_key([])


def test_discrete_log_small_values():
    for m in (0, 1, 5, 37, 100):
        assert discrete_log(scalar_mult(m, GENERATOR), 100) == m
    assert discrete_log(INFINITY, 10) == 0


def test_discrete_log_out_of_range():
    with pytest.raises(NizkError):
        discrete_log(scalar_mult(50, GENERATOR), 10)


# ----------------------------------------------------------------------
# OR proofs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bit", [0, 1])
def test_bit_proof_roundtrip(bit, rng):
    kp = ServerKeyPair.generate(rng)
    ct, k = encrypt_bit(kp.public, bit, rng)
    proof = prove_bit(kp.public, ct, bit, k, rng)
    assert verify_bit(kp.public, ct, proof)


def test_bit_proof_rejects_large_plaintext(rng):
    """The attack Prio and the baseline both exist to stop: encrypting
    v = 5 instead of a bit.  A proof for 'bit' semantics cannot verify."""
    kp = ServerKeyPair.generate(rng)
    k = random_scalar(rng)
    c1 = scalar_mult(k, GENERATOR)
    c2 = scalar_mult(k, kp.public) + scalar_mult(5, GENERATOR)
    ct = ElGamalCiphertext(c1, c2)
    # Forge attempt: claim it's a 1 with the true randomness.
    proof = prove_bit(kp.public, ct, 1, k, rng)
    assert not verify_bit(kp.public, ct, proof)


def test_bit_proof_tamper_detected(rng):
    kp = ServerKeyPair.generate(rng)
    ct, k = encrypt_bit(kp.public, 1, rng)
    proof = prove_bit(kp.public, ct, 1, k, rng)
    import dataclasses

    bad = dataclasses.replace(proof, z0=(proof.z0 + 1))
    assert not verify_bit(kp.public, ct, bad)


def test_bit_proof_wrong_ciphertext(rng):
    kp = ServerKeyPair.generate(rng)
    ct1, k1 = encrypt_bit(kp.public, 1, rng)
    ct2, _ = encrypt_bit(kp.public, 1, rng)
    proof = prove_bit(kp.public, ct1, 1, k1, rng)
    assert not verify_bit(kp.public, ct2, proof)


def test_bit_proof_requires_bit(rng):
    kp = ServerKeyPair.generate(rng)
    ct, k = encrypt_bit(kp.public, 0, rng)
    with pytest.raises(NizkError):
        prove_bit(kp.public, ct, 2, k, rng)


# ----------------------------------------------------------------------
# DLEQ
# ----------------------------------------------------------------------


def test_dleq_roundtrip(rng):
    kp = ServerKeyPair.generate(rng)
    ct, _ = encrypt_bit(kp.public, 1, rng)
    share = partial_decrypt(kp.secret, ct)
    proof = prove_dleq(kp.secret, ct.c1, kp.public, share, rng)
    assert verify_dleq(ct.c1, kp.public, share, proof)


def test_dleq_rejects_fake_share(rng):
    """A server cannot claim a wrong decryption share — this is what
    keeps dishonest servers from corrupting the published total."""
    kp = ServerKeyPair.generate(rng)
    ct, _ = encrypt_bit(kp.public, 1, rng)
    fake_share = partial_decrypt(kp.secret, ct) + GENERATOR
    proof = prove_dleq(kp.secret, ct.c1, kp.public, fake_share, rng)
    assert not verify_dleq(ct.c1, kp.public, fake_share, proof)


# ----------------------------------------------------------------------
# End-to-end deployment
# ----------------------------------------------------------------------


def test_end_to_end_aggregation(rng):
    deployment = NizkDeployment.create(n_servers=3, length=4, rng=rng)
    vectors = [[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 1, 0]]
    for vec in vectors:
        submission = nizk_client_submit(deployment.combined_pub, vec, rng)
        assert deployment.submit(submission)
    totals = deployment.publish(max_total=len(vectors), rng=rng)
    assert totals == [2, 1, 3, 1]


def test_malicious_submission_rejected_end_to_end(rng):
    deployment = NizkDeployment.create(n_servers=2, length=2, rng=rng)
    good = nizk_client_submit(deployment.combined_pub, [1, 0], rng)
    assert deployment.submit(good)
    # Tamper: swap in an encryption of 5 with a junk proof.
    k = random_scalar(rng)
    evil_ct = ElGamalCiphertext(
        scalar_mult(k, GENERATOR),
        scalar_mult(k, deployment.combined_pub) + scalar_mult(5, GENERATOR),
    )
    evil = nizk_client_submit(deployment.combined_pub, [1, 0], rng)
    evil.ciphertexts[0] = evil_ct
    assert not deployment.submit(evil)
    totals = deployment.publish(max_total=2, rng=rng)
    assert totals == [1, 0]  # only the good submission counted


def test_publish_rejects_bad_decryption_share(rng):
    """A server that shifts one partial decryption, keeping its honest
    DLEQ proof, cannot move a published total: ``publish`` refuses."""
    deployment = NizkDeployment.create(n_servers=3, length=2, rng=rng)
    for vec in ([1, 0], [1, 1]):
        assert deployment.submit(
            nizk_client_submit(deployment.combined_pub, vec, rng)
        )
    cheat = deployment.servers[1]
    honest = cheat.decryption_shares

    def tampered(rng):
        shares = honest(rng)
        share, proof = shares[0]
        shares[0] = (share + GENERATOR, proof)
        return shares

    cheat.decryption_shares = tampered
    with pytest.raises(NizkError, match="server 1"):
        deployment.publish(max_total=2, rng=rng)
    cheat.decryption_shares = honest
    assert deployment.publish(max_total=2, rng=rng) == [2, 1]


def test_wrong_length_rejected(rng):
    deployment = NizkDeployment.create(n_servers=2, length=3, rng=rng)
    short = nizk_client_submit(deployment.combined_pub, [1], rng)
    assert not deployment.submit(short)


def test_deployment_needs_two_servers(rng):
    with pytest.raises(NizkError):
        NizkDeployment.create(n_servers=1, length=2, rng=rng)


def test_submission_size_accounting(rng):
    kp = ServerKeyPair.generate(rng)
    submission = nizk_client_submit(kp.public, [1, 0, 1], rng)
    assert submission.encoded_size() == 3 * UPLOAD_BYTES_PER_ELEMENT


def test_transfer_scales_linearly():
    small = nizk_server_transfer_bytes(16, 5)
    large = nizk_server_transfer_bytes(1024, 5)
    # Linear in L up to integer-division rounding.
    assert abs(large - small * 64) <= 64


# ----------------------------------------------------------------------
# Table 2's exponentiation counts
# ----------------------------------------------------------------------


def test_table2_exponentiation_counts_unchanged():
    """``benchmarks/bench_table2.py::table2_data`` at M = 32: the NIZK
    baseline's counts are a property of the protocol, not the ladder.
    A client pays 8 scalar mults per element (2 to encrypt, 6 for the
    OR-proof), a verifying server 8."""
    m = 32
    rng = random.Random(2)
    afe = VectorSumAfe(FIELD87, length=m, n_bits=1)
    bits = [rng.randrange(2) for _ in range(m)]
    reset_op_counter()
    build_proof(FIELD87, afe.valid_circuit(), afe.encode(bits), rng)
    assert scalar_mult_count() == 0
    deployment = NizkDeployment.create(n_servers=2, length=m, rng=rng)
    reset_op_counter()
    submission = nizk_client_submit(deployment.combined_pub, bits, rng)
    assert scalar_mult_count() == 256
    reset_op_counter()
    deployment.servers[0].process(submission)
    assert scalar_mult_count() == 256
