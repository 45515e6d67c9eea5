"""Adversarial tests for batched SNIP verification.

Batching must not weaken Prio's robustness guarantee: a malformed
submission hidden at a *random position* inside an otherwise-valid
batch must be rejected alone — every honest submission in the batch is
accepted, and the published aggregate equals the honest-only sum.
Exercised for three AFEs (integer sum, boolean vector sum, frequency
count), at both the SNIP layer (``verify_snip_batch``) and the full
deployment pipeline (``batch_size`` knob), on both backends.
"""

import random
from dataclasses import replace

import pytest

from repro.afe import FrequencyCountAfe, IntegerSumAfe, VectorSumAfe
from repro.field import FIELD87, use_numpy
from repro.protocol import PrioDeployment
from repro.snip import (
    ServerRandomness,
    VerificationContext,
    build_proof,
    prove_and_share,
    share_proof,
    verify_snip,
    verify_snip_batch,
)

BACKENDS = [True] + ([False] if use_numpy(None) else [])


def backend_id(force_pure):
    return "pure" if force_pure else "numpy"


@pytest.fixture
def rng():
    return random.Random(0x5EED5)


#: (afe factory, draw one honest client value)
AFE_CASES = [
    ("sum", lambda: IntegerSumAfe(FIELD87, 8),
     lambda rng: rng.randrange(256)),
    ("boolean", lambda: VectorSumAfe(FIELD87, 12, 1),
     lambda rng: [rng.randrange(2) for _ in range(12)]),
    ("frequency", lambda: FrequencyCountAfe(FIELD87, 6),
     lambda rng: rng.randrange(6)),
]


def _context(afe, epoch=0):
    circuit = afe.valid_circuit()
    challenge = ServerRandomness(b"batch-soundness").challenge(
        afe.field, circuit, epoch
    )
    return circuit, VerificationContext(afe.field, circuit, challenge)


CORRUPTIONS = ["x_share", "h_eval", "triple", "f0"]


def _corrupt_submission(sub, how, rng, field):
    """Tamper one server's slice of a shared submission in-place."""
    x_shares, proof_shares = sub
    server = rng.randrange(len(x_shares))
    p = field.modulus
    if how == "x_share":
        pos = rng.randrange(len(x_shares[server]))
        x_shares[server][pos] = (x_shares[server][pos] + 1) % p
    elif how == "h_eval":
        share = proof_shares[server]
        pos = rng.randrange(len(share.h_evals))
        share.h_evals[pos] = (share.h_evals[pos] + 1) % p
    elif how == "triple":
        proof_shares[server] = replace(
            proof_shares[server], c=(proof_shares[server].c + 1) % p
        )
    else:  # f0
        proof_shares[server] = replace(
            proof_shares[server], f0=(proof_shares[server].f0 + 1) % p
        )


@pytest.mark.parametrize("afe_name,mk_afe,mk_value", AFE_CASES,
                         ids=[c[0] for c in AFE_CASES])
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_malformed_submission_rejected_alone(
    afe_name, mk_afe, mk_value, force_pure, rng
):
    afe = mk_afe()
    circuit, ctx = _context(afe)
    batch = 12
    encodings = [afe.encode(mk_value(rng)) for _ in range(batch)]
    subs = [prove_and_share(FIELD87, circuit, x, 3, rng) for x in encodings]
    bad = rng.randrange(batch)
    how = CORRUPTIONS[rng.randrange(len(CORRUPTIONS))]
    _corrupt_submission(subs[bad], how, rng, FIELD87)

    outcomes = verify_snip_batch(ctx, subs, force_pure=force_pure)
    assert [o.accepted for o in outcomes] == [
        i != bad for i in range(batch)
    ], f"corruption {how} at {bad}"
    # and the batch decision matches scalar verification, submission
    # by submission
    scalar = [verify_snip(ctx, xs, ps) for xs, ps in subs]
    assert [o.accepted for o in outcomes] == [o.accepted for o in scalar]
    assert [o.sigma_total for o in outcomes] == \
        [o.sigma_total for o in scalar]
    assert [o.assertion_total for o in outcomes] == \
        [o.assertion_total for o in scalar]


@pytest.mark.parametrize("afe_name,mk_afe,mk_value", AFE_CASES,
                         ids=[c[0] for c in AFE_CASES])
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_deployment_batch_publishes_honest_only_aggregate(
    afe_name, mk_afe, mk_value, force_pure, rng
):
    """Full pipeline: a corrupted upload inside a batch must not leak
    into the published aggregate."""
    afe = mk_afe()
    deployment = PrioDeployment.create(
        afe, n_servers=3, batch_size=8, rng=rng,
        force_pure_backend=force_pure,
    )
    values = [mk_value(rng) for _ in range(16)]
    bad = rng.randrange(16)

    def corrupt(index, submission):
        if index != bad % deployment.batch_size:
            return
        # flip one byte of one server's share body (seed or explicit —
        # either way the reconstructed encoding changes)
        packet = submission.packets[-1]
        body = bytearray(packet.body)
        body[rng.randrange(len(body))] ^= 0x01
        submission.packets[-1] = replace(packet, body=bytes(body))

    results = []
    for start in range(0, 16, 8):
        submissions = deployment.client.prepare_submissions(
            values[start:start + 8]
        )
        if start <= bad < start + 8:
            for index, submission in enumerate(submissions):
                corrupt(index, submission)
        results.extend(deployment.deliver(submissions))

    assert results == [i != bad for i in range(16)]
    honest = [v for i, v in enumerate(values) if i != bad]
    aggregate = deployment.publish()
    if afe_name == "sum":
        assert aggregate == sum(honest)
    elif afe_name == "boolean":
        assert aggregate == [
            sum(v[i] for v in honest) for i in range(12)
        ]
    else:
        counts = [0] * 6
        for v in honest:
            counts[v] += 1
        assert aggregate == counts
    assert deployment.stats.n_accepted == 15
    assert deployment.stats.n_rejected == 1
    assert deployment.stats.n_submitted == 16


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_multiple_corruptions_each_rejected(force_pure, rng):
    """Several bad submissions scattered in one batch: each rejected,
    every honest one accepted."""
    afe = IntegerSumAfe(FIELD87, 6)
    circuit, ctx = _context(afe)
    batch = 16
    encodings = [afe.encode(rng.randrange(64)) for _ in range(batch)]
    subs = [prove_and_share(FIELD87, circuit, x, 2, rng) for x in encodings]
    bad = set(rng.sample(range(batch), 5))
    for idx in sorted(bad):
        how = CORRUPTIONS[rng.randrange(len(CORRUPTIONS))]
        _corrupt_submission(subs[idx], how, rng, FIELD87)
    outcomes = verify_snip_batch(ctx, subs, force_pure=force_pure)
    assert [o.accepted for o in outcomes] == [
        i not in bad for i in range(batch)
    ]


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_all_honest_batch_accepted(force_pure, rng):
    afe = FrequencyCountAfe(FIELD87, 4)
    circuit, ctx = _context(afe)
    encodings = [afe.encode(rng.randrange(4)) for _ in range(10)]
    subs = [prove_and_share(FIELD87, circuit, x, 4, rng) for x in encodings]
    assert all(
        o.accepted for o in verify_snip_batch(ctx, subs, force_pure)
    )


def test_invalid_encoding_rejected_via_batch_prover_bypass(rng):
    """A client that skips the validity check and proves a lie is still
    caught by batched verification."""
    from repro.sharing.additive import share_vector

    afe = IntegerSumAfe(FIELD87, 4)
    circuit, ctx = _context(afe)
    good = afe.encode(9)
    evil = afe.encode(9)
    evil[0] = 1_000_000  # claims to be a 4-bit value
    proofs = [
        build_proof(FIELD87, circuit, x, rng, check_valid=False)
        for x in (good, evil)
    ]
    subs = []
    for enc, proof in zip([good, evil], proofs):
        subs.append((
            share_vector(FIELD87, enc, 2, rng),
            share_proof(FIELD87, proof, 2, rng),
        ))
    outcomes = verify_snip_batch(ctx, subs)
    assert [o.accepted for o in outcomes] == [True, False]
