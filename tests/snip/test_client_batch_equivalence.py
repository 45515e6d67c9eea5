"""Client↔server differential suite for the batched plane prover.

The batched client path (``PrioClient.prepare_submissions``
→ ``repro.snip.batch_prover`` → ``share_vectors_client_batch`` →
``encode_bytes_batch``) must be *bit-identical* to the scalar
``prepare_submission`` loop under a shared rng: same submission ids,
same seeds, same wire bytes, same ``upload_bytes`` — on every shipped
NTT-friendly modulus, on both backends, at every batch size, in both
the PRG-seed-compressed and the explicit share forms.  The same
order-preservation contract is pinned for the SNIP-level batch entry
points (``prove_and_share_many`` / ``prove_and_share_planes`` /
``share_proof_batch`` vs their scalar counterparts).

The adversarial half round-trips batched uploads through real
``PrioServer`` instances (the batch protocol: wire-bytes receive →
plane verification → accumulate) with exactly one corrupted plane row — an input
share, a proof share, or a raw wire byte — and asserts that exactly
that submission is rejected while the rest of the batch accepts and
aggregates to the right answer.

Small deterministic cases run in tier-1; the randomized batch-64 sweep
is ``slow``-marked (run with ``-m slow``).
"""

import hashlib
import random

import pytest

from repro.afe import (
    ApproxMaxAfe,
    BoolAndAfe,
    BoolOrAfe,
    CountMinSketchAfe,
    FrequencyCountAfe,
    GeometricMeanAfe,
    IntegerMeanAfe,
    IntegerSumAfe,
    LinRegAfe,
    MaxAfe,
    MinAfe,
    MostPopularStringAfe,
    ProductAfe,
    R2Afe,
    SetIntersectionAfe,
    SetUnionAfe,
    StddevAfe,
    VarianceAfe,
    VectorSumAfe,
)
from repro.field import FIELD64, FIELD87, FIELD265, FIELD_SMALL, use_numpy
from repro.protocol import (
    PrioClient,
    PrioDeployment,
    PrioServer,
    run_pipelined,
)
from repro.snip import (
    ServerRandomness,
    build_proof,
    prove_and_share,
    prove_and_share_many,
    prove_and_share_planes,
    prove_many,
    share_proof,
    share_proof_batch,
)
from repro.snip.proof import snip_domain_sizes
from repro.transport import TransportClient
from repro.workloads.scenarios import scenario_by_name

BACKENDS = [True] + ([False] if use_numpy(None) else [])
MODULI = [FIELD_SMALL, FIELD64, FIELD87, FIELD265]
MODULI_IDS = [f.name for f in MODULI]


def backend_id(force_pure):
    return "pure" if force_pure else "numpy"


def _afe_for(field):
    return VectorSumAfe(field, length=5, n_bits=1)


def _values(n, rng):
    return [[rng.randrange(2) for _ in range(5)] for _ in range(n)]


def _assert_same_submissions(scalar_subs, batched_subs):
    assert len(scalar_subs) == len(batched_subs)
    for scalar, batched in zip(scalar_subs, batched_subs):
        assert scalar.submission_id == batched.submission_id
        assert scalar.upload_bytes == batched.upload_bytes
        assert len(scalar.packets) == len(batched.packets)
        for p, q in zip(scalar.packets, batched.packets):
            assert p.encode() == q.encode()


# ----------------------------------------------------------------------
# Differential: batched client vs the scalar prepare_submission loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("compress", [True, False], ids=["seeds", "explicit"])
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("field", MODULI, ids=MODULI_IDS)
@pytest.mark.parametrize("batch", [1, 2, 7])
def test_batched_client_bit_identical(field, force_pure, compress, batch):
    afe = _afe_for(field)
    values = _values(batch, random.Random(0xC11E + batch))
    scalar_client = PrioClient(
        afe, 3, use_prg_compression=compress, rng=random.Random(1207)
    )
    batched_client = PrioClient(
        afe, 3, use_prg_compression=compress, rng=random.Random(1207)
    )
    scalar_subs = [scalar_client.prepare_submission(v) for v in values]
    batched_subs = batched_client.prepare_submissions(
        values, force_pure=force_pure
    )
    _assert_same_submissions(scalar_subs, batched_subs)
    # Both clients end at the same rng state: the draw sequences match.
    assert scalar_client.rng.getstate() == batched_client.rng.getstate()


@pytest.mark.slow
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("field", MODULI, ids=MODULI_IDS)
def test_batched_client_bit_identical_sweep(field, force_pure):
    """The randomized batch-64 sweep, both share forms."""
    afe = _afe_for(field)
    rng = random.Random(0x5EED)
    for compress in (True, False):
        seed = rng.randrange(1 << 30)
        values = _values(64, rng)
        scalar_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(seed)
        )
        batched_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(seed)
        )
        _assert_same_submissions(
            [scalar_client.prepare_submission(v) for v in values],
            batched_client.prepare_submissions(
                values, force_pure=force_pure
            ),
        )


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_batched_client_proof_free_afe(force_pure):
    """AFEs without a Valid circuit skip the SNIP on both paths alike."""
    afe = BoolOrAfe(lambda_bits=8)
    values = [True, False, True, True]
    for compress in (True, False):
        scalar_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(99)
        )
        batched_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(99)
        )
        _assert_same_submissions(
            [scalar_client.prepare_submission(v) for v in values],
            batched_client.prepare_submissions(
                values, force_pure=force_pure
            ),
        )


#: SHA-256 over the framed vec256 uploads below, taken on the commit
#: before the lazy-Montgomery NTT landed: kernel rewrites in the client
#: prover must not move a single upload byte.
VEC256_UPLOADS_SHA256 = (
    "157d7cd4c8fcaf5797549ec2c36bcdb35c80376284f8453d79b36c28546cf02e"
)


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_vec256_uploads_pinned_bytes(force_pure):
    afe = VectorSumAfe(FIELD87, 256, n_bits=1)
    rng = random.Random(0x5EC256)
    values = [[rng.randrange(2) for _ in range(256)] for _ in range(8)]
    client = PrioClient(afe, 2, rng=random.Random(0xF1DE))
    digest = hashlib.sha256()
    for sub in client.prepare_submissions(
        values, force_pure=force_pure
    ):
        digest.update(TransportClient.frame_submission(sub))
    assert digest.hexdigest() == VEC256_UPLOADS_SHA256


#: SHA-256 over the framed *sealed* uploads below, by batch size, taken
#: on the commit before the fixed-base tables and the wNAF ladder
#: replaced the 4-bit ladder: an EC kernel swap must not move a sealed
#: byte (same ephemeral scalars drawn, same points, same keystream).
SEALED_UPLOADS_SHA256 = {
    8: "571471331494de97d058ffc396d1a539da0bf4551e3acbb84dc2b1a8d1159cbc",
    1: "5cbdd4a35959ad1808a2707eb80c1474bf66acf95a37c4867c01dd5db61e71e2",
}


@pytest.mark.parametrize("n_values", sorted(SEALED_UPLOADS_SHA256))
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_sealed_uploads_pinned_bytes(force_pure, n_values):
    afe = VectorSumAfe(FIELD87, 8, n_bits=1)
    deployment = PrioDeployment.create(
        afe, n_servers=2, seed=b"sealed-pin-seed",
        rng=random.Random(0x5EA1ED), encrypt=True,
    )
    rng = random.Random(0xB0C5)
    values = [[rng.randrange(2) for _ in range(8)] for _ in range(n_values)]
    digest = hashlib.sha256()
    try:
        for sub in deployment.client.prepare_submissions(
            values, force_pure=force_pure
        ):
            digest.update(TransportClient.frame_submission(sub, sealed=True))
    finally:
        deployment.close()
    assert digest.hexdigest() == SEALED_UPLOADS_SHA256[n_values]


@pytest.mark.slow
def test_highres_sized_proofs_bit_identical_to_scalar_build_proof():
    """N = 4096 (the ``highres`` count-min scenario, 3822 mul gates):
    the fused plane sweep against per-proof scalar ``build_proof``."""
    scenario = scenario_by_name("highres")
    afe = scenario.afe
    field = afe.field
    circuit = afe.valid_circuit()
    assert snip_domain_sizes(circuit.n_mul_gates)[0] == 4096
    rng = random.Random(0x41CE5)
    xs = [afe.encode(scenario.generate(rng), rng) for _ in range(3)]
    seq_rng, batch_rng = random.Random(4096), random.Random(4096)
    sequential = [build_proof(field, circuit, x, seq_rng) for x in xs]
    batched = prove_many(field, circuit, xs, batch_rng)
    assert seq_rng.getstate() == batch_rng.getstate()
    for scalar_proof, batch_proof in zip(sequential, batched):
        assert scalar_proof.flatten() == batch_proof.flatten()


def test_batched_client_rejects_invalid_value_at_scalar_rng_point():
    """An invalid input raises from the same per-submission draw point."""
    afe = IntegerSumAfe(FIELD87, 4)
    client = PrioClient(afe, 3, rng=random.Random(5))
    good_then_bad = [3, 2**4]  # second value does not fit 4 bits
    with pytest.raises(Exception) as batched_exc:
        client.prepare_submissions(good_then_bad)
    scalar = PrioClient(afe, 3, rng=random.Random(5))
    with pytest.raises(Exception) as scalar_exc:
        [scalar.prepare_submission(v) for v in good_then_bad]
    assert type(batched_exc.value) is type(scalar_exc.value)
    assert client.rng.getstate() == scalar.rng.getstate()


# ----------------------------------------------------------------------
# SNIP-level order guarantee: prove_and_share_many / planes / proof batch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("field", MODULI, ids=MODULI_IDS)
def test_prove_and_share_many_matches_sequential(field, force_pure):
    """The documented guarantee: bit-identical to scalar prove_and_share.

    Earlier revisions drew all input sharings before any proof
    randomness (equivalent in distribution only); the batched path now
    replays scalar draw order exactly.
    """
    afe = _afe_for(field)
    circuit = afe.valid_circuit()
    rng = random.Random(21)
    xs = [afe.encode(v, rng) for v in _values(5, rng)]
    seq_rng, batch_rng = random.Random(77), random.Random(77)
    sequential = [
        prove_and_share(field, circuit, x, 3, seq_rng) for x in xs
    ]
    batched = prove_and_share_many(
        field, circuit, xs, 3, batch_rng, force_pure=force_pure
    )
    assert seq_rng.getstate() == batch_rng.getstate()
    for (sx, sp), (bx, bp) in zip(sequential, batched):
        assert sx == bx
        for scalar_share, batch_share in zip(sp, bp):
            assert scalar_share.flatten() == batch_share.flatten()


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_prove_and_share_planes_rows_match_scalar(force_pure):
    afe = _afe_for(FIELD87)
    circuit = afe.valid_circuit()
    rng = random.Random(31)
    xs = [afe.encode(v, rng) for v in _values(4, rng)]
    seq_rng, plane_rng = random.Random(13), random.Random(13)
    sequential = [
        prove_and_share(FIELD87, circuit, x, 3, seq_rng) for x in xs
    ]
    planes = prove_and_share_planes(
        FIELD87, circuit, xs, 3, plane_rng, force_pure=force_pure
    )
    for i, (sx, sp) in enumerate(sequential):
        for j in range(3):
            assert planes[j].row_ints(i) == sx[j] + sp[j].flatten()


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_share_proof_batch_matches_scalar(force_pure):
    afe = _afe_for(FIELD87)
    circuit = afe.valid_circuit()
    rng = random.Random(41)
    xs = [afe.encode(v, rng) for v in _values(3, rng)]
    proofs = prove_many(FIELD87, circuit, xs, random.Random(1))
    seq_rng, batch_rng = random.Random(2), random.Random(2)
    scalar_shares = [share_proof(FIELD87, p, 3, seq_rng) for p in proofs]
    batch_shares = share_proof_batch(
        FIELD87, proofs, 3, batch_rng, force_pure=force_pure
    )
    assert seq_rng.getstate() == batch_rng.getstate()
    for i in range(len(proofs)):
        for j in range(3):
            assert (
                batch_shares[j].row_ints(i) == scalar_shares[i][j].flatten()
            )


# ----------------------------------------------------------------------
# Adversarial round-trips: one corrupted plane row per batched upload
# ----------------------------------------------------------------------


def _servers(afe, n_servers=3, force_pure=None):
    randomness = ServerRandomness(b"client-batch-eq")
    return [
        PrioServer(
            afe, i, n_servers, randomness, force_pure_backend=force_pure
        )
        for i in range(n_servers)
    ]


def _run_batch(servers, submissions):
    """One batch through the batch protocol; per-submission results."""
    decisions, _ = run_pipelined(
        servers, submissions, batch_size=len(submissions), executor="inline"
    )
    return decisions


def _corrupt_element(field, packet, element, delta=1):
    """Re-encode one element of an EXPLICIT body shifted by ``delta``."""
    size = field.encoded_size
    body = bytearray(packet.body)
    start = element * size
    value = int.from_bytes(body[start:start + size], "big")
    body[start:start + size] = field.encode_element(
        (value + delta) % field.modulus
    )
    return packet.__class__(
        submission_id=packet.submission_id,
        server_index=packet.server_index,
        kind=packet.kind,
        n_elements=packet.n_elements,
        body=bytes(body),
    )


#: fixed per-region seeds: the corrupted position must be reproducible
#: across runs (str hash() is randomized per process)
REGION_SEEDS = {"input_share": 0xA11, "proof_share": 0xB22, "seed_row": 0xC33}


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize(
    "region", ["input_share", "proof_share", "seed_row"]
)
def test_one_corrupted_row_rejects_alone(force_pure, region):
    """Corrupt one plane row of a batched upload; only it must fall."""
    rng = random.Random(REGION_SEEDS[region])
    afe = _afe_for(FIELD87)
    client = PrioClient(afe, 3, rng=random.Random(61))
    values = _values(6, rng)
    submissions = client.prepare_submissions(
        values, force_pure=force_pure
    )
    bad = rng.randrange(len(submissions))
    sub = submissions[bad]
    if region == "input_share":
        # Shift an input-share element in the explicit (last) packet.
        sub.packets[-1] = _corrupt_element(
            FIELD87, sub.packets[-1], rng.randrange(afe.k)
        )
    elif region == "proof_share":
        # Shift a proof-share element (an h evaluation) instead.
        sub.packets[-1] = _corrupt_element(
            FIELD87, sub.packets[-1],
            afe.k + 2 + rng.randrange(8),
        )
    else:
        # Replace one SEED packet: that server's whole row goes wrong.
        seed_packet = sub.packets[0]
        sub.packets[0] = seed_packet.__class__(
            submission_id=seed_packet.submission_id,
            server_index=seed_packet.server_index,
            kind=seed_packet.kind,
            n_elements=seed_packet.n_elements,
            body=bytes(16 - len(b"x")) + b"x",
        )
    servers = _servers(afe, force_pure=force_pure)
    results = _run_batch(servers, submissions)
    assert results == [pos != bad for pos in range(len(submissions))]
    sigma = FIELD87.vec_sum([server.publish() for server in servers])
    expected = [
        sum(v[i] for pos, v in enumerate(values) if pos != bad)
        for i in range(afe.k_prime)
    ]
    assert afe.decode(sigma, servers[0].n_accepted) == expected


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_one_corrupted_wire_byte_rejects_at_receive(force_pure):
    """An out-of-range wire element evicts only its submission, at
    receive time (the fused receive sweep's offender isolation)."""
    afe = _afe_for(FIELD87)
    client = PrioClient(afe, 3, rng=random.Random(71))
    rng = random.Random(72)
    values = _values(5, rng)
    submissions = client.prepare_submissions(
        values, force_pure=force_pure
    )
    bad = rng.randrange(len(submissions))
    packet = submissions[bad].packets[-1]
    size = FIELD87.encoded_size
    element = rng.randrange(packet.n_elements)
    body = bytearray(packet.body)
    body[element * size:(element + 1) * size] = b"\xff" * size  # >= p
    submissions[bad].packets[-1] = packet.__class__(
        submission_id=packet.submission_id,
        server_index=packet.server_index,
        kind=packet.kind,
        n_elements=packet.n_elements,
        body=bytes(body),
    )
    servers = _servers(afe, force_pure=force_pure)
    # The corrupted server's receive rejects exactly that packet.
    outs = servers[-1].receive_wire_batch(
        [sub.packets[-1].encode() for sub in submissions]
    )
    assert [isinstance(o, Exception) for o in outs] == [
        pos == bad for pos in range(len(submissions))
    ]
    # And the full round-trip still accepts + aggregates the rest.
    fresh = _servers(afe, force_pure=force_pure)
    results = _run_batch(fresh, submissions)
    assert results == [pos != bad for pos in range(len(submissions))]
    sigma = FIELD87.vec_sum([server.publish() for server in fresh])
    expected = [
        sum(v[i] for pos, v in enumerate(values) if pos != bad)
        for i in range(afe.k_prime)
    ]
    assert afe.decode(sigma, fresh[0].n_accepted) == expected


# ----------------------------------------------------------------------
# upload_bytes property: reported == actual encoded length, every AFE
# ----------------------------------------------------------------------

AFE_CASES = [
    (BoolAndAfe(lambda_bits=8), [True, False, True]),
    (BoolOrAfe(lambda_bits=8), [False, True, False]),
    (FrequencyCountAfe(FIELD87, 12), [7, 0, 11]),
    (SetUnionAfe(universe_size=6, lambda_bits=8), [{1, 2}, {0}, set()]),
    (
        SetIntersectionAfe(universe_size=6, lambda_bits=8),
        [{1, 2}, {2, 3}, {2}],
    ),
    (MinAfe(domain_size=8, lambda_bits=8), [3, 7, 2]),
    (MaxAfe(domain_size=8, lambda_bits=8), [3, 7, 2]),
    (
        ApproxMaxAfe(domain_size=1 << 10, factor=2.0, lambda_bits=8),
        [100, 5, 800],
    ),
    (MostPopularStringAfe(FIELD87, 16), [0xCAFE, 0xBEEF, 0xCAFE]),
    (LinRegAfe(FIELD87, dimension=2, n_bits=8), [([12, 34], 200)] * 2),
    (R2Afe(FIELD87, [1, 2, 1], n_bits=8), [([10, 20], 55)] * 2),
    (
        CountMinSketchAfe(FIELD87, epsilon=1 / 4, delta=0.1),
        ["example.org", "example.com"],
    ),
    (GeometricMeanAfe(FIELD87, n_bits=16), [2.0, 4.0]),
    (VectorSumAfe(FIELD87, length=5, n_bits=2), [[1, 2, 3, 0, 1]] * 2),
    (IntegerMeanAfe(FIELD87, 8), [100, 3]),
    (IntegerSumAfe(FIELD87, 4), [5, 11]),
    (ProductAfe(FIELD87, n_bits=16), [2.0, 3.0]),
    (StddevAfe(FIELD87, 8), [99, 4]),
    (VarianceAfe(FIELD87, 8), [99, 4]),
]


@pytest.mark.parametrize(
    "afe,values", AFE_CASES, ids=[a.name for a, _ in AFE_CASES]
)
def test_upload_bytes_matches_encoded_length_every_afe(afe, values):
    """Figure 6's overhead accounting: the reported client upload cost
    must equal the bytes actually on the wire, for every AFE, on both
    the batched and the scalar framer, in both share forms."""
    for compress in (True, False):
        batched_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(83)
        )
        scalar_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(83)
        )
        batched = batched_client.prepare_submissions(values)
        scalar = [scalar_client.prepare_submission(v) for v in values]
        for sub, ref in zip(batched, scalar):
            actual = sum(len(p.encode()) for p in sub.packets)
            assert sub.upload_bytes == actual
            assert ref.upload_bytes == actual
            # Every packet's claimed element count matches its body.
            for packet in sub.packets:
                if packet.kind.name == "EXPLICIT":
                    assert (
                        len(packet.body)
                        == packet.n_elements * afe.field.encoded_size
                    )
