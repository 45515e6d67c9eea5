"""Client↔server differential suite for the batched plane prover.

The batched client path (``PrioClient.prepare_submissions``
→ ``repro.snip.batch_prover`` → ``share_vectors_client_batch`` →
``encode_bytes_batch``) must be *bit-identical* to the scalar client
oracle (``oracle.scalar_prepare_submission``) looped under a shared
rng: same submission ids, same seeds, same wire bytes, same
``upload_bytes`` — on every shipped NTT-friendly modulus, on both
backends, at every batch size, in both the PRG-seed-compressed and the
explicit share forms.

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
import itertools
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
from repro.field import (
    FIELD64,
    FIELD87,
    FIELD265,
    FIELD_SMALL,
    PrimeField,
    use_numpy,
)
from repro.protocol import (
    PrioClient,
    PrioDeployment,
    PrioServer,
)
from repro.protocol import client as client_module
from repro.sharing import prg
from repro.snip import ServerRandomness, SnipError
from repro.snip.proof import snip_domain_sizes
from repro.transport import TransportClient
from repro.workloads.scenarios import scenario_by_name

from oracle import scalar_prepare_submission
from oracle.aes import shake_stream

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
# Differential: batched client vs the scalar client oracle loop
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
    scalar_subs = [
        scalar_prepare_submission(scalar_client, v) for v in values
    ]
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
            [scalar_prepare_submission(scalar_client, v) for v in values],
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
            [scalar_prepare_submission(scalar_client, v) for v in values],
            batched_client.prepare_submissions(
                values, force_pure=force_pure
            ),
        )


#: The 87-bit modulus ``FIELD87`` had before it moved just below 2^87.
#: The digests first pinned on it stay, byte for byte, so the old pins
#: keep checking the kernels.
LEGACY_F87 = PrimeField(
    (1 << 86) + (1 << 35) + 1, two_adicity=30, generator=5, name="F87-legacy"
)


def _pinned_cases(*axes):
    """``(force_pure, *axes, field)`` over both backends and both 87-bit
    fields.  Ids add ``F87`` on ``FIELD87`` only, so the ``LEGACY_F87``
    pins keep the ids they had before ``FIELD87`` moved."""
    return [
        pytest.param(
            force_pure, *combo, field,
            id="-".join(
                [backend_id(force_pure), *map(str, combo)]
                + ([field.name] if field is FIELD87 else [])
            ),
        )
        for field in (LEGACY_F87, FIELD87)
        for force_pure in BACKENDS
        for combo in itertools.product(*axes)
    ]


#: SHA-256 over the framed vec256 uploads below, by field, on the
#: SHAKE-256 seed stream that preceded fixed-key AES.  The
#: ``LEGACY_F87`` digest was taken on the commit before the
#: lazy-Montgomery NTT landed: kernel rewrites in the client prover must
#: not move a single upload byte.  The ``FIELD87`` digest was taken on
#: the tree before ``FIELD87`` changed, with only that definition
#: swapped, so nothing else moved a byte.
SHAKE_VEC256_UPLOADS_SHA256 = {
    LEGACY_F87:
        "157d7cd4c8fcaf5797549ec2c36bcdb35c80376284f8453d79b36c28546cf02e",
    FIELD87:
        "4aff0672b6573d452b783d3f042e0e623caab6e88e93f8d483fa279671a2275b",
}

#: The same uploads on the fixed-key AES-128 seed stream.  Re-pinned
#: when the stream changed; :func:`test_vec256_uploads_on_shake_stream`
#: shows the stream was the only thing that moved.
VEC256_UPLOADS_SHA256 = {
    LEGACY_F87:
        "4fe886b9491dbb709a139dfe5e40c228ee6f833ea13cb17978761c9edebc28dd",
    FIELD87:
        "f3fd8b233eef8a18341d506d3df510945b9e5cddf78f71176c390cd88f9881f4",
}


def _vec256_digest(force_pure, field):
    afe = VectorSumAfe(field, 256, n_bits=1)
    rng = random.Random(0x5EC256)
    values = [[rng.randrange(2) for _ in range(256)] for _ in range(8)]
    client = PrioClient(afe, 2, rng=random.Random(0xF1DE))
    digest = hashlib.sha256()
    for sub in client.prepare_submissions(
        values, force_pure=force_pure
    ):
        digest.update(TransportClient.frame_submission(sub))
    return digest.hexdigest()


@pytest.mark.parametrize("force_pure, field", _pinned_cases())
def test_vec256_uploads_pinned_bytes(force_pure, field):
    assert _vec256_digest(force_pure, field) == VEC256_UPLOADS_SHA256[field]


#: SHA-256 over the framed *sealed* uploads below, by batch size and
#: field, on the SHAKE-256 seed stream.  The ``LEGACY_F87`` digests were
#: taken on the commit before the fixed-base tables and the wNAF ladder
#: replaced the 4-bit ladder: an EC kernel swap must not move a sealed
#: byte (same ephemeral scalars drawn, same points, same keystream).
#: The ``FIELD87`` digests were taken as for the vec256 pin.
SHAKE_SEALED_UPLOADS_SHA256 = {
    8: {
        LEGACY_F87:
            "571471331494de97d058ffc396d1a539da0bf4551e3acbb84dc2b1a8d1159cbc",
        FIELD87:
            "fec8a89454bcbe296b0e1f97c8e9cba8d1da398d6d115ba37ca637a81139a49a",
    },
    1: {
        LEGACY_F87:
            "5cbdd4a35959ad1808a2707eb80c1474bf66acf95a37c4867c01dd5db61e71e2",
        FIELD87:
            "40edaa9451fa47f2282486521b087668357d0adc0a3ad7755042613c9f3b7c14",
    },
}

#: The same sealed uploads on the fixed-key AES-128 seed stream.  The
#: box bytes around the shares are unchanged; only the shares moved.
SEALED_UPLOADS_SHA256 = {
    8: {
        LEGACY_F87:
            "291ad174dc47a99ee9782d0361a5cd1518ccf4acc0775819ae57a2f665a38506",
        FIELD87:
            "f02fc3040f9014a0efd0361296950f5281d712e0da2be0de8c97131859f41cfe",
    },
    1: {
        LEGACY_F87:
            "5a9ceeb9437c9c3580b0844a666c24ddde31e4cb7d48097fdfd1414741004a67",
        FIELD87:
            "b31cd91f829991939f16819fd262674a4731349ac02fab3eb8cef2bc09831a99",
    },
}


def _sealed_digest(force_pure, n_values, field):
    afe = VectorSumAfe(field, 8, n_bits=1)
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
    return digest.hexdigest()


@pytest.mark.parametrize(
    "force_pure, n_values, field",
    _pinned_cases(sorted(SEALED_UPLOADS_SHA256)),
)
def test_sealed_uploads_pinned_bytes(force_pure, n_values, field):
    assert (
        _sealed_digest(force_pure, n_values, field)
        == SEALED_UPLOADS_SHA256[n_values][field]
    )


@pytest.fixture
def shake_seed_stream(monkeypatch):
    """Seed expansion on the retired SHAKE-256 stream: both keystream
    seams (the scalar reader and the batch blob) return its bytes."""

    def keystream(seed, first_block, n_blocks, domain):
        data = shake_stream(seed, domain, 16 * (first_block + n_blocks))
        return data[16 * first_block :]

    def keystream_rows(seeds, n_blocks, domain):
        rows = [shake_stream(seed, domain, 16 * n_blocks) for seed in seeds]
        return b"".join(rows) + bytes(15)

    monkeypatch.setattr(prg, "_keystream", keystream)
    monkeypatch.setattr(prg, "_keystream_rows", keystream_rows)


@pytest.mark.parametrize("force_pure, field", _pinned_cases())
def test_vec256_uploads_on_shake_stream(
    shake_seed_stream, force_pure, field
):
    """On the SHAKE-256 stream the current client reproduces the old
    pins byte for byte: the re-pin moved PRG output and nothing else."""
    assert (
        _vec256_digest(force_pure, field)
        == SHAKE_VEC256_UPLOADS_SHA256[field]
    )


@pytest.mark.parametrize(
    "force_pure, n_values, field",
    _pinned_cases(sorted(SHAKE_SEALED_UPLOADS_SHA256)),
)
def test_sealed_uploads_on_shake_stream(
    shake_seed_stream, force_pure, n_values, field
):
    assert (
        _sealed_digest(force_pure, n_values, field)
        == SHAKE_SEALED_UPLOADS_SHA256[n_values][field]
    )


@pytest.mark.slow
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_highres_sized_proofs_bit_identical_to_scalar_build_proof(
    force_pure,
):
    """N = 4096 (the ``highres`` count-min scenario, 3822 mul gates):
    the batched client's fused plane sweep against the scalar client,
    whose proofs come from per-value ``build_proof``."""
    scenario = scenario_by_name("highres")
    afe = scenario.afe
    assert snip_domain_sizes(afe.valid_circuit().n_mul_gates)[0] == 4096
    rng = random.Random(0x41CE5)
    values = [scenario.generate(rng) for _ in range(3)]
    scalar_client = PrioClient(afe, 2, rng=random.Random(4096))
    batched_client = PrioClient(afe, 2, rng=random.Random(4096))
    _assert_same_submissions(
        [scalar_prepare_submission(scalar_client, v) for v in values],
        batched_client.prepare_submissions(values, force_pure=force_pure),
    )
    assert scalar_client.rng.getstate() == batched_client.rng.getstate()


def test_batched_client_rejects_invalid_value_at_scalar_rng_point():
    """An invalid input raises from the same per-submission draw point."""
    afe = IntegerSumAfe(FIELD87, 4)
    client = PrioClient(afe, 3, rng=random.Random(5))
    good_then_bad = [3, 2**4]  # second value does not fit 4 bits
    with pytest.raises(Exception) as batched_exc:
        client.prepare_submissions(good_then_bad)
    scalar = PrioClient(afe, 3, rng=random.Random(5))
    with pytest.raises(Exception) as scalar_exc:
        [scalar_prepare_submission(scalar, v) for v in good_then_bad]
    assert type(batched_exc.value) is type(scalar_exc.value)
    assert client.rng.getstate() == scalar.rng.getstate()


# ----------------------------------------------------------------------
# Row blocks: phase 2 runs in blocks of BLOCK_ELEMENTS // row width
# ----------------------------------------------------------------------


def _force_block_rows(monkeypatch, afe, rows):
    """Shrink the client's element budget to ``rows`` values per block;
    returns the row width in elements."""
    n_total = PrioClient(afe, 2).submission_elements()
    monkeypatch.setattr(client_module, "BLOCK_ELEMENTS", rows * n_total)
    return n_total


@pytest.fixture
def one_value_blocks(monkeypatch):
    """Every ``prepare_submissions`` call runs in blocks of one value."""
    monkeypatch.setattr(client_module, "BLOCK_ELEMENTS", 1)


@pytest.mark.parametrize("compress", [True, False], ids=["seeds", "explicit"])
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize(
    "rows, sizes", [(1, [1] * 5), (2, [1, 2, 2]), (5, [5])],
    ids=["blocks-of-1", "blocks-of-2", "one-block"],
)
def test_block_boundaries_invisible_in_bytes(
    monkeypatch, rows, sizes, force_pure, compress
):
    afe = _afe_for(FIELD87)
    n_total = _force_block_rows(monkeypatch, afe, rows)
    assert [
        s.stop - s.start for s in client_module._row_blocks(5, n_total)
    ] == sizes
    values = _values(5, random.Random(0xB10C))
    scalar_client = PrioClient(
        afe, 3, use_prg_compression=compress, rng=random.Random(1234)
    )
    batched_client = PrioClient(
        afe, 3, use_prg_compression=compress, rng=random.Random(1234)
    )
    _assert_same_submissions(
        [scalar_prepare_submission(scalar_client, v) for v in values],
        batched_client.prepare_submissions(values, force_pure=force_pure),
    )
    assert scalar_client.rng.getstate() == batched_client.rng.getstate()


@pytest.mark.parametrize("force_pure, field", _pinned_cases())
def test_vec256_uploads_pinned_bytes_in_one_value_blocks(
    one_value_blocks, force_pure, field
):
    test_vec256_uploads_pinned_bytes(force_pure, field)


@pytest.mark.parametrize(
    "force_pure, n_values, field",
    _pinned_cases(sorted(SEALED_UPLOADS_SHA256)),
)
def test_sealed_uploads_pinned_bytes_in_one_value_blocks(
    one_value_blocks, force_pure, n_values, field
):
    test_sealed_uploads_pinned_bytes(force_pure, n_values, field)


class _LastBitLies(VectorSumAfe):
    """Encodes the all-ones vector with a last "bit" of 2: the encoding
    succeeds and Valid fails, so the refusal comes from phase 2."""

    def encode(self, values, rng=None):
        out = super().encode(values, rng)
        if all(values):
            out[-1] = 2
        return out


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_refusal_in_last_block_matches_unblocked(monkeypatch, force_pure):
    """A value failing Valid in the last block refuses the whole call,
    and leaves the rng where the unblocked call leaves it: phase 1 has
    drawn for every value before any block runs."""
    afe = _LastBitLies(FIELD87, length=5, n_bits=1)
    values = _values(4, random.Random(0xBAD)) + [[1] * 5]
    states = []
    for rows in (1, len(values)):
        _force_block_rows(monkeypatch, afe, rows)
        client = PrioClient(afe, 3, rng=random.Random(77))
        with pytest.raises(SnipError):
            client.prepare_submissions(values, force_pure=force_pure)
        states.append(client.rng.getstate())
    assert states[0] == states[1]


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
    afe = servers[0].afe
    with PrioDeployment(
        afe, servers, PrioClient(afe, len(servers)), encrypt=False,
        batch_size=len(submissions), executor="inline",
    ) as deployment:
        return deployment.deliver(submissions)


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
    the batched client and the scalar oracle, in both share forms."""
    for compress in (True, False):
        batched_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(83)
        )
        scalar_client = PrioClient(
            afe, 3, use_prg_compression=compress, rng=random.Random(83)
        )
        batched = batched_client.prepare_submissions(values)
        scalar = [
            scalar_prepare_submission(scalar_client, v) for v in values
        ]
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
