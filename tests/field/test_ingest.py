"""Randomized equivalence tests for the zero-copy ingest pipeline.

The fast path — wire bytes / PRG streams straight into limb planes
(``decode_bytes_batch`` / ``expand_seed_batch`` / the server's
``receive_wire_batch`` -> ``_ingest_batch``) — must be *bit-exact* with
the scalar path (``field.decode_vector`` / ``expand_seed`` /
``oracle.packet_share_vector``) across every shipped modulus, on both
backends, for SEED and EXPLICIT packets alike.  Adversarial bodies
(out-of-range elements, truncated/padded bodies) are planted at random
batch positions and must be rejected at exactly that position.
"""

import math
import random

import pytest

from repro.field import (
    FIELD64,
    FIELD87,
    FIELD265,
    FIELD_SMALL,
    FIELD_TINY,
    GF2,
    BatchVector,
    FieldError,
    assemble_rows,
    decode_bytes_batch,
    encode_bytes_batch,
    poly_mul,
    poly_mul_ntt,
    rejection_sample_batch,
    use_numpy,
)
from repro.field.batch import dot_batch_planes, numpy_available
from repro.protocol import PendingSubmission, PrioDeployment, PrioServer
from repro.protocol.wire import (
    MAX_N_ELEMENTS,
    ClientPacket,
    PacketKind,
    WireError,
    new_submission_id,
)
from repro.sharing import expand_seed, expand_seed_batch, new_seed, prg
from repro.sharing.prg import (
    SEED_SIZE,
    PrgStream,
    _candidates_for,
    _row_candidates,
)
from repro.snip import ServerRandomness

from oracle import packet_share_vector

ALL_FIELDS = [FIELD87, FIELD265, FIELD64, FIELD_SMALL, FIELD_TINY, GF2]

#: both backends — or just the pure one when numpy is absent / forced off
BACKENDS = [True] + ([None] if use_numpy(None) else [])

#: the vectorized sampler only exists on numpy; it needs numpy present,
#: not the default backend, so it runs under REPRO_FORCE_PURE=1 too
needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="rejection_sample_batch needs numpy"
)


def backend_id(force_pure):
    return "pure" if force_pure else "numpy"


@pytest.fixture
def rng():
    return random.Random(0x1A63E57)


def random_rows(field, n_rows, width, rng):
    rows = [
        [rng.randrange(field.modulus) for _ in range(width)]
        for _ in range(n_rows)
    ]
    for edge in (0, field.modulus - 1):
        if n_rows and width:
            rows[rng.randrange(n_rows)][rng.randrange(width)] = edge
    return rows


# ----------------------------------------------------------------------
# decode_bytes_batch / encode_bytes_batch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_decode_bytes_matches_scalar(field, force_pure, rng):
    for n_rows, width in ((1, 1), (4, 19), (7, 32)):
        rows = random_rows(field, n_rows, width, rng)
        bodies = [field.encode_vector(row) for row in rows]
        batch = decode_bytes_batch(field, bodies, force_pure)
        assert batch.to_ints() == [field.decode_vector(b) for b in bodies]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_encode_bytes_matches_scalar(field, force_pure, rng):
    rows = random_rows(field, 5, 23, rng)
    assert encode_bytes_batch(field, rows, force_pure) == [
        field.encode_vector(row) for row in rows
    ]
    # Round-trip through the plane representation.
    batch = decode_bytes_batch(
        field, [field.encode_vector(r) for r in rows], force_pure
    )
    assert encode_bytes_batch(field, batch) == [
        field.encode_vector(row) for row in rows
    ]


def edge_values(field):
    """Encodable values around ``p``: ``(in_range, out_of_range)``.

    ``p - 1``, ``p`` and ``p + 1``; for each limb below the top, values
    tying ``p`` on every limb above it and differing first there (the
    lower limbs set against the verdict: all ones below a smaller
    limb, zero below a larger one); and values carrying bits above
    ``field.bits``, which the PRG sampler masks off.
    """
    p = field.modulus
    width = 8 * field.encoded_size
    below, above = [p - 1], [p, p + 1]
    for i in range(-(-field.bits // 24) - 1):
        high = (p >> (24 * (i + 1))) << (24 * (i + 1))
        limb = (p >> (24 * i)) & 0xFFFFFF
        if limb:
            below.append(high | (limb - 1) << (24 * i) | ((1 << (24 * i)) - 1))
        if limb < 0xFFFFFF:
            above.append(high | (limb + 1) << (24 * i))
    if width > field.bits:
        above += [(1 << field.bits) | (p - 1), (1 << width) - 1]
    return below, [v for v in above if v < 1 << width]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_decode_bytes_rejects_out_of_range(field, force_pure, rng):
    """An out-of-range element at a random batch position is caught."""
    size = field.encoded_size
    if field.modulus == (1 << (8 * size)):
        pytest.skip("every encoding is in range for this field")
    rows = random_rows(field, 6, 11, rng)
    in_range, out_of_range = edge_values(field)

    def planted(cells):
        bodies = [bytearray(field.encode_vector(row)) for row in rows]
        expected = [list(row) for row in rows]
        for (r, c), value in cells.items():
            bodies[r][c * size : (c + 1) * size] = value.to_bytes(size, "big")
            expected[r][c] = value % field.modulus
        return [bytes(b) for b in bodies], expected

    # Every in-range edge value decodes as itself.
    bodies, expected = planted({
        (rng.randrange(6), rng.randrange(11)): v for v in in_range
    })
    assert decode_bytes_batch(field, bodies, force_pure).to_ints() == expected
    # The modulus itself is the smallest out-of-range encoding; every
    # other offender is caught at its position too.
    cases = [{(rng.randrange(6), rng.randrange(11)): v} for v in out_of_range]
    # Two offenders: the error names the row-major first, though the
    # other one sits in an earlier column.
    cases.append({(3, 2): out_of_range[-1], (1, 9): field.modulus})
    for cells in cases:
        bodies, expected = planted(cells)
        r, c = min(cells)
        with pytest.raises(FieldError, match=f"row {r}, element {c}"):
            decode_bytes_batch(field, bodies, force_pure)
        # The unchecked variant canonicalizes instead (v -> v mod p).
        relaxed = decode_bytes_batch(field, bodies, force_pure, check=False)
        assert relaxed.to_ints() == expected


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_decode_bytes_rejects_ragged_and_partial(force_pure):
    f = FIELD87
    good = f.encode_vector([1, 2, 3])
    with pytest.raises(FieldError):
        decode_bytes_batch(f, [good, good[:-1]], force_pure)
    with pytest.raises(FieldError):
        decode_bytes_batch(f, [good[:-1]], force_pure)


# ----------------------------------------------------------------------
# expand_seed_batch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_expand_seed_batch_matches_scalar(field, force_pure, rng):
    seeds = [new_seed(rng) for _ in range(7)]
    for length in (0, 1, 3, 15, 150, 1541):
        batch = expand_seed_batch(field, seeds, length, force_pure)
        assert batch.shape == (7, length)
        assert batch.to_ints() == [
            expand_seed(field, seed, length) for seed in seeds
        ]


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_expand_seed_batch_empty(force_pure):
    batch = expand_seed_batch(FIELD87, [], 9, force_pure)
    assert batch.shape == (0, 9)
    assert batch.to_ints() == []


def test_expand_seed_batch_rejects_bad_seed():
    with pytest.raises(FieldError):
        expand_seed_batch(FIELD87, [b"short"], 4)


def scalar_sample(field, row, length):
    """The scalar sampler's rule applied to one row of candidate bytes:
    ``(survivors, short)``, survivors zero-filled when short."""
    size = field.encoded_size
    mask = (1 << field.bits) - 1
    survivors = [
        v for v in (
            int.from_bytes(row[j : j + size], "big") & mask
            for j in range(0, len(row) - size + 1, size)
        )
        if v < field.modulus
    ][:length]
    if len(survivors) < length:
        return [0] * length, True
    return survivors, False


def candidate_blob(rows):
    """Equal candidate rows as the one blob ``rejection_sample_batch``
    reads: back to back, then the tail its limb windows read past."""
    return b"".join(rows) + bytes(3)


@needs_numpy
def test_rejection_sample_batch_rejects_short_blob():
    f = FIELD87
    rows = [bytes(range(22)), bytes(range(22, 44))]
    with pytest.raises(FieldError, match="candidate blob"):
        rejection_sample_batch(f, b"".join(rows), (2, 2), 1)
    with pytest.raises(FieldError, match="candidate blob"):
        rejection_sample_batch(f, candidate_blob(rows), (2, 3), 1)
    batch, short_rows = rejection_sample_batch(
        f, candidate_blob(rows), (2, 2), 2
    )
    assert batch.to_ints() == [scalar_sample(f, row, 2)[0] for row in rows]
    assert short_rows == []
    batch, short_rows = rejection_sample_batch(
        f, candidate_blob(rows), (2, 2), 3
    )
    assert batch.to_ints() == [[0] * 3] * 2
    assert short_rows == [0, 1]


@needs_numpy
@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_rejection_sample_batch_short_rows(field, rng):
    """Rows with too few survivors are reported exactly and zeroed;
    every other row matches the scalar sampler."""
    size = field.encoded_size
    length = 40
    # One row leads with planted edge windows: the sampler masks bits
    # above field.bits and keeps exactly the values below p.
    in_range, out_of_range = edge_values(field)
    edges = b"".join(
        v.to_bytes(size, "big") for v in in_range + out_of_range
    )
    n_cand = _row_candidates(field, length) + len(edges) // size
    seeds = [new_seed(rng) for _ in range(7)]
    rows = [PrgStream(seed).read(size * n_cand) for seed in seeds]
    rows[3] = (edges + rows[3])[: size * n_cand]

    def stream_then_rejects(row, n_kept):
        # 2^(8 size) - 1 masks to 2^bits - 1 >= p: always rejected
        reject = ((1 << (8 * size)) - 1).to_bytes(size, "big")
        return row[: size * n_kept] + reject * (n_cand - n_kept)

    rows[1] = stream_then_rejects(rows[1], 0)
    rows[4] = stream_then_rejects(rows[4], length - 1)
    rows[6] = stream_then_rejects(rows[6], length // 2)
    batch, short_rows = rejection_sample_batch(
        field, candidate_blob(rows), (7, n_cand), length
    )
    expected = [scalar_sample(field, row, length) for row in rows]
    assert short_rows == [r for r, (_, short) in enumerate(expected) if short]
    assert short_rows == [1, 4, 6]
    assert batch.to_ints() == [survivors for survivors, _ in expected]
    for r in (0, 2, 5):
        assert batch.row_ints(r) == expand_seed(field, seeds[r], length)
    # Every row short: nothing survives anywhere.
    batch, short_rows = rejection_sample_batch(
        field, candidate_blob([rows[1]] * 3), (3, n_cand), length
    )
    assert short_rows == [0, 1, 2]
    assert batch.to_ints() == [[0] * length] * 3


def short_row_probability(field, n_candidates, length):
    """Exact ``P(Binomial(n_candidates, a) < length)``: the chance that
    ``n_candidates`` uniform candidates keep fewer than ``length``."""
    size = 1 << field.bits
    log_accept = math.log(field.modulus / size)
    log_reject = math.log((size - field.modulus) / size)
    log_n = math.lgamma(n_candidates + 1)
    return sum(
        math.exp(
            log_n - math.lgamma(k + 1) - math.lgamma(n_candidates - k + 1)
            + k * log_accept + (n_candidates - k) * log_reject
        )
        for k in range(length)
    )


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_candidate_budget_rarely_falls_short(field):
    """The sampler's candidate budget leaves a row short (and so pays a
    scalar retry) with probability at most 1e-6, from one element up to
    ``highres``'s share length."""
    for length in (1, 12, 30, 1540, 12021):
        n_cand = _candidates_for(field, length)
        assert short_row_probability(field, n_cand, length) <= 1e-6


@needs_numpy
@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_expand_seed_batch_retries_short_rows(field, rng, monkeypatch):
    """With the candidate budget cut to the expected count, the seeded
    rows mix short and full ones, and the scalar retry still makes
    every row equal the scalar sampler."""
    from repro.field import batch as batch_module

    accept = prg._acceptance_rate(field)
    size = field.encoded_size
    unit = prg.BLOCK_SIZE // math.gcd(size, prg.BLOCK_SIZE)
    # F64 and GF2 reject one candidate in 2^32 or never, so none of
    # their rows falls short on its own: every other row gets an
    # always-rejected first window, and the budget equals the length.
    plant = accept > 1 - 1e-6
    # Budgets are whole stream blocks.  A row is full about half the
    # time: where rejections are rare at a budget equal to the length,
    # which a row fills with probability a^length ~ 1/2; where they are
    # common at the length a budget of 64 keeps on average.
    if plant:
        budget = length = 32
    elif accept > 0.99:
        budget = length = unit * round(math.log(2) / -math.log(accept) / unit)
    else:
        budget = 64
        length = round(budget * accept)
    assert budget % unit == 0
    seeds = [new_seed(rng) for _ in range(16)]
    expected = [expand_seed(field, seed, length) for seed in seeds]
    row_candidates = prg._row_candidates
    monkeypatch.setattr(
        prg, "_row_candidates",
        lambda f, n: budget if n == length else row_candidates(f, n),
    )
    sampled = batch_module.rejection_sample_batch
    seen = []

    def spy(f, blob, shape, n):
        if plant:
            reject = ((1 << (8 * size)) - 1).to_bytes(size, "big")
            row = shape[1] * size
            for r in range(0, shape[0], 2):
                blob[r * row : r * row + size] = list(reject)
        out = sampled(f, blob, shape, n)
        seen.append(out[1])
        return out

    monkeypatch.setattr(batch_module, "rejection_sample_batch", spy)
    assert expand_seed_batch(field, seeds, length, False).to_ints() == expected
    [short_rows] = seen
    assert 0 < len(short_rows) < len(seeds)


# ----------------------------------------------------------------------
# receive_wire_batch -> ingested share matrix (SEED + EXPLICIT dispatch)
# ----------------------------------------------------------------------


class _RawShareAfe:
    """Proof-free stand-in AFE: any ``k``-vector over ``field`` is a
    valid share, so the server ingests arbitrary packet bodies."""

    def __init__(self, field, k):
        self.field, self.k, self.k_prime = field, k, k

    def valid_circuit(self):
        return None


def _receive(field, packets, force_pure, width=None):
    """One server's receive of ``packets`` (encoded to wire bytes)."""
    width = packets[0].n_elements if width is None else width
    server = PrioServer(
        _RawShareAfe(field, width), 0, 2, ServerRandomness(b"ingest"),
        force_pure_backend=force_pure,
    )
    return server, server.receive_wire_batch([p.encode() for p in packets])


def _assert_ingests_like_scalar(field, server, packets, received, bad=()):
    """Every position outside ``bad`` was received, and the ingested
    share matrix is bit-exact with the scalar materialization."""
    kept = [i for i in range(len(packets)) if i not in bad]
    assert all(isinstance(received[i], PendingSubmission) for i in kept)
    matrix = server._ingest_batch([received[i] for i in kept])
    assert matrix.to_ints() == [
        packet_share_vector(packets[i], field) for i in kept
    ]
    # refused positions hold no id; received ones are replay-protected
    assert server._pending_ids == {packets[i].submission_id for i in kept}


def _random_packets(field, n_packets, width, rng, kinds=None):
    packets = []
    for i in range(n_packets):
        kind = (
            kinds[i]
            if kinds is not None
            else rng.choice([PacketKind.SEED, PacketKind.EXPLICIT])
        )
        if kind is PacketKind.SEED:
            body = new_seed(rng)
        else:
            body = field.encode_vector(
                [rng.randrange(field.modulus) for _ in range(width)]
            )
        packets.append(
            ClientPacket(
                submission_id=new_submission_id(rng),
                server_index=0,
                kind=kind,
                n_elements=width,
                body=body,
            )
        )
    return packets


@pytest.mark.parametrize(
    "field", [FIELD87, FIELD265, FIELD_SMALL, GF2], ids=lambda f: f.name
)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_ingested_matrix_matches_scalar(field, force_pure, rng):
    for kinds in (
        None,  # random mix at random positions
        [PacketKind.SEED] * 5,
        [PacketKind.EXPLICIT] * 5,
    ):
        packets = _random_packets(field, 5, 21, rng, kinds)
        server, received = _receive(field, packets, force_pure)
        _assert_ingests_like_scalar(field, server, packets, received)


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_receive_rejects_mixed_lengths_alone(force_pure, rng):
    packets = _random_packets(FIELD87, 3, 8, rng)
    packets += _random_packets(FIELD87, 1, 9, rng)
    server, received = _receive(FIELD87, packets, force_pure)
    assert isinstance(received[3], WireError)
    _assert_ingests_like_scalar(FIELD87, server, packets, received, bad={3})


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_receive_rejects_adversarial_bodies_alone(force_pure, rng):
    """Truncated or out-of-range bodies at a random batch position."""
    f = FIELD87
    packets = _random_packets(f, 6, 10, rng)
    pos = rng.randrange(6)
    # Truncated body (wrong size for its kind).
    mangled = list(packets)
    victim = mangled[pos]
    mangled[pos] = ClientPacket(
        submission_id=victim.submission_id,
        server_index=0,
        kind=victim.kind,
        n_elements=victim.n_elements,
        body=victim.body[:-1],
    )
    server, received = _receive(f, mangled, force_pure)
    assert isinstance(received[pos], WireError)
    _assert_ingests_like_scalar(f, server, mangled, received, bad={pos})
    # Out-of-range explicit element.
    mangled = list(packets)
    body = bytearray(f.encode_vector([0] * 10))
    body[: f.encoded_size] = f.modulus.to_bytes(f.encoded_size, "big")
    mangled[pos] = ClientPacket(
        submission_id=victim.submission_id,
        server_index=0,
        kind=PacketKind.EXPLICIT,
        n_elements=10,
        body=bytes(body),
    )
    # The refusal lands at the caller's position, even though EXPLICIT
    # bodies decode as a subset of a mixed batch.
    server, received = _receive(f, mangled, force_pure)
    assert isinstance(received[pos], FieldError)
    assert "element 0" in str(received[pos])
    _assert_ingests_like_scalar(f, server, mangled, received, bad={pos})


def test_receive_of_nothing_is_nothing():
    server, received = _receive(FIELD87, [], None, width=4)
    assert received == []
    assert not server._pending_ids


# ----------------------------------------------------------------------
# Wire-header hardening (satellite: bound n_elements, distinct SEED
# body errors)
# ----------------------------------------------------------------------


def test_decode_bounds_n_elements():
    # Encode refuses to frame an out-of-range n_elements (PR-6
    # hardening), so splice the oversized value into honest bytes:
    # the decoder must still bound what a hostile sender hand-crafts.
    packet = ClientPacket(
        submission_id=b"\x07" * 16,
        server_index=0,
        kind=PacketKind.SEED,
        n_elements=4,
        body=b"\x00" * SEED_SIZE,
    )
    data = bytearray(packet.encode())
    data[22:26] = (MAX_N_ELEMENTS + 1).to_bytes(4, "big")
    with pytest.raises(WireError, match="exceeds the maximum"):
        ClientPacket.decode(bytes(data), FIELD87)


def test_decode_distinguishes_seed_body_errors():
    short = ClientPacket(
        submission_id=b"\x07" * 16,
        server_index=0,
        kind=PacketKind.SEED,
        n_elements=4,
        body=b"\x00" * (SEED_SIZE - 1),
    )
    with pytest.raises(WireError, match="too short"):
        ClientPacket.decode(short.encode(), FIELD87)
    trailing = ClientPacket(
        submission_id=b"\x07" * 16,
        server_index=0,
        kind=PacketKind.SEED,
        n_elements=4,
        body=b"\x00" * (SEED_SIZE + 3),
    )
    with pytest.raises(WireError, match="trailing"):
        ClientPacket.decode(trailing.encode(), FIELD87)


# ----------------------------------------------------------------------
# assemble_rows / dot_batch_planes (the plane-resident verify path)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field", [FIELD87, FIELD_SMALL], ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_assemble_rows_mixes_sources(field, force_pure, rng):
    rows = random_rows(field, 6, 13, rng)
    batch = BatchVector.from_ints(field, rows[:3], force_pure)
    sources = [(batch, 1), rows[3], (batch, 0), rows[4], (batch, 2), rows[5]]
    assembled = assemble_rows(field, sources, force_pure)
    assert assembled.to_ints() == [
        rows[1], rows[3], rows[0], rows[4], rows[2], rows[5]
    ]


@pytest.mark.parametrize("field", [FIELD87, FIELD265], ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_dot_batch_multi_matches_dot_rows_multi(field, force_pure, rng):
    """Functionals over an assembled (not freshly encoded) share matrix
    — the verifier's real input — against scalar inner products."""
    rows = random_rows(field, 5, 40, rng)
    weights = random_rows(field, 3, 40, rng)
    first = BatchVector.from_ints(field, rows[:2], force_pure)
    batch = assemble_rows(
        field, [(first, 0), (first, 1), *rows[2:]], force_pure
    )
    assert dot_batch_planes(field, weights, batch).to_ints() == [
        [field.inner_product(w, row) for row in rows] for w in weights
    ]


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_batchvector_row_column_helpers(force_pure, rng):
    f = FIELD87
    rows = random_rows(f, 4, 9, rng)
    batch = BatchVector.from_ints(f, rows, force_pure)
    assert batch.row_ints(2) == rows[2]
    assert batch.column(5).to_ints() == [row[5] for row in rows]
    assert batch.take_rows([3, 1]).to_ints() == [rows[3], rows[1]]
    assert batch.slice_columns(4).to_ints() == [row[:4] for row in rows]
    sub = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    batch.set_row_ints(0, sub)
    assert batch.row_ints(0) == sub


# ----------------------------------------------------------------------
# poly_mul_ntt batch path
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "field", [FIELD87, FIELD64, FIELD_SMALL], ids=lambda f: f.name
)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_poly_mul_ntt_backends_agree(field, force_pure, rng):
    for deg_a, deg_b in ((0, 0), (3, 5), (17, 30)):
        a = [rng.randrange(field.modulus) for _ in range(deg_a + 1)]
        b = [rng.randrange(field.modulus) for _ in range(deg_b + 1)]
        assert poly_mul_ntt(field, a, b, force_pure) == poly_mul(field, a, b)


# ----------------------------------------------------------------------
# End-to-end: the plane pipeline decides exactly like the scalar one
# ----------------------------------------------------------------------


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("encrypt", [False, True], ids=["plain", "sealed"])
def test_pipeline_batched_ingest_equivalence(force_pure, encrypt):
    """Batched zero-copy delivery accepts/rejects exactly like the
    one-at-a-time path, including a corrupted submission planted at a
    random batch position, and produces the same aggregate."""
    from repro.afe import IntegerSumAfe

    rng = random.Random(0xF00D)
    afe = IntegerSumAfe(FIELD87, 4)
    values = [rng.randrange(16) for _ in range(9)]
    bad_pos = rng.randrange(len(values))

    def run(batch_size):
        deployment = PrioDeployment.create(
            afe, 3, seed=b"ingest-eq", batch_size=batch_size,
            force_pure_backend=force_pure, encrypt=encrypt,
            rng=random.Random(31),
        )
        def mutate(index, submission):
            if index != bad_pos or encrypt:
                return
            packet = submission.packets[-1]
            vec = FIELD87.decode_vector(packet.body)
            vec[0] = (vec[0] + 3) % FIELD87.modulus
            submission.packets[-1] = ClientPacket(
                submission_id=packet.submission_id,
                server_index=packet.server_index,
                kind=PacketKind.EXPLICIT,
                n_elements=packet.n_elements,
                body=FIELD87.encode_vector(vec),
            )
        submissions = deployment.client.prepare_submissions(values)
        for index, submission in enumerate(submissions):
            mutate(index, submission)
        return deployment.deliver(submissions), deployment.publish()

    batched_results, batched_total = run(batch_size=len(values))
    scalar_results, scalar_total = run(batch_size=1)
    assert batched_results == scalar_results
    assert batched_total == scalar_total
    if not encrypt:
        assert batched_results.count(False) == 1
        assert batched_results[bad_pos] is False


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_out_of_range_explicit_body_rejects_alone(force_pure):
    """An out-of-range wire element rejects its own submission only —
    the rest of the batch verifies and aggregates normally."""
    from repro.afe import IntegerSumAfe

    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(
        afe, 2, seed=b"oor", batch_size=4,
        force_pure_backend=force_pure, rng=random.Random(77),
    )

    def mutate(index, submission):
        if index != 2:
            return
        packet = submission.packets[-1]
        body = bytearray(packet.body)
        size = FIELD87.encoded_size
        body[:size] = FIELD87.modulus.to_bytes(size, "big")
        submission.packets[-1] = ClientPacket(
            submission_id=packet.submission_id,
            server_index=packet.server_index,
            kind=PacketKind.EXPLICIT,
            n_elements=packet.n_elements,
            body=bytes(body),
        )

    submissions = deployment.client.prepare_submissions([1, 2, 3, 4])
    for index, submission in enumerate(submissions):
        mutate(index, submission)
    assert deployment.deliver(submissions) == [True, True, False, True]
    assert deployment.publish() == 1 + 2 + 4
