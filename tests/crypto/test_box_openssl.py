"""The OpenSSL box seal and open against the pure oracle.

:func:`repro.crypto.box.seal` and :func:`repro.crypto.box.open_box`
run their scalar products on OpenSSL.  ``tests/oracle/box.py`` rebuilds
both on the pure P-256 ladder: a seeded seal must give the same bytes
or fail with the same :class:`CryptoError` both ways, and every box of
a seeded sealed batch, honest or tampered, must open to the same
plaintext or fail with the same :class:`CryptoError` both ways.
"""

import random

import pytest

pytest.importorskip("cryptography")

from oracle import box as oracle_box  # noqa: E402
from repro.afe import IntegerSumAfe  # noqa: E402
from repro.crypto import BoxKeyPair, CryptoError, box  # noqa: E402
from repro.ec import GENERATOR, INFINITY, Point  # noqa: E402
from repro.ec import reset_op_counter  # noqa: E402
from repro.ec import scalar_mult, scalar_mult_count  # noqa: E402
from repro.ec import p256  # noqa: E402
from repro.field import FIELD87  # noqa: E402
from repro.protocol import PrioDeployment  # noqa: E402
from repro.protocol.wire import ENVELOPE_SIZE  # noqa: E402

N_SERVERS = 2


@pytest.fixture(scope="module")
def batch():
    """``(key pairs, [(server, envelope, box)])`` for a seeded batch of
    sealed uploads."""
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), N_SERVERS, seed=b"box-openssl",
        rng=random.Random(0xB0C5), encrypt=True,
    )
    try:
        submissions = deployment.client.prepare_submissions(
            [v % 16 for v in range(24)]
        )
        keypairs = [s.box_keypair for s in deployment.servers]
    finally:
        deployment.close()
    boxes = [
        (s, data[:ENVELOPE_SIZE], data[ENVELOPE_SIZE:])
        for sub in submissions
        for s, data in enumerate(sub.sealed_packets)
    ]
    return keypairs, boxes


def _flip(data, index):
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def _with_point(box_bytes, prefix, x):
    return bytes([prefix]) + x.to_bytes(32, "big") + box_bytes[33:]


def _abscissa(start, on_curve):
    """The smallest x >= ``start`` that is (or is not) the x of a
    curve point."""
    x = start
    while True:
        rhs = (x * x * x + p256.A * x + p256.B) % p256.P
        if (pow(rhs, (p256.P - 1) // 2, p256.P) <= 1) == on_curve:
            return x
        x += 1


def _tampered(keypairs, boxes):
    """``(name, keypair, box, associated data)`` per tampered class."""
    server, envelope, honest = boxes[0]
    keypair = keypairs[server]
    # p + x for an abscissa x: a kernel that reduced x before checking
    # its range would find a curve point
    beyond_p = p256.P + _abscissa(0, on_curve=True)
    off_curve = _abscissa(1, on_curve=False)
    yield "ciphertext", keypair, _flip(honest, 40), envelope
    yield "tag", keypair, _flip(honest, len(honest) - 1), envelope
    yield "associated data", keypair, honest, _flip(envelope, 5)
    yield "x >= p", keypair, _with_point(honest, 0x02, beyond_p), envelope
    yield "off curve", keypair, _with_point(honest, 0x03, off_curve), envelope
    for prefix in (0x00, 0x04, 0xFF):
        tampered = bytes([prefix]) + honest[1:]
        yield f"prefix {prefix:#04x}", keypair, tampered, envelope
    yield "other key", keypairs[1 - server], honest, envelope
    yield "too short", keypair, honest[:48], envelope


def _outcome(open_box, keypair, box_bytes, associated_data):
    try:
        return open_box(keypair, box_bytes, associated_data)
    except CryptoError as exc:
        return (type(exc), str(exc))


def _both_ways(cases):
    fast = [_outcome(box.open_box, *case) for case in cases]
    pure = [_outcome(oracle_box.open_box, *case) for case in cases]
    return fast, pure


def test_the_batch_exercises_both_parities(batch):
    keypairs, boxes = batch
    parities = {
        scalar_mult(keypairs[s].secret, Point.decode(b[:33])).y & 1
        for s, _, b in boxes
    }
    assert parities == {0, 1}


def test_honest_boxes_open_identically(batch):
    keypairs, boxes = batch
    cases = [(keypairs[s], b, env) for s, env, b in boxes]
    reset_op_counter()
    fast, pure = _both_ways(cases)
    # the oracle pays one ladder per box; OpenSSL none
    assert scalar_mult_count() == len(cases)
    assert fast == pure
    assert all(isinstance(p, bytes) for p in fast)


def test_tampered_boxes_fail_identically(batch):
    keypairs, boxes = batch
    cases = list(_tampered(keypairs, boxes))
    fast, pure = _both_ways([case[1:] for case in cases])
    for (name, *_), got, want in zip(cases, fast, pure):
        assert got == want, name
        assert isinstance(got, tuple), name


def test_both_parities_verifying_is_refused(batch, monkeypatch):
    # only a forged tag verifies under both prefixes' keys; a forced
    # "verify" makes every box look like one, and the open refuses it
    keypairs, boxes = batch
    cases = [(keypairs[s], b, env) for s, env, b in boxes]
    monkeypatch.setattr(box, "mac_verify", lambda *args: True)
    for case in cases:
        with pytest.raises(CryptoError, match="authentication failed"):
            box.open_box(*case)


def test_malformed_point_errors_hold_no_frames():
    rng = random.Random(3)
    keypair = BoxKeyPair.generate(rng)
    sealed = b"\x04" + box.seal(keypair.public, b"payload", rng)[1:]
    with pytest.raises(CryptoError, match="ephemeral point") as info:
        box.open_box(keypair, sealed)
    assert info.value.__cause__.__traceback__ is None


# ----------------------------------------------------------------------
# Seal
# ----------------------------------------------------------------------


def _seal_outcome(seal, recipient, seed):
    try:
        return seal(
            recipient, b"payload %d" % seed, random.Random(seed), b"env"
        )
    except CryptoError as exc:
        return (type(exc), str(exc))


def _seal_both_ways(recipients, seeds):
    """Seal outcomes on OpenSSL and on the oracle, and the pure scalar
    multiplications each ran."""
    outcomes, counts = [], []
    for seal in (box.seal, oracle_box.seal):
        reset_op_counter()
        outcomes.append([
            _seal_outcome(seal, r, seed) for r in recipients for seed in seeds
        ])
        counts.append(scalar_mult_count())
    return outcomes, counts


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(box, "_RECIPIENT_CACHE", {})


def test_seeded_seals_are_identical(fresh_cache):
    rng = random.Random(0x5EA1)
    keypairs = [BoxKeyPair.generate(rng) for _ in range(2)]
    # key generation draws one scalar, as it did on the pure ladder
    assert all(k.public == scalar_mult(k.secret, GENERATOR) for k in keypairs)
    seeds = range(48)
    (fast, pure), (fast_mults, pure_mults) = _seal_both_ways(
        [k.public for k in keypairs], seeds
    )
    assert fast == pure
    # OpenSSL did both products; the oracle two per seal
    assert (fast_mults, pure_mults) == (0, 2 * len(fast))
    # y's parity is a compressed point's prefix: both occur for k * G
    # (the box's first byte) and for the recovered k * Pub
    openers = [k for k in keypairs for _ in seeds]
    assert {sealed[0] for sealed in fast} == {0x02, 0x03}
    assert {
        scalar_mult(k.secret, Point.decode(sealed[:33])).y & 1
        for k, sealed in zip(openers, fast)
    } == {0, 1}


def test_recipients_plus_or_minus_g_seal_without_the_ladder(fresh_cache):
    # the public keys of secrets 1 and ORDER - 1: k * Pub = +-k * G,
    # where the chord the recovery needs does not exist
    recipients = [GENERATOR, -GENERATOR]
    seeds = range(4)
    (fast, pure), (fast_mults, pure_mults) = _seal_both_ways(
        recipients, seeds
    )
    assert fast == pure
    assert (fast_mults, pure_mults) == (0, 2 * len(fast))
    assert box._RECIPIENT_CACHE == dict.fromkeys(recipients)


@pytest.mark.parametrize(
    "recipient",
    [
        INFINITY,
        Point(GENERATOR.x, GENERATOR.y + 1),
        Point(GENERATOR.x + p256.P, GENERATOR.y),
        Point(GENERATOR.x, GENERATOR.y + p256.P),
    ],
    ids=["identity", "off-curve", "x>=p", "y>=p"],
)
def test_invalid_recipients_fail_identically(fresh_cache, recipient):
    (fast, pure), _ = _seal_both_ways([recipient], range(2))
    assert fast == pure
    assert set(fast) == {(CryptoError, "invalid recipient public key")}
    assert box._RECIPIENT_CACHE == {}


def test_a_failed_recovery_is_refused(fresh_cache):
    # a second exchange against the wrong key yields a foreign x3: the
    # recovered y fails the curve equation and the seal refuses
    rng = random.Random(0xFA11)
    keypair = BoxKeyPair.generate(rng)
    ec = box._openssl_ec()
    pub_key, _ = box._recipient_keys(ec, keypair.public)
    wrong = ec.EllipticCurvePublicKey.from_encoded_point(
        ec.SECP256R1(), (keypair.public + GENERATOR + GENERATOR).encode()
    )
    box._RECIPIENT_CACHE[keypair.public] = (pub_key, wrong)
    for seed in range(6):
        with pytest.raises(CryptoError, match="recovery failed"):
            box.seal(keypair.public, b"m", random.Random(seed), b"env")


def test_recipient_cache_stays_bounded(fresh_cache):
    rng = random.Random(0xCAC4E)
    bound = box._RECIPIENT_CACHE_SIZE
    keypairs = [BoxKeyPair.generate(rng) for _ in range(bound + 3)]
    for keypair in keypairs:
        sealed = box.seal(keypair.public, b"m", rng)
        assert box.open_box(keypair, sealed) == b"m"
        assert len(box._RECIPIENT_CACHE) <= bound
