"""Tests for the crypto substrate (stream, HKDF, box, signatures)."""

import hashlib
import pickle
import random

import pytest

from repro.crypto import (
    BoxKeyPair,
    CryptoError,
    SigningKeyPair,
    box,
    hkdf_sha256,
    mac_tag,
    mac_verify,
    open_box,
    seal,
    sign,
    stream_xor,
    verify,
)
from repro.crypto.primitives import keystream
from repro.ec import GENERATOR, INFINITY, Point, p256


@pytest.fixture
def rng():
    return random.Random(5566)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------


def test_hkdf_deterministic_and_length():
    out1 = hkdf_sha256(b"ikm", b"salt", b"info", 64)
    out2 = hkdf_sha256(b"ikm", b"salt", b"info", 64)
    assert out1 == out2
    assert len(out1) == 64


def test_hkdf_separates_inputs():
    assert hkdf_sha256(b"a", b"s", b"i", 32) != hkdf_sha256(b"b", b"s", b"i", 32)
    assert hkdf_sha256(b"a", b"s", b"i", 32) != hkdf_sha256(b"a", b"t", b"i", 32)
    assert hkdf_sha256(b"a", b"s", b"i", 32) != hkdf_sha256(b"a", b"s", b"j", 32)


def test_hkdf_length_limit():
    with pytest.raises(CryptoError):
        hkdf_sha256(b"x", b"", b"", 255 * 32 + 1)


def test_keystream_requires_proper_key():
    with pytest.raises(CryptoError):
        keystream(b"short", b"nonce", 10)


def test_stream_xor_roundtrip():
    key = bytes(range(32))
    data = b"the quick brown fox" * 10
    ct = stream_xor(key, b"nonce-1", data)
    assert ct != data
    assert stream_xor(key, b"nonce-1", ct) == data


def test_stream_xor_known_answer():
    # taken from the per-byte XOR this replaced: the cipher's bytes
    # are pinned, whatever computes them
    key = bytes(range(32))
    assert stream_xor(key, b"nonce-1", b"") == b""
    assert stream_xor(key, b"nonce-1", b"the quick brown fox").hex() == (
        "7a168bbf73eca42fff60742c28a133e24d6efb"
    )
    # leading zero bytes of data and of the result survive the integer
    # round trip
    assert hashlib.sha256(
        stream_xor(key, b"nonce-1", bytes(1000))
    ).hexdigest() == (
        "cac6ff073aed624b627eba237d3cd0ac813e9ac6966b3e6cc65e4a09e54f85fa"
    )
    stream = keystream(key, b"nonce-1", 6)
    assert stream_xor(key, b"nonce-1", stream[:2] + b"rest")[:2] == bytes(2)
    assert stream_xor(key, b"nonce-1", bytes(6)) == stream


def test_stream_nonce_separation():
    key = bytes(range(32))
    assert stream_xor(key, b"n1", b"hello") != stream_xor(key, b"n2", b"hello")


def test_mac_roundtrip():
    tag = mac_tag(b"k" * 32, b"message")
    assert mac_verify(b"k" * 32, b"message", tag)
    assert not mac_verify(b"k" * 32, b"messagX", tag)
    assert not mac_verify(b"j" * 32, b"message", tag)


# ----------------------------------------------------------------------
# Box
# ----------------------------------------------------------------------


def test_box_roundtrip(rng):
    keypair = BoxKeyPair.generate(rng)
    message = b"client submission payload" * 4
    sealed = seal(keypair.public, message, rng)
    assert open_box(keypair, sealed) == message


def test_box_overhead_constant(rng):
    # 33-byte compressed ephemeral point + MAC tag
    keypair = BoxKeyPair.generate(rng)
    for size in (0, 10, 1000):
        sealed = seal(keypair.public, b"x" * size, rng)
        assert len(sealed) == size + 49


def test_sealed_overhead_accounts_for_the_envelope(rng):
    # a sealed *packet* on the wire = 21-byte envelope + the box
    from repro.afe import IntegerSumAfe
    from repro.field import FIELD87
    from repro.protocol import PrioClient, seal_packet
    from repro.protocol.wire import ENVELOPE_SIZE

    assert ENVELOPE_SIZE == 21
    keypair = BoxKeyPair.generate(rng)
    client = PrioClient(IntegerSumAfe(FIELD87, 4), 2, rng=rng)
    (submission,) = client.prepare_submissions([5])
    for packet in submission.packets:  # one seed, one explicit share
        sealed = seal_packet(keypair.public, packet, rng)
        assert len(sealed) == len(packet.encode()) + 70


def test_box_associated_data_binds(rng):
    keypair = BoxKeyPair.generate(rng)
    sealed = seal(keypair.public, b"payload", rng, associated_data=b"env-A")
    assert open_box(keypair, sealed, associated_data=b"env-A") == b"payload"
    # grafting: same box, different associated data -> MAC failure
    with pytest.raises(CryptoError):
        open_box(keypair, sealed, associated_data=b"env-B")
    with pytest.raises(CryptoError):
        open_box(keypair, sealed)
    # and an ad-less box refuses an attacker-supplied ad
    plain = seal(keypair.public, b"payload", rng)
    with pytest.raises(CryptoError):
        open_box(keypair, plain, associated_data=b"env-A")


def test_box_ad_boundary_is_unambiguous(rng):
    # length-prefixed MAC input: moving a byte across the ad/ciphertext
    # boundary must not authenticate
    keypair = BoxKeyPair.generate(rng)
    sealed = seal(keypair.public, b"xyz", rng, associated_data=b"ab")
    with pytest.raises(CryptoError):
        open_box(keypair, sealed, associated_data=b"abx")


def test_box_malformed_ephemeral_point_is_typed(rng):
    # garbage point bytes must surface as CryptoError, not a bare
    # EcError/ValueError that batch callers cannot classify
    keypair = BoxKeyPair.generate(rng)
    sealed = bytearray(seal(keypair.public, b"secret", rng))
    sealed[0] = 0x07  # invalid compressed-point prefix
    with pytest.raises(CryptoError, match="ephemeral point"):
        open_box(keypair, bytes(sealed))
    off_curve = b"\x02" + b"\xff" * 32 + bytes(sealed[33:])
    with pytest.raises(CryptoError, match="ephemeral point"):
        open_box(keypair, off_curve)


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
def test_seal_rejects_invalid_recipient(rng, recipient):
    # k * identity is the identity and k * (off-curve point) lives in
    # some other, possibly tiny, group: either way both box keys would
    # derive from something an eavesdropper can compute
    with pytest.raises(CryptoError, match="recipient"):
        seal(recipient, b"hello", rng)
    with pytest.raises(CryptoError, match="recipient"):
        seal(recipient, b"hello", rng)  # and nothing bad was cached


def test_only_the_sender_builds_fixed_base_tables(rng, monkeypatch):
    # a seal on OpenSSL builds no table; the pure seal (its fallback)
    # caches the generator's and the recipient's; key generation,
    # opening, signing and verifying (what a server process does)
    # never touch the cache
    monkeypatch.setattr(p256, "_TABLE_CACHE", {})
    keypair = BoxKeyPair.generate(rng)
    if box._openssl_ec() is not None:
        assert open_box(keypair, seal(keypair.public, b"a", rng)) == b"a"
        assert p256._TABLE_CACHE == {}
    with monkeypatch.context() as pure:
        pure.setattr(box, "_openssl_ec", lambda: None)
        sealed = seal(keypair.public, b"payload", rng)
    assert set(p256._TABLE_CACHE) == {GENERATOR, keypair.public}
    before = list(p256._TABLE_CACHE)
    other = BoxKeyPair.generate(rng)
    assert open_box(keypair, sealed) == b"payload"
    signer = SigningKeyPair.generate(rng)
    assert verify(signer.public, b"m", sign(signer, b"m", rng))
    assert list(p256._TABLE_CACHE) == before
    assert other.public not in p256._TABLE_CACHE


@pytest.mark.parametrize("secret", [0, -1, p256.ORDER, 2 * p256.ORDER + 5])
def test_box_keypair_rejects_secret_outside_the_group(secret):
    # a multiple of the order makes every shared secret the identity,
    # so every box would open under keys anyone can derive
    with pytest.raises(CryptoError, match="secret"):
        BoxKeyPair(secret=secret, public=GENERATOR)


def test_box_keypair_accepts_the_extreme_secrets(rng):
    for secret in (1, p256.ORDER - 1):
        keypair = BoxKeyPair(
            secret=secret, public=p256.scalar_mult(secret, GENERATOR)
        )
        sealed = seal(keypair.public, b"edge", rng)
        assert open_box(keypair, sealed) == b"edge"


def test_box_keypair_pickles_after_an_open(rng):
    # process workers receive the server's key pair: whatever the open
    # cached must stay out of the pickle
    keypair = BoxKeyPair.generate(rng)
    sealed = seal(keypair.public, b"payload", rng)
    assert open_box(keypair, sealed) == b"payload"
    copy = pickle.loads(pickle.dumps(keypair))
    assert copy == keypair
    assert vars(copy) == {"secret": keypair.secret, "public": keypair.public}
    assert open_box(copy, sealed) == b"payload"


def test_box_tamper_detected(rng):
    keypair = BoxKeyPair.generate(rng)
    sealed = bytearray(seal(keypair.public, b"secret", rng))
    sealed[-1] ^= 1
    with pytest.raises(CryptoError):
        open_box(keypair, bytes(sealed))


def test_box_wrong_key_fails(rng):
    alice = BoxKeyPair.generate(rng)
    bob = BoxKeyPair.generate(rng)
    sealed = seal(alice.public, b"for alice", rng)
    with pytest.raises(CryptoError):
        open_box(bob, sealed)


def test_box_too_short(rng):
    keypair = BoxKeyPair.generate(rng)
    with pytest.raises(CryptoError):
        open_box(keypair, b"tiny")


def test_box_randomized(rng):
    keypair = BoxKeyPair.generate(rng)
    s1 = seal(keypair.public, b"same message", rng)
    s2 = seal(keypair.public, b"same message", rng)
    assert s1 != s2  # fresh ephemeral key per box


def test_box_default_rng():
    keypair = BoxKeyPair.generate()
    sealed = seal(keypair.public, b"os-random path")
    assert open_box(keypair, sealed) == b"os-random path"


def test_box_default_rng_never_uses_mersenne_twister(monkeypatch):
    # Regression: the default rng for long-term secrets and ephemeral
    # scalars must be the OS CSPRNG (random.SystemRandom), never a
    # seeded random.Random.  Detonate random.Random: the default path
    # must not touch it.
    class _Detonator:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                "default box rng constructed random.Random"
            )

    monkeypatch.setattr(random, "Random", _Detonator)
    keypair = BoxKeyPair.generate()
    sealed = seal(keypair.public, b"csprng only")
    assert open_box(keypair, sealed) == b"csprng only"


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------


def test_sign_verify_roundtrip(rng):
    keypair = SigningKeyPair.generate(rng)
    message = b"client registration"
    signature = sign(keypair, message, rng)
    assert verify(keypair.public, message, signature)


def test_signature_rejects_wrong_message(rng):
    keypair = SigningKeyPair.generate(rng)
    signature = sign(keypair, b"original", rng)
    assert not verify(keypair.public, b"forged", signature)


def test_signature_rejects_wrong_key(rng):
    alice = SigningKeyPair.generate(rng)
    eve = SigningKeyPair.generate(rng)
    signature = sign(alice, b"msg", rng)
    assert not verify(eve.public, b"msg", signature)


def test_signature_rejects_malformed(rng):
    keypair = SigningKeyPair.generate(rng)
    assert not verify(keypair.public, b"msg", b"junk")
    assert not verify(keypair.public, b"msg", b"\x00" * 65)
    sig = bytearray(sign(keypair, b"msg", rng))
    sig[0] = 0x07  # invalid point prefix
    assert not verify(keypair.public, b"msg", bytes(sig))


def test_signature_deterministic_keygen(rng):
    a = SigningKeyPair.generate(random.Random(1))
    b = SigningKeyPair.generate(random.Random(1))
    assert a.secret == b.secret
    assert a.public == b.public
