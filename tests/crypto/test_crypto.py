"""Tests for the crypto substrate (box, signatures) and for the
retired P-256 box's primitives (HKDF, stream, MAC) that the upload
pins taken on it still need."""

import hashlib
import pickle
import random

import pytest

from oracle import box as legacy
from oracle.box import hkdf_sha256, keystream, mac_tag, mac_verify
from oracle.box import stream_xor
from repro.crypto import (
    BoxKeyPair,
    CryptoError,
    SigningKeyPair,
    open_box,
    seal,
    sign,
    verify,
)
from repro.ec import GENERATOR

#: Curve25519's prime, 2^255 - 19
P25519 = 2**255 - 19


def _u(value):
    """A Montgomery u-coordinate as X25519's 32 little-endian bytes."""
    return value.to_bytes(32, "little")


@pytest.fixture
def rng():
    return random.Random(5566)


# ----------------------------------------------------------------------
# The retired P-256 box's primitives (tests/oracle/box.py)
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


def test_legacy_box_roundtrip(rng):
    keypair = legacy.LegacyBoxKeyPair.generate(rng)
    sealed = legacy.seal(keypair.public, b"payload", rng, b"env")
    assert len(sealed) == len(b"payload") + 49
    assert legacy.open_box(keypair, sealed, b"env") == b"payload"
    with pytest.raises(CryptoError, match="authentication failed"):
        legacy.open_box(keypair, sealed, b"enw")


# ----------------------------------------------------------------------
# Box
# ----------------------------------------------------------------------


def test_box_roundtrip(rng):
    keypair = BoxKeyPair.generate(rng)
    message = b"client submission payload" * 4
    sealed = seal(keypair.public, message, rng)
    assert open_box(keypair, sealed) == message


def test_box_overhead_constant(rng):
    # 32-byte X25519 enc + 16-byte GCM tag
    keypair = BoxKeyPair.generate(rng)
    for size in (0, 10, 1000):
        sealed = seal(keypair.public, b"x" * size, rng)
        assert len(sealed) == size + 48


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
    legacy_keypair = legacy.LegacyBoxKeyPair.generate(rng)
    for packet in submission.packets:  # one seed, one explicit share
        sealed = seal_packet(keypair.public, packet, rng)
        assert len(sealed) == len(packet.encode()) + 69
        # one byte per packet under the P-256 box's 33-byte point
        legacy_box = legacy.seal(legacy_keypair.public, packet.encode(), rng)
        assert len(legacy_box) + ENVELOPE_SIZE == len(sealed) + 1


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
    # the associated data is HPKE info, hashed whole into the key
    # schedule: one more byte of it must not authenticate
    keypair = BoxKeyPair.generate(rng)
    sealed = seal(keypair.public, b"xyz", rng, associated_data=b"ab")
    with pytest.raises(CryptoError):
        open_box(keypair, sealed, associated_data=b"abx")


def test_box_malformed_ephemeral_point_is_typed(rng):
    # garbage enc bytes surface as the one CryptoError, not a bare
    # ValueError that batch callers cannot classify
    keypair = BoxKeyPair.generate(rng)
    sealed = bytearray(seal(keypair.public, b"secret", rng))
    sealed[0] ^= 0x07
    with pytest.raises(CryptoError, match="authentication failed"):
        open_box(keypair, bytes(sealed))
    low_order = _u(0) + bytes(sealed[32:])
    with pytest.raises(CryptoError, match="authentication failed"):
        open_box(keypair, low_order)


#: Recipient keys whose X25519 exchange gives the all-zero secret, a
#: constant any eavesdropper can compute, keys of the wrong size, and a
#: key in the retired box's P-256 form.
#: X25519 carries only u: the identity and the 2-torsion point both
#: encode as u = 0, u = p - 1 lies on the twist (off the curve), and
#: u = p is the non-canonical encoding of u = 0.
INVALID_RECIPIENTS = {
    "identity": _u(0),
    "off-curve": _u(P25519 - 1),
    "x>=p": _u(P25519),
    "order-8": bytes.fromhex(
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"
    ),
    "short": bytes(31),
    "long": bytes(33),
    "p256-point": GENERATOR,
}


@pytest.mark.parametrize(
    "recipient", list(INVALID_RECIPIENTS.values()),
    ids=list(INVALID_RECIPIENTS),
)
def test_seal_rejects_invalid_recipient(rng, recipient):
    with pytest.raises(CryptoError, match="recipient"):
        seal(recipient, b"hello", rng)
    with pytest.raises(CryptoError, match="recipient"):
        seal(recipient, b"hello", rng)  # and again, from the cache


@pytest.mark.parametrize(
    "secret, public",
    [(bytes(31), bytes(32)), (bytes(32), bytes(33))],
    ids=["short-secret", "long-public"],
)
def test_box_keypair_rejects_malformed_keys(secret, public):
    with pytest.raises(CryptoError, match="32 bytes"):
        BoxKeyPair(secret=secret, public=public)


def test_box_keypair_accepts_the_extreme_secrets(rng):
    # X25519 clamps every 32-byte string into a valid scalar
    class _Fixed:
        def __init__(self, secret):
            self.secret = secret

        def randbytes(self, n):
            return self.secret

    for secret in (bytes(32), b"\xff" * 32):
        keypair = BoxKeyPair.generate(_Fixed(secret))
        assert keypair.secret == secret
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
    signature = sign(keypair, message)
    assert verify(keypair.public, message, signature)
    # the client id is the raw public key; Ed25519 signatures are a
    # fixed size and draw no randomness
    assert len(keypair.public) == 32
    assert len(signature) == 64
    assert sign(keypair, message) == signature


def test_signature_rejects_wrong_message(rng):
    keypair = SigningKeyPair.generate(rng)
    signature = sign(keypair, b"original")
    assert not verify(keypair.public, b"forged", signature)


def test_signature_rejects_wrong_key(rng):
    alice = SigningKeyPair.generate(rng)
    eve = SigningKeyPair.generate(rng)
    signature = sign(alice, b"msg")
    assert not verify(eve.public, b"msg", signature)


def test_signature_rejects_malformed(rng):
    keypair = SigningKeyPair.generate(rng)
    assert not verify(keypair.public, b"msg", b"junk")
    assert not verify(keypair.public, b"msg", b"\x00" * 64)
    sig = bytearray(sign(keypair, b"msg"))
    sig[0] ^= 0x01
    assert not verify(keypair.public, b"msg", bytes(sig))
    # a key of the wrong length or type is a mismatch, not an exception
    good = sign(keypair, b"msg")
    assert not verify(keypair.public[:31], b"msg", good)
    assert not verify(bytearray(keypair.public), b"msg", good)


def test_signing_keypair_pickles_after_a_signature(rng):
    # registered clients' key pairs cross into process workers: the
    # cached OpenSSL key stays out of the pickle, and a restored pair
    # signs byte for byte as the original
    keypair = SigningKeyPair.generate(rng)
    signature = sign(keypair, b"msg")
    copy = pickle.loads(pickle.dumps(keypair))
    assert copy == keypair
    assert vars(copy) == {"secret": keypair.secret, "public": keypair.public}
    assert sign(copy, b"msg") == signature == sign(keypair, b"msg")
    assert verify(copy.public, b"msg", signature)


def test_signature_deterministic_keygen(rng):
    a = SigningKeyPair.generate(random.Random(1))
    b = SigningKeyPair.generate(random.Random(1))
    assert a.secret == b.secret
    assert a.public == b.public
