"""The retired P-256 box, self-contained, on the pure P-256 kernel.

Until envelope version 2 the box was a custom ECIES: P-256 ECDH, an
HKDF over the compressed shared and ephemeral points, a SHAKE-256
keystream and a truncated HMAC-SHA256 tag over
``len(ad) || ad || ciphertext``.  A box was ``R || ciphertext || tag``
with ``R = k * G`` compressed (33 bytes), 49 bytes over its plaintext.
The HPKE box (:mod:`repro.crypto.box`) replaced it; this module keeps
the old one so the upload pins taken on it still reproduce (the
``legacy_box`` fixture of ``tests/snip/test_client_batch_equivalence.py``
patches :class:`LegacyBoxKeyPair`, :func:`seal` and envelope version 1
into a deployment).  Both products run on :func:`repro.ec.scalar_mult`
at about 1 ms each: an oracle only.
"""

import hashlib
import hmac as hmac_module
from dataclasses import dataclass

from repro.crypto import CryptoError
from repro.ec.p256 import GENERATOR, EcError, P, Point, random_scalar
from repro.ec.p256 import scalar_mult

POINT_SIZE = 33
MAC_SIZE = 16
KEY_SIZE = 32


def hkdf_sha256(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """HKDF (extract-then-expand) per RFC 5869 with SHA-256."""
    if length > 255 * 32:
        raise CryptoError("HKDF output too long")
    prk = hmac_module.new(salt or b"\x00" * 32, ikm, hashlib.sha256).digest()
    out = b""
    block = b""
    counter = 1
    while len(out) < length:
        block = hmac_module.new(
            prk, block + info + bytes([counter]), hashlib.sha256
        ).digest()
        out += block
        counter += 1
    return out[:length]


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """A SHAKE-256 keystream: PRF(key, nonce) expanded to ``length``."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"key must be {KEY_SIZE} bytes")
    return hashlib.shake_256(b"prio-stream" + key + nonce).digest(length)


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt by XOR with the keystream (an involution)."""
    stream = keystream(key, nonce, len(data))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def mac_tag(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 tag truncated to MAC_SIZE bytes."""
    return hmac_module.new(key, data, hashlib.sha256).digest()[:MAC_SIZE]


def mac_verify(key: bytes, data: bytes, tag: bytes) -> bool:
    return hmac_module.compare_digest(mac_tag(key, data), tag)


def _derive_keys(shared: bytes, ephemeral_pub: bytes):
    """(stream key, mac key) from the compressed shared and ephemeral
    points."""
    material = hkdf_sha256(
        shared + ephemeral_pub, salt=b"prio-box", info=b"keys",
        length=2 * KEY_SIZE,
    )
    return material[:KEY_SIZE], material[KEY_SIZE:]


def _mac_input(associated_data: bytes, ciphertext: bytes) -> bytes:
    # length-prefixed, so the ad/ciphertext boundary is unambiguous
    prefix = len(associated_data).to_bytes(4, "big")
    return prefix + associated_data + ciphertext


@dataclass(frozen=True)
class LegacyBoxKeyPair:
    """A P-256 key pair: ``secret`` in ``[1, ORDER)``, ``public`` its
    point.  :meth:`generate` draws the one scalar the old key
    generation drew."""

    secret: int
    public: Point

    @classmethod
    def generate(cls, rng) -> "LegacyBoxKeyPair":
        secret = random_scalar(rng)
        return cls(secret=secret, public=scalar_mult(secret, GENERATOR))


def seal(recipient_public, plaintext, rng, associated_data=b""):
    """The box of ``plaintext`` to ``recipient_public``."""
    k = random_scalar(rng)
    if (
        recipient_public.infinity
        or not (0 <= recipient_public.x < P and 0 <= recipient_public.y < P)
        or not recipient_public.is_on_curve()
    ):
        raise CryptoError("invalid recipient public key")
    ephemeral_pub = scalar_mult(k, GENERATOR).encode()
    shared = scalar_mult(k, recipient_public).encode()
    enc_key, mac_key = _derive_keys(shared, ephemeral_pub)
    ciphertext = stream_xor(enc_key, ephemeral_pub[:16], plaintext)
    tag = mac_tag(mac_key, _mac_input(associated_data, ciphertext))
    return ephemeral_pub + ciphertext + tag


def open_box(keypair, sealed, associated_data=b""):
    """The plaintext of a box sealed to ``keypair``."""
    if len(sealed) < POINT_SIZE + MAC_SIZE:
        raise CryptoError("sealed box too short")
    try:
        ephemeral = Point.decode(sealed[:POINT_SIZE])
    except EcError as exc:
        raise CryptoError("malformed ephemeral point in sealed box") from exc
    ephemeral_pub = ephemeral.encode()
    shared = scalar_mult(keypair.secret, ephemeral).encode()
    enc_key, mac_key = _derive_keys(shared, ephemeral_pub)
    ciphertext = sealed[POINT_SIZE:-MAC_SIZE]
    tag = sealed[-MAC_SIZE:]
    if not mac_verify(mac_key, _mac_input(associated_data, ciphertext), tag):
        raise CryptoError("box authentication failed")
    return stream_xor(enc_key, ephemeral_pub[:16], ciphertext)
