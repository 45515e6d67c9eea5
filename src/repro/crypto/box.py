"""ECIES-style authenticated public-key encryption ("box").

Stands in for NaCl's box primitive (Section 6: "Clients encrypt and
sign their messages to servers using NaCl's 'box' primitive, which
obviates the need for client-to-server TLS connections").

seal:   ephemeral ECDH against the recipient's public key ->
        HKDF -> (stream key, mac key) -> ciphertext || tag,
        prefixed with the ephemeral public point.
open:   recompute the shared secret, verify, decrypt.

Both operations take optional *associated data*: cleartext bytes that
travel alongside the box (the wire envelope of
:mod:`repro.protocol.wire`) and are covered by the MAC without being
encrypted.  The tag binds ``len(ad) || ad || ciphertext``, so grafting
one box onto another message's associated data fails authentication.

Cost.  A seal is two scalar multiplications, ``k * G`` for the
ephemeral key and ``k * Pub`` for the shared secret — the "single
public-key encryption" per packet that Figure 7's analysis counts.
Both bases recur (the generator; a server's long-term key), so the
sender goes through :func:`repro.ec.p256.fixed_base_mult`'s cached
tables and the two results share one field inversion.  The first seal
to a recipient builds that recipient's table, which is also where the
key is validated: the identity, an off-curve point or an out-of-range
coordinate raises :class:`CryptoError` (``k`` times such a "key" is a
constant any eavesdropper can compute).

An open is one ECDH by the server's secret.  Where the optional
``cryptography`` package imports, OpenSSL runs it: the ephemeral point
is decoded and validated by ``from_encoded_point``.  On the 2-vCPU
benchmark host the exchange costs about 0.05 ms and a whole open about
0.09 ms, against about 1 ms for the pure wNAF ladder of
:func:`repro.ec.p256.scalar_mult`, which stays as the fallback and as
the oracle the differential tests open every box against.  The import
happens on the first open, so a cleartext server never loads it.
OpenSSL's ECDH returns only the shared x, while the keys hash the
*compressed* shared point, whose prefix carries y's parity.  The open
derives the keys for both prefixes (``02 || x`` and ``03 || x``),
checks both tags, and decrypts with the one that verifies; checking
both costs the same whichever parity is right.  The wrong-parity keys
come out of a different HKDF input, so their tag is an independent
16-byte value: for it to verify as well, the box would have to carry
an HMAC tag forged under a second key.  An honest box does that with
probability 2^-128, and even a sender who knows both keys must search
for a message on which two truncated HMACs agree.  Should it happen,
the open defers to the ladder, which knows y.  ``open_box`` and key
generation never build a fixed-base table, and the pure kernels are
not constant-time (see :mod:`repro.ec.p256`).
"""

from __future__ import annotations

import functools
import random as _random
from dataclasses import dataclass

from repro.crypto.primitives import (
    KEY_SIZE,
    MAC_SIZE,
    CryptoError,
    hkdf_sha256,
    mac_tag,
    mac_verify,
    stream_xor,
)
from repro.ec.p256 import (
    GENERATOR,
    ORDER,
    EcError,
    Point,
    _affine_many,
    _fixed_base_jacobian,
    random_scalar,
    scalar_mult,
)


@dataclass(frozen=True)
class BoxKeyPair:
    """A long-term decryption key pair for one server.

    ``secret`` must lie in ``[1, ORDER)``: a multiple of the order
    would make every shared secret the identity, a constant anyone can
    compute, and OpenSSL refuses any secret the pure ladder would
    reduce, so both open paths accept the same keys.  The first OpenSSL
    open caches the key's OpenSSL form on the instance; it is left out
    of the pickled state (process workers receive the server's key pair
    and derive their own).
    """

    secret: int
    public: Point

    def __post_init__(self) -> None:
        if not 0 < self.secret < ORDER:
            raise CryptoError("box secret must lie in [1, ORDER)")

    def __getstate__(self) -> dict:
        return {"secret": self.secret, "public": self.public}

    @classmethod
    def generate(cls, rng=None) -> "BoxKeyPair":
        # Secrets must come from the OS CSPRNG by default; a seeded
        # Mersenne Twister is only acceptable when a test injects it.
        if rng is None:
            rng = _random.SystemRandom()
        secret = random_scalar(rng)
        return cls(secret=secret, public=scalar_mult(secret, GENERATOR))


_POINT_SIZE = 33

#: associated data is length-prefixed (u32) into the MAC input, so the
#: ad/ciphertext boundary is unambiguous; bound the length accordingly
_MAX_AD = (1 << 32) - 1

_MALFORMED_POINT = "malformed ephemeral point in sealed box"


def _derive_keys(shared: bytes, ephemeral_pub: bytes) -> tuple[bytes, bytes]:
    """(stream key, mac key) from the compressed shared and ephemeral
    points."""
    ikm = shared + ephemeral_pub
    material = hkdf_sha256(ikm, salt=b"prio-box", info=b"keys", length=2 * KEY_SIZE)
    return material[:KEY_SIZE], material[KEY_SIZE:]


def _mac_input(associated_data: bytes, ciphertext: bytes) -> bytes:
    if len(associated_data) > _MAX_AD:
        raise CryptoError("associated data too large to authenticate")
    return (
        len(associated_data).to_bytes(4, "big")
        + associated_data
        + ciphertext
    )


def seal(
    recipient_public: Point,
    plaintext: bytes,
    rng=None,
    associated_data: bytes = b"",
) -> bytes:
    """Encrypt-and-authenticate ``plaintext`` to the recipient.

    ``associated_data`` is authenticated but not encrypted (and not
    included in the output): the opener must present the same bytes.
    Raises :class:`CryptoError` for an invalid ``recipient_public``.
    """
    if rng is None:
        rng = _random.SystemRandom()
    ephemeral_secret = random_scalar(rng)
    try:
        jacobian = [
            _fixed_base_jacobian(ephemeral_secret, GENERATOR),
            _fixed_base_jacobian(ephemeral_secret, recipient_public),
        ]
    except EcError as exc:
        raise CryptoError("invalid recipient public key") from exc
    # a nonzero scalar times a point of prime order: neither is the
    # identity, so one shared inversion converts both
    ephemeral_pub, shared = (Point(*xy) for xy in _affine_many(jacobian))
    enc_key, mac_key = _derive_keys(shared.encode(), ephemeral_pub.encode())
    nonce = ephemeral_pub.encode()[:16]
    ciphertext = stream_xor(enc_key, nonce, plaintext)
    tag = mac_tag(mac_key, _mac_input(associated_data, ciphertext))
    return ephemeral_pub.encode() + ciphertext + tag


@functools.lru_cache(maxsize=None)
def _openssl_ec():
    """``cryptography``'s EC module, or None where it does not import.

    Imported on the first open rather than with this module: every
    server imports the box, and a cleartext one must not pay the
    import's 6-7 MiB.
    """
    try:
        from cryptography.hazmat.primitives.asymmetric import ec
    except ImportError:
        return None
    return ec


def _openssl_key(ec, keypair: BoxKeyPair):
    """``keypair``'s OpenSSL private key, derived once per instance."""
    key = getattr(keypair, "_openssl_key", None)
    if key is None:
        key = ec.derive_private_key(keypair.secret, ec.SECP256R1())
        object.__setattr__(keypair, "_openssl_key", key)
    return key


def open_box(
    keypair: BoxKeyPair,
    sealed: bytes,
    associated_data: bytes = b"",
) -> bytes:
    """Verify and decrypt a sealed box; raises CryptoError on tamper.

    The ECDH runs on OpenSSL when ``cryptography`` imports and on the
    pure ladder otherwise; both give the same plaintext or the same
    :class:`CryptoError`.
    """
    if len(sealed) < _POINT_SIZE + MAC_SIZE:
        raise CryptoError("sealed box too short")
    ec = _openssl_ec()
    if ec is None:
        return _open_pure(keypair, sealed, associated_data)
    ephemeral_pub = bytes(sealed[:_POINT_SIZE])
    try:
        peer = ec.EllipticCurvePublicKey.from_encoded_point(
            ec.SECP256R1(), ephemeral_pub
        )
    except ValueError as exc:
        # the cause keeps no frames: a refusal must not pin its batch
        raise CryptoError(_MALFORMED_POINT) from exc.with_traceback(None)
    shared_x = _openssl_key(ec, keypair).exchange(ec.ECDH(), peer)
    ciphertext = sealed[_POINT_SIZE:-MAC_SIZE]
    tag = sealed[-MAC_SIZE:]
    mac_input = _mac_input(associated_data, ciphertext)
    # y's parity is unknown: check the tag under both prefixes' keys
    verified = [
        enc_key
        for enc_key, mac_key in (
            _derive_keys(prefix + shared_x, ephemeral_pub)
            for prefix in (b"\x02", b"\x03")
        )
        if mac_verify(mac_key, mac_input, tag)
    ]
    if not verified:
        raise CryptoError("box authentication failed")
    if len(verified) == 2:
        # a forged tag (module docstring): only the ladder knows y
        return _open_pure(keypair, sealed, associated_data)
    return stream_xor(verified[0], ephemeral_pub[:16], ciphertext)


def _open_pure(
    keypair: BoxKeyPair, sealed: bytes, associated_data: bytes
) -> bytes:
    """:func:`open_box` on the pure ladder: the fallback and the
    oracle."""
    try:
        ephemeral_pub = Point.decode(sealed[:_POINT_SIZE])
    except ValueError as exc:
        # Point.decode raises EcError (a bare ValueError); untrusted
        # bytes must surface as a typed crypto failure so batch callers
        # can poison only the offender.
        raise CryptoError(_MALFORMED_POINT) from exc.with_traceback(None)
    ciphertext = sealed[_POINT_SIZE:-MAC_SIZE]
    tag = sealed[-MAC_SIZE:]
    shared = scalar_mult(keypair.secret, ephemeral_pub)
    enc_key, mac_key = _derive_keys(shared.encode(), ephemeral_pub.encode())
    if not mac_verify(mac_key, _mac_input(associated_data, ciphertext), tag):
        raise CryptoError("box authentication failed")
    nonce = ephemeral_pub.encode()[:16]
    return stream_xor(enc_key, nonce, ciphertext)
