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
Where the optional ``cryptography`` package imports, OpenSSL runs
both.  ``derive_private_key(k)`` gives ``R = k * G`` in full, but ECDH
gives only ``x1 = x(k * Pub)``, while the keys hash the *compressed*
shared point, whose prefix is y's parity.  A second exchange, against
the recipient's cached ``Pub + G``, gives ``x3 = x(k * Pub + R)``; the
chord through ``k * Pub`` and ``R`` then fixes ``y1`` with one
inversion and no square root::

    y1 = (yR^2 + x1^3 - 3 x1 + b - (x3 + x1 + xR) (xR - x1)^2) / (2 yR)

(``docs/ANALYSIS.md``, "Sealed-box seal: recovering y").  The chord
does not exist for ``Pub = +-G`` (``k * Pub = +-R``), so those two
recipients take the pure path, as would a recovered y that failed the
curve equation.  On the 2-vCPU benchmark host a seal costs about
0.3 ms this way (``derive_private_key`` 0.05, each exchange 0.08, the
recovery's inversion 0.03) against about 1 ms on the pure fixed-base
tables of :func:`repro.ec.p256.fixed_base_mult`, which stay as the
fallback and as the oracle the differential tests seal every box
against.  Both
paths draw the one ephemeral scalar first, so a seeded seal is the
same bytes either way.  A recipient is validated once, on its first
seal: the identity, an off-curve point or an out-of-range coordinate
raises :class:`CryptoError` (``k`` times such a "key" is a constant
any eavesdropper can compute) and is never cached.

An open is one ECDH by the server's secret.  Where the optional
``cryptography`` package imports, OpenSSL runs it: the ephemeral point
is decoded and validated by ``from_encoded_point``.  On the 2-vCPU
benchmark host the exchange costs about 0.05 ms and a whole open about
0.09 ms, against about 1 ms for the pure wNAF ladder of
:func:`repro.ec.p256.scalar_mult`, which stays as the fallback and as
the oracle the differential tests open every box against.  The import
happens on the first seal or open, so a cleartext client or server
never loads it.  Like the seal, the open gets only the shared x from
OpenSSL; rather than pay a second exchange to recover y, it derives
the keys for both prefixes (``02 || x`` and ``03 || x``),
checks both tags, and decrypts with the one that verifies; checking
both costs the same whichever parity is right.  The wrong-parity keys
come out of a different HKDF input, so their tag is an independent
16-byte value: for it to verify as well, the box would have to carry
an HMAC tag forged under a second key.  An honest box does that with
probability 2^-128, and even a sender who knows both keys must search
for a message on which two truncated HMACs agree.  Should it happen,
the open defers to the ladder, which knows y.  Only the pure seal
builds fixed-base tables (the generator's and the recipient's);
``open_box`` and key generation never do.  Neither the pure kernels
nor the Python arithmetic of the y recovery is constant-time (see
:mod:`repro.ec.p256`).
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
    A,
    B,
    EcError,
    P,
    Point,
    _affine_many,
    _check_fixed_base,
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
_INVALID_RECIPIENT = "invalid recipient public key"


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
    The scalar products run on OpenSSL when ``cryptography`` imports
    and on the pure fixed-base tables otherwise; both give the same
    bytes from the same ``rng``.
    """
    if rng is None:
        rng = _random.SystemRandom()
    # the one draw, before the path is chosen: both paths consume rng
    # identically, so a seeded seal is the same bytes either way
    ephemeral_secret = random_scalar(rng)
    points = None
    ec = _openssl_ec()
    if ec is not None:
        keys = _recipient_keys(ec, recipient_public)
        if keys is not None:
            points = _seal_points_openssl(ec, ephemeral_secret, keys)
    if points is None:
        points = _seal_points_pure(ephemeral_secret, recipient_public)
    ephemeral_pub, shared = points
    enc_key, mac_key = _derive_keys(shared, ephemeral_pub)
    ciphertext = stream_xor(enc_key, ephemeral_pub[:16], plaintext)
    tag = mac_tag(mac_key, _mac_input(associated_data, ciphertext))
    return ephemeral_pub + ciphertext + tag


def _seal_points_pure(
    ephemeral_secret: int, recipient_public: Point
) -> tuple[bytes, bytes]:
    """Compressed ``(k * G, k * Pub)`` on the fixed-base tables: the
    fallback and the oracle."""
    try:
        jacobian = [
            _fixed_base_jacobian(ephemeral_secret, GENERATOR),
            _fixed_base_jacobian(ephemeral_secret, recipient_public),
        ]
    except EcError as exc:
        raise CryptoError(_INVALID_RECIPIENT) from exc
    # a nonzero scalar times a point of prime order: neither is the
    # identity, so one shared inversion converts both
    ephemeral_pub, shared = (Point(*xy) for xy in _affine_many(jacobian))
    return ephemeral_pub.encode(), shared.encode()


def _seal_points_openssl(
    ec, ephemeral_secret: int, keys
) -> tuple[bytes, bytes] | None:
    """Compressed ``(k * G, k * Pub)`` on OpenSSL, or None when the
    recovered y fails the curve equation.

    ``keys`` are the recipient's ``(Pub, Pub + G)``.  ECDH yields only
    x1 = x(k Pub) and x3 = x(k Pub + k G); with R = k G known in full,
    y1 follows from the chord through k Pub and R (module docstring).
    """
    ephemeral = ec.derive_private_key(ephemeral_secret, ec.SECP256R1())
    numbers = ephemeral.public_key().public_numbers()
    x_r, y_r = numbers.x, numbers.y
    pub_key, pub_plus_g_key = keys
    x1 = int.from_bytes(ephemeral.exchange(ec.ECDH(), pub_key), "big")
    x3 = int.from_bytes(ephemeral.exchange(ec.ECDH(), pub_plus_g_key), "big")
    y1_squared = (x1 * x1 * x1 + A * x1 + B) % P
    run = x_r - x1
    y1 = (
        (y_r * y_r + y1_squared - (x3 + x1 + x_r) * run * run)
        * pow(2 * y_r, -1, P)
        % P
    )
    if y1 * y1 % P != y1_squared:
        return None
    return Point(x_r, y_r).encode(), Point(x1, y1).encode()


#: Recipients' OpenSSL keys ``(Pub, Pub + G)`` by point, or None for
#: ``Pub = +-G``, whose seals take the tables.  A sealing client uses
#: one entry per server; a process that cycles through more than the
#: bound starts over rather than grow, as p256's table cache does.
_RECIPIENT_CACHE: dict = {}
_RECIPIENT_CACHE_SIZE = 32


def _recipient_keys(ec, recipient_public: Point):
    """The cached OpenSSL keys of ``recipient_public``, validated and
    built on a miss; None where the y recovery is undefined."""
    try:
        return _RECIPIENT_CACHE[recipient_public]
    except KeyError:
        pass
    try:
        _check_fixed_base(recipient_public)
    except EcError as exc:
        raise CryptoError(_INVALID_RECIPIENT) from exc
    keys = None
    # Pub = +-G: k Pub = +-R, where the chord is a tangent or vertical
    if recipient_public.x != GENERATOR.x:
        keys = tuple(
            ec.EllipticCurvePublicKey.from_encoded_point(
                ec.SECP256R1(), point.encode()
            )
            for point in (recipient_public, recipient_public + GENERATOR)
        )
    if len(_RECIPIENT_CACHE) >= _RECIPIENT_CACHE_SIZE:
        _RECIPIENT_CACHE.clear()
    _RECIPIENT_CACHE[recipient_public] = keys
    return keys


@functools.lru_cache(maxsize=None)
def _openssl_ec():
    """``cryptography``'s EC module, or None where it does not import.

    Imported on the first seal or open rather than with this module:
    every client and server imports the box, and a cleartext one must
    not pay the import's 6-7 MiB.
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
