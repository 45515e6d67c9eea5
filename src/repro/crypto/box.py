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
OpenSSL runs both, through the ``cryptography`` package: a required
dependency, imported on the first key generation, seal or open, so a
cleartext client or server never loads it; where it does not import,
that call raises :class:`ModuleNotFoundError` naming the package.
``derive_private_key(k)`` gives ``R = k * G`` in full, but ECDH
gives only ``x1 = x(k * Pub)``, while the keys hash the *compressed*
shared point, whose prefix is y's parity.  A second exchange, against
the recipient's cached ``Pub + G``, gives ``x3 = x(k * Pub + R)``; the
chord through ``k * Pub`` and ``R`` then fixes ``y1`` with one
inversion and no square root::

    y1 = (yR^2 + x1^3 - 3 x1 + b - (x3 + x1 + xR) (xR - x1)^2) / (2 yR)

(``docs/ANALYSIS.md``, "Sealed-box seal: recovering y").  The chord
does not exist for ``Pub = +-G``, but there ``k * Pub = +-R``, which
is known in full.  A recovered y that fails the curve equation (only
a wrong cached key gives one) raises :class:`CryptoError`.  On the
2-vCPU benchmark host a seal costs about 0.3 ms
(``derive_private_key`` 0.05, each exchange 0.08, the recovery's
inversion 0.03).  A recipient is validated once, on its first seal:
the identity, an off-curve point or an out-of-range coordinate raises
:class:`CryptoError` (``k`` times such a "key" is a constant any
eavesdropper can compute) and is never cached.

An open is one ECDH by the server's secret: the ephemeral point is
decoded and validated by ``from_encoded_point``.  On the 2-vCPU
benchmark host the exchange costs about 0.05 ms and a whole open about
0.09 ms.  Like the seal, the open gets only the shared x from OpenSSL;
rather than pay a second exchange to recover y, it derives the keys
for both prefixes (``02 || x`` and ``03 || x``), checks both tags, and
decrypts with the one that verifies; checking both costs the same
whichever parity is right.  The wrong-parity keys come out of a
different HKDF input, so their tag is an independent 16-byte value:
for it to verify as well, the box would have to carry an HMAC tag
forged under a second key.  An honest box does that with probability
2^-128, and even a sender who knows both keys must search for a
message on which two truncated HMACs agree; a box whose tag verifies
under both is refused.

The pure P-256 kernels of :mod:`repro.ec` run none of this;
``tests/oracle/box.py`` rebuilds seal and open on them as the oracle
the differential tests check every box against.  The Python
arithmetic of the y recovery is not constant-time.
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
from repro.ec.p256 import GENERATOR, ORDER, A, B, P, Point, random_scalar


@dataclass(frozen=True)
class BoxKeyPair:
    """A long-term decryption key pair for one server.

    ``secret`` must lie in ``[1, ORDER)``: a multiple of the order
    would make every shared secret the identity, a constant anyone can
    compute, and OpenSSL refuses any secret outside that range.  The
    first open caches the key's OpenSSL form on the instance; it is
    left out of the pickled state (process workers receive the
    server's key pair and derive their own).
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
        ec = _openssl_ec()
        key = ec.derive_private_key(secret, ec.SECP256R1())
        return cls(secret=secret, public=_public_point(key))


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


def _public_point(key) -> Point:
    """The public point of an OpenSSL private key."""
    numbers = key.public_key().public_numbers()
    return Point(numbers.x, numbers.y)


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
    The one random draw is the ephemeral scalar, so a seeded ``rng``
    gives the same bytes as the oracle's pure seal.
    """
    if rng is None:
        rng = _random.SystemRandom()
    ephemeral_secret = random_scalar(rng)
    ec = _openssl_ec()
    keys = _recipient_keys(ec, recipient_public)
    ephemeral = ec.derive_private_key(ephemeral_secret, ec.SECP256R1())
    r = _public_point(ephemeral)
    if keys is None:
        # Pub = +-G, so k Pub = +-R
        shared = r if recipient_public == GENERATOR else -r
    else:
        shared = _recover_shared(ec, ephemeral, r, keys)
    ephemeral_pub = r.encode()
    enc_key, mac_key = _derive_keys(shared.encode(), ephemeral_pub)
    ciphertext = stream_xor(enc_key, ephemeral_pub[:16], plaintext)
    tag = mac_tag(mac_key, _mac_input(associated_data, ciphertext))
    return ephemeral_pub + ciphertext + tag


def _recover_shared(ec, ephemeral, r: Point, keys) -> Point:
    """``k * Pub`` in full from two exchanges.

    ``keys`` are the recipient's ``(Pub, Pub + G)``.  ECDH yields only
    x1 = x(k Pub) and x3 = x(k Pub + k G); with R = k G known in full,
    y1 follows from the chord through k Pub and R (module docstring).
    """
    pub_key, pub_plus_g_key = keys
    x1 = int.from_bytes(ephemeral.exchange(ec.ECDH(), pub_key), "big")
    x3 = int.from_bytes(ephemeral.exchange(ec.ECDH(), pub_plus_g_key), "big")
    y1_squared = (x1 * x1 * x1 + A * x1 + B) % P
    run = r.x - x1
    y1 = (
        (r.y * r.y + y1_squared - (x3 + x1 + r.x) * run * run)
        * pow(2 * r.y, -1, P)
        % P
    )
    if y1 * y1 % P != y1_squared:
        raise CryptoError("shared point recovery failed")
    return Point(x1, y1)


#: Recipients' OpenSSL keys ``(Pub, Pub + G)`` by point, or None for
#: ``Pub = +-G``, whose shared point is ``+-R``.  A sealing client uses
#: one entry per server; a process that cycles through more than the
#: bound starts over rather than grow.
_RECIPIENT_CACHE: dict = {}
_RECIPIENT_CACHE_SIZE = 32


def _recipient_keys(ec, recipient_public: Point):
    """The cached OpenSSL keys of ``recipient_public``, validated and
    built on a miss; None where the y recovery is undefined."""
    try:
        return _RECIPIENT_CACHE[recipient_public]
    except KeyError:
        pass
    # a multiple of the identity or of an off-curve point is a
    # constant anyone can compute
    if (
        recipient_public.infinity
        or not (0 <= recipient_public.x < P and 0 <= recipient_public.y < P)
        or not recipient_public.is_on_curve()
    ):
        raise CryptoError(_INVALID_RECIPIENT)
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
    """``cryptography``'s EC module.

    Imported on the first key generation, seal or open rather than
    with this module: every client and server imports the box, and a
    cleartext one must not pay the import's 6-7 MiB.
    """
    try:
        from cryptography.hazmat.primitives.asymmetric import ec
    except ImportError as exc:
        raise ModuleNotFoundError(
            "the sealed box runs P-256 on OpenSSL and needs the "
            "'cryptography' package",
            name="cryptography",
        ) from exc
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
    """Verify and decrypt a sealed box; raises CryptoError on tamper."""
    if len(sealed) < _POINT_SIZE + MAC_SIZE:
        raise CryptoError("sealed box too short")
    ec = _openssl_ec()
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
    # both verifying is a forged tag (module docstring)
    if len(verified) != 1:
        raise CryptoError("box authentication failed")
    return stream_xor(verified[0], ephemeral_pub[:16], ciphertext)
