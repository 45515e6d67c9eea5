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
constant any eavesdropper can compute).  An open is one variable-base
multiplication by the server's secret; ``open_box`` and key generation
never build a table.  Neither kernel is constant-time (see
:mod:`repro.ec.p256`).
"""

from __future__ import annotations

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
    EcError,
    Point,
    _affine_many,
    _fixed_base_jacobian,
    random_scalar,
    scalar_mult,
)


@dataclass(frozen=True)
class BoxKeyPair:
    """A long-term decryption key pair for one server."""

    secret: int
    public: Point

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


def _derive_keys(shared: Point, ephemeral_pub: Point) -> tuple[bytes, bytes]:
    ikm = shared.encode() + ephemeral_pub.encode()
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
    enc_key, mac_key = _derive_keys(shared, ephemeral_pub)
    nonce = ephemeral_pub.encode()[:16]
    ciphertext = stream_xor(enc_key, nonce, plaintext)
    tag = mac_tag(mac_key, _mac_input(associated_data, ciphertext))
    return ephemeral_pub.encode() + ciphertext + tag


def open_box(
    keypair: BoxKeyPair,
    sealed: bytes,
    associated_data: bytes = b"",
) -> bytes:
    """Verify and decrypt a sealed box; raises CryptoError on tamper."""
    if len(sealed) < _POINT_SIZE + MAC_SIZE:
        raise CryptoError("sealed box too short")
    try:
        ephemeral_pub = Point.decode(sealed[:_POINT_SIZE])
    except ValueError as exc:
        # Point.decode raises EcError (a bare ValueError); untrusted
        # bytes must surface as a typed crypto failure so batch callers
        # can poison only the offender.
        raise CryptoError("malformed ephemeral point in sealed box") from exc
    ciphertext = sealed[_POINT_SIZE:-MAC_SIZE]
    tag = sealed[-MAC_SIZE:]
    shared = scalar_mult(keypair.secret, ephemeral_pub)
    enc_key, mac_key = _derive_keys(shared, ephemeral_pub)
    if not mac_verify(mac_key, _mac_input(associated_data, ciphertext), tag):
        raise CryptoError("box authentication failed")
    nonce = ephemeral_pub.encode()[:16]
    return stream_xor(enc_key, nonce, ciphertext)


def box_overhead() -> int:
    """Bytes the box itself adds over its plaintext (point + tag)."""
    return _POINT_SIZE + MAC_SIZE


def sealed_overhead() -> int:
    """Bytes added per sealed *packet* (for wire-format accounting).

    A sealed packet on the wire is ``envelope || box``: the 21-byte
    cleartext envelope (:data:`repro.protocol.wire.ENVELOPE_SIZE`)
    plus the box's own point-and-tag overhead.
    """
    from repro.protocol.wire import ENVELOPE_SIZE

    return box_overhead() + ENVELOPE_SIZE
