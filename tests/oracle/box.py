"""The sealed box rebuilt on the pure P-256 kernel: the oracle.

:func:`seal` and :func:`open_box` are :mod:`repro.crypto.box` with both
of its public-key steps computed by :func:`repro.ec.scalar_mult` (the
wNAF ladder) instead of OpenSSL: the seal multiplies ``G`` and the
recipient's key by the ephemeral scalar, the open multiplies the
decoded ephemeral point by the server's secret.  Key derivation,
stream cipher and MAC are the box's own.  The ladder knows y, so
neither needs the box's y recovery or parity trial: a seeded seal must
give the same bytes, and an open the same plaintext or a
:class:`CryptoError` with the same message.  At about 1 ms per
multiplication this is an oracle only.
"""

from repro.crypto.box import _derive_keys, _mac_input
from repro.crypto.primitives import (
    MAC_SIZE,
    CryptoError,
    mac_tag,
    mac_verify,
    stream_xor,
)
from repro.ec.p256 import GENERATOR, EcError, P, Point, random_scalar
from repro.ec.p256 import scalar_mult

POINT_SIZE = 33


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
