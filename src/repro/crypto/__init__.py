"""Crypto substrate: stream cipher, HKDF, ECIES box, Schnorr signatures.

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``BoxKeyPair``, ``open_box``, ``seal``, ``KEY_SIZE``,
``MAC_SIZE``, ``CryptoError``, ``hkdf_sha256``, ``mac_tag``,
``mac_verify``, ``stream_xor``, ``SigningKeyPair``, ``sign``,
``verify``.

Tests only (the box's byte overhead, and the keystream that
``stream_xor`` applies): ``box_overhead``, ``sealed_overhead``,
``keystream``.
"""

from repro.crypto.box import (
    BoxKeyPair,
    box_overhead,
    open_box,
    seal,
    sealed_overhead,
)
from repro.crypto.primitives import (
    KEY_SIZE,
    MAC_SIZE,
    CryptoError,
    hkdf_sha256,
    keystream,
    mac_tag,
    mac_verify,
    stream_xor,
)
from repro.crypto.sign import SigningKeyPair, sign, verify

__all__ = [
    "BoxKeyPair",
    "box_overhead",
    "open_box",
    "seal",
    "sealed_overhead",
    "KEY_SIZE",
    "MAC_SIZE",
    "CryptoError",
    "hkdf_sha256",
    "keystream",
    "mac_tag",
    "mac_verify",
    "stream_xor",
    "SigningKeyPair",
    "sign",
    "verify",
]
