"""Crypto substrate: the HPKE box and Ed25519 signatures.

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``BoxKeyPair``, ``open_box``, ``seal``,
``CryptoError``, ``SigningKeyPair``, ``sign``, ``verify``.
"""

from repro.crypto.box import BoxKeyPair, open_box, seal
from repro.crypto.primitives import CryptoError
from repro.crypto.sign import SigningKeyPair, sign, verify

__all__ = [
    "BoxKeyPair",
    "open_box",
    "seal",
    "CryptoError",
    "SigningKeyPair",
    "sign",
    "verify",
]
