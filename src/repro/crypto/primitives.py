"""The crypto substrate's one error type.

The paper's prototype encrypts client->server packets with NaCl's
"box" (Curve25519 + XSalsa20-Poly1305).  The equivalent built here
(:mod:`repro.crypto.box`) is RFC 9180 HPKE on X25519, HKDF-SHA256 and
AES-128-GCM, all run by OpenSSL through ``cryptography``, so no
symmetric primitive is implemented in this package.  The message
flow, the constant per-packet overhead and the "one public-key
operation per client submission" property all match the original.
"""

from __future__ import annotations


class CryptoError(ValueError):
    """Raised on authentication failures or malformed material."""
