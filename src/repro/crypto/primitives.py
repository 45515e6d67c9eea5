"""Symmetric primitives: XOF stream cipher, HKDF, and MAC tags.

The paper's prototype encrypts client->server packets with NaCl's
"box" (Curve25519 + XSalsa20-Poly1305).  The equivalent built here
is:

* P-256 ECDH on OpenSSL for key agreement (:mod:`repro.crypto.box`),
* HKDF-SHA256 for key derivation (RFC 5869, implemented here),
* a SHAKE-256 keystream XOR cipher for confidentiality, and
* HMAC-SHA256 (truncated to 16 bytes) for integrity.

The message flow, per-packet overhead structure, and "one public-key
operation per client submission" property all match the original.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module


class CryptoError(ValueError):
    """Raised on authentication failures or malformed material."""


MAC_SIZE = 16
KEY_SIZE = 32


def hkdf_sha256(
    ikm: bytes, salt: bytes, info: bytes, length: int
) -> bytes:
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
    # bytes have no ^; as two big integers the XOR runs in C, 10x a
    # per-byte loop on a 132 KB packet
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def mac_tag(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 tag truncated to MAC_SIZE bytes."""
    return hmac_module.new(key, data, hashlib.sha256).digest()[:MAC_SIZE]


def mac_verify(key: bytes, data: bytes, tag: bytes) -> bool:
    return hmac_module.compare_digest(mac_tag(key, data), tag)
