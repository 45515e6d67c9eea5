"""Ed25519 client signatures, on OpenSSL.

Used by the protocol layer's client-registration defence against the
selective denial-of-service / Sybil attacks of Section 7: "Prio clients
sign their submissions with the signing key corresponding to their
registered public key and the servers wait to publish their accumulator
values until a threshold number of registered clients have submitted
valid messages."

Signing and verifying are RFC 8032 Ed25519 through the
``cryptography`` package, imported on the first key generation,
signature or verification; where it does not import, that call raises
:class:`ModuleNotFoundError` naming the package.  Ed25519 rather than
ECDSA P-256: its signatures are a fixed 64 bytes, deterministic (a
signature draws no randomness) and not malleable, so no one can turn a
valid signature into a second valid one on the same message.  Keys
travel as raw bytes, the 32-byte private seed and the 32-byte public
key (which is also the client id, so a registry of them pickles into
process workers).  A key pair builds its OpenSSL key object on its
first signature and keeps it, out of the pickled state; rebuilding it
per call doubled the cost of a signature.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass


@functools.lru_cache(maxsize=None)
def _ed25519():
    """``cryptography``'s Ed25519 module and its verify failure."""
    try:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric import ed25519
    except ImportError as exc:
        raise ModuleNotFoundError(
            "client signatures run Ed25519 on OpenSSL and need the "
            "'cryptography' package",
            name="cryptography",
        ) from exc
    return ed25519, InvalidSignature


@dataclass(frozen=True)
class SigningKeyPair:
    secret: bytes
    public: bytes

    def __getstate__(self) -> dict:
        return {"secret": self.secret, "public": self.public}

    @classmethod
    def generate(cls, rng=None) -> "SigningKeyPair":
        """A fresh key pair, seeded from the OS CSPRNG unless a test
        passes ``rng``."""
        secret = os.urandom(32) if rng is None else rng.randbytes(32)
        ed25519, _ = _ed25519()
        key = ed25519.Ed25519PrivateKey.from_private_bytes(secret)
        return cls(secret=secret, public=key.public_key().public_bytes_raw())


def sign(keypair: SigningKeyPair, message: bytes) -> bytes:
    """The 64-byte signature of ``message``."""
    key = getattr(keypair, "_openssl_key", None)
    if key is None:
        ed25519, _ = _ed25519()
        key = ed25519.Ed25519PrivateKey.from_private_bytes(keypair.secret)
        object.__setattr__(keypair, "_openssl_key", key)
    return key.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature; False (never an exception) on any mismatch,
    a malformed key or signature included."""
    ed25519, invalid_signature = _ed25519()
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public).verify(
            signature, message
        )
    except (invalid_signature, TypeError, ValueError):
        return False
    return True
