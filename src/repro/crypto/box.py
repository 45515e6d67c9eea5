"""Authenticated public-key encryption ("box"): RFC 9180 HPKE.

Stands in for NaCl's box primitive (Section 6: "Clients encrypt and
sign their messages to servers using NaCl's 'box' primitive, which
obviates the need for client-to-server TLS connections").  NaCl's box
runs on Curve25519; so does this one.

The scheme is RFC 9180 HPKE in base mode with the suite
DHKEM(X25519, HKDF-SHA256), HKDF-SHA256, AES-128-GCM, the suite DAP
uses for Prio report shares.  A box is ``enc || ciphertext || tag``:
the 32-byte ephemeral public key, then AES-128-GCM's output, so it
costs 48 bytes over its plaintext.  The caller's *associated data*
(the wire envelope of :mod:`repro.protocol.wire`) is bound as HPKE's
``info``: it enters the key schedule, so a box opened under any other
envelope fails authentication, and it is not part of the output.  The
AEAD's own associated data is empty.

An open is one call to ``cryptography``'s
``hpke.Suite(...).decrypt``.  A seal is the RFC's encapsulation and
key schedule written out below on :func:`hmac.digest`, plus one X25519
exchange and one ``AESGCM.encrypt``, because the library's
``Suite.encrypt`` draws its ephemeral key inside OpenSSL: here it is
the caller's ``rng.randbytes(32)``, so a seeded ``rng`` gives the same
bytes every run (the upload pins and the benchmark's staged-upload
check rely on that).  The library's ``decrypt`` checks every seal's
key schedule: a wrong key or nonce fails the GCM tag.

``cryptography`` is a required dependency, imported on the first key
generation, seal or open, so a cleartext client or server never loads
it; where it does not import, that call raises
:class:`ModuleNotFoundError` naming the package.  A recipient key that
is not 32 bytes, or one of low order (its exchange gives the all-zero
secret, a constant any eavesdropper knows), raises
:class:`CryptoError`.  Every open failure, a tampered ``enc``,
ciphertext, tag or envelope, a low-order ``enc``, a wrong key or a
truncated box, is the library's ``InvalidTag`` and raises the one
``CryptoError("box authentication failed")``.
"""

from __future__ import annotations

import functools
import hmac
import random as _random
from dataclasses import dataclass

from repro.crypto.primitives import CryptoError

KEY_BYTES = 32

_INVALID_RECIPIENT = "invalid recipient public key"

# RFC 9180 identifiers: DHKEM(X25519, HKDF-SHA256) = 0x0020,
# HKDF-SHA256 = 0x0001, AES-128-GCM = 0x0001
_KEM_SUITE = b"KEM\x00\x20"
_HPKE_SUITE = b"HPKE\x00\x20\x00\x01\x00\x01"
_AEAD_KEY_BYTES = 16
_NONCE_BYTES = 12


def _extract(salt: bytes, ikm: bytes) -> bytes:
    return hmac.digest(salt, ikm, "sha256")


def _labeled_extract(suite, salt: bytes, label: bytes, ikm: bytes):
    return _extract(salt, b"HPKE-v1" + suite + label + ikm)


def _labeled_expand(suite, prk, label: bytes, info: bytes, length: int):
    # one HKDF-Expand block: every output here is at most 32 bytes
    labeled = length.to_bytes(2, "big") + b"HPKE-v1" + suite + label + info
    return hmac.digest(prk, labeled + b"\x01", "sha256")[:length]


#: base mode (0x00) with the empty PSK id: the key schedule context's
#: prefix, fixed by the suite
_MODE_PSK_ID = b"\x00" + _labeled_extract(
    _HPKE_SUITE, b"", b"psk_id_hash", b""
)
#: ``LabeledExtract(shared_secret, "secret", psk)`` with the empty PSK
_SECRET_SUFFIX = b"HPKE-v1" + _HPKE_SUITE + b"secret"


def _key_schedule(dh: bytes, enc: bytes, recipient: bytes, info: bytes):
    """RFC 9180 Encap's shared secret, then the base-mode key schedule:
    ``(AEAD key, base nonce)``."""
    kem_context = enc + recipient
    eae_prk = _labeled_extract(_KEM_SUITE, b"", b"eae_prk", dh)
    shared_secret = _labeled_expand(
        _KEM_SUITE, eae_prk, b"shared_secret", kem_context, KEY_BYTES
    )
    context = _MODE_PSK_ID + _labeled_extract(
        _HPKE_SUITE, b"", b"info_hash", info
    )
    secret = _extract(shared_secret, _SECRET_SUFFIX)
    key = _labeled_expand(
        _HPKE_SUITE, secret, b"key", context, _AEAD_KEY_BYTES
    )
    nonce = _labeled_expand(
        _HPKE_SUITE, secret, b"base_nonce", context, _NONCE_BYTES
    )
    return key, nonce


@functools.lru_cache(maxsize=None)
def _openssl():
    """``(x25519 module, AESGCM, HPKE suite, InvalidTag)``.

    Imported on the first key generation, seal or open rather than
    with this module: every client and server imports the box, and a
    cleartext one must not pay the import.
    """
    try:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives import hpke
        from cryptography.hazmat.primitives.asymmetric import x25519
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    except ImportError as exc:
        raise ModuleNotFoundError(
            "the sealed box runs HPKE on OpenSSL and needs the "
            "'cryptography' package",
            name="cryptography",
        ) from exc
    suite = hpke.Suite(
        hpke.KEM.X25519, hpke.KDF.HKDF_SHA256, hpke.AEAD.AES_128_GCM
    )
    return x25519, AESGCM, suite, InvalidTag


@dataclass(frozen=True)
class BoxKeyPair:
    """A long-term decryption key pair for one server: the raw 32-byte
    X25519 private and public keys.

    The first open caches the key's OpenSSL form on the instance; it is
    left out of the pickled state (process workers receive the server's
    key pair and build their own).
    """

    secret: bytes
    public: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != KEY_BYTES or len(self.public) != KEY_BYTES:
            raise CryptoError("box keys must be 32 bytes each")

    def __getstate__(self) -> dict:
        return {"secret": self.secret, "public": self.public}

    @classmethod
    def generate(cls, rng=None) -> "BoxKeyPair":
        # Secrets must come from the OS CSPRNG by default; a seeded
        # Mersenne Twister is only acceptable when a test injects it.
        if rng is None:
            rng = _random.SystemRandom()
        secret = rng.randbytes(KEY_BYTES)
        x25519 = _openssl()[0]
        key = x25519.X25519PrivateKey.from_private_bytes(secret)
        return cls(secret=secret, public=key.public_key().public_bytes_raw())

    def _private_key(self):
        """The OpenSSL private key, built once per instance."""
        key = getattr(self, "_openssl_key", None)
        if key is None:
            x25519 = _openssl()[0]
            key = x25519.X25519PrivateKey.from_private_bytes(self.secret)
            object.__setattr__(self, "_openssl_key", key)
        return key


#: Recipients' OpenSSL public keys by raw bytes.  A sealing client uses
#: one entry per server; a process that cycles through more than the
#: bound starts over rather than grow.
_RECIPIENT_CACHE: dict = {}
_RECIPIENT_CACHE_SIZE = 32


def _recipient_key(x25519, recipient_public: bytes):
    """The cached OpenSSL key of ``recipient_public``, built on a miss."""
    valid = isinstance(recipient_public, bytes)
    if not valid or len(recipient_public) != KEY_BYTES:
        raise CryptoError(_INVALID_RECIPIENT)
    key = _RECIPIENT_CACHE.get(recipient_public)
    if key is None:
        key = x25519.X25519PublicKey.from_public_bytes(recipient_public)
        if len(_RECIPIENT_CACHE) >= _RECIPIENT_CACHE_SIZE:
            _RECIPIENT_CACHE.clear()
        _RECIPIENT_CACHE[recipient_public] = key
    return key


def seal(
    recipient_public: bytes,
    plaintext: bytes,
    rng=None,
    associated_data: bytes = b"",
) -> bytes:
    """Encrypt-and-authenticate ``plaintext`` to the recipient.

    ``associated_data`` is authenticated (as HPKE ``info``) but not
    encrypted or included in the output: the opener must present the
    same bytes.  The one random draw is the ephemeral secret,
    ``rng.randbytes(32)``.  Raises :class:`CryptoError` for an invalid
    ``recipient_public``.
    """
    if rng is None:
        rng = _random.SystemRandom()
    ephemeral_secret = rng.randbytes(KEY_BYTES)
    x25519, aesgcm, _, _ = _openssl()
    recipient = _recipient_key(x25519, recipient_public)
    ephemeral = x25519.X25519PrivateKey.from_private_bytes(ephemeral_secret)
    try:
        dh = ephemeral.exchange(recipient)
    except ValueError:
        # the all-zero secret: a low-order recipient key
        raise CryptoError(_INVALID_RECIPIENT) from None
    enc = ephemeral.public_key().public_bytes_raw()
    key, nonce = _key_schedule(dh, enc, recipient_public, associated_data)
    return enc + aesgcm(key).encrypt(nonce, plaintext, None)


def open_box(
    keypair: BoxKeyPair,
    sealed: bytes,
    associated_data: bytes = b"",
) -> bytes:
    """Verify and decrypt a sealed box; raises CryptoError on tamper."""
    _, _, suite, invalid_tag = _openssl()
    try:
        return suite.decrypt(
            sealed, keypair._private_key(), info=associated_data
        )
    except invalid_tag as exc:
        # the cause keeps no frames: a refusal must not pin its batch
        raise CryptoError("box authentication failed") from (
            exc.with_traceback(None)
        )
