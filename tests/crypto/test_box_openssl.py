"""The HPKE box against ``cryptography``'s own RFC 9180 HPKE.

:func:`repro.crypto.box.open_box` is the library's
``hpke.Suite(KEM.X25519, KDF.HKDF_SHA256, AEAD.AES_128_GCM).decrypt``;
:func:`repro.crypto.box.seal` writes the RFC's key schedule out so that
its ephemeral key is the caller's ``rng`` draw.  Here every seal of a
seeded sealed batch must open under the library's ``decrypt`` with the
envelope as ``info``, a box from the library's ``encrypt`` must open
under :func:`open_box`, and a tampered box must fail both ways.  The
key schedule is checked against RFC 9180's own test vector.
"""

import concurrent.futures
import multiprocessing
import random

import pytest

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidTag  # noqa: E402
from cryptography.hazmat.primitives import hpke  # noqa: E402
from cryptography.hazmat.primitives.asymmetric import x25519  # noqa: E402

from repro.afe import IntegerSumAfe  # noqa: E402
from repro.crypto import BoxKeyPair, CryptoError, box  # noqa: E402
from repro.field import FIELD87  # noqa: E402
from repro.protocol import PrioDeployment  # noqa: E402
from repro.protocol.wire import ENVELOPE_SIZE  # noqa: E402

N_SERVERS = 2
SUITE = hpke.Suite(
    hpke.KEM.X25519, hpke.KDF.HKDF_SHA256, hpke.AEAD.AES_128_GCM
)
P25519 = 2**255 - 19


def _sealed_batch(seed=0xB0C5):
    """``(key pairs, submissions)`` for a seeded batch of sealed
    uploads."""
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), N_SERVERS, seed=b"box-openssl",
        rng=random.Random(seed), encrypt=True,
    )
    try:
        submissions = deployment.client.prepare_submissions(
            [v % 16 for v in range(24)]
        )
        keypairs = [s.box_keypair for s in deployment.servers]
    finally:
        deployment.close()
    return keypairs, submissions


@pytest.fixture(scope="module")
def batch():
    """``(key pairs, [(server, envelope, box, packet bytes)])``."""
    keypairs, submissions = _sealed_batch()
    boxes = [
        (s, data[:ENVELOPE_SIZE], data[ENVELOPE_SIZE:], packet.encode())
        for sub in submissions
        for s, (data, packet) in enumerate(
            zip(sub.sealed_packets, sub.packets)
        )
    ]
    return keypairs, boxes


def _library_key(keypair):
    return x25519.X25519PrivateKey.from_private_bytes(keypair.secret)


def _flip(data, index):
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def test_seeded_seals_are_identical(batch):
    keypairs, boxes = batch
    again_keypairs, again = _sealed_batch()
    assert again_keypairs == keypairs
    assert [
        data for sub in again for data in sub.sealed_packets
    ] == [env + sealed for _, env, sealed, _ in boxes]
    # a fresh ephemeral key per box: no two enc values repeat
    assert len({sealed[:32] for _, _, sealed, _ in boxes}) == len(boxes)
    other_keypairs, _ = _sealed_batch(seed=0xB0C6)
    assert other_keypairs != keypairs


def test_key_schedule_matches_rfc9180():
    # RFC 9180, Appendix A.1.1: DHKEM(X25519, HKDF-SHA256),
    # HKDF-SHA256, AES-128-GCM, base mode
    h = bytes.fromhex
    ephemeral = x25519.X25519PrivateKey.from_private_bytes(
        h("52c4a758a802cd8b936eceea314432798d5baf2d7e9235dc084ab1b9cfa2f736")
    )
    recipient = x25519.X25519PrivateKey.from_private_bytes(
        h("4612c550263fc8ad58375df3f557aac531d26850903e55a9f23f21d8534e8ac8")
    )
    enc = ephemeral.public_key().public_bytes_raw()
    assert enc == h(
        "37fda3567bdbd628e88668c3c8d7e97d1d1253b6d4ea6d44c150f741f1bf4431"
    )
    key, nonce = box._key_schedule(
        ephemeral.exchange(recipient.public_key()),
        enc,
        recipient.public_key().public_bytes_raw(),
        b"Ode on a Grecian Urn",
    )
    assert key == h("4531685d41d65f03dc48f6b8302c05b0")
    assert nonce == h("56d890e5accaaf011cff4b7d")


def test_honest_boxes_open_identically(batch):
    keypairs, boxes = batch
    for s, envelope, sealed, packet in boxes:
        assert len(sealed) == len(packet) + 48
        assert box.open_box(keypairs[s], sealed, envelope) == packet
        assert SUITE.decrypt(
            sealed, _library_key(keypairs[s]), info=envelope
        ) == packet


def test_library_encrypted_boxes_open():
    rng = random.Random(0x11B)
    keypair = BoxKeyPair.generate(rng)
    public = x25519.X25519PublicKey.from_public_bytes(keypair.public)
    for size in (0, 1, 101, 1000):
        plaintext = rng.randbytes(size)
        sealed = SUITE.encrypt(plaintext, public, info=b"envelope")
        assert box.open_box(keypair, sealed, b"envelope") == plaintext
        with pytest.raises(CryptoError, match="authentication failed"):
            box.open_box(keypair, sealed, b"envelopf")


def _tampered(keypairs, boxes):
    """``(name, keypair, box, envelope)`` per tampered class."""
    server, envelope, honest, _ = boxes[0]
    keypair = keypairs[server]
    yield "enc", keypair, _flip(honest, 3), envelope
    yield "ciphertext", keypair, _flip(honest, 40), envelope
    yield "tag", keypair, _flip(honest, len(honest) - 1), envelope
    yield "envelope", keypair, honest, _flip(envelope, 5)
    yield "no envelope", keypair, honest, b""
    yield "low-order enc", keypair, bytes(32) + honest[32:], envelope
    yield "other box's enc", keypair, boxes[2][2][:32] + honest[32:], envelope
    yield "other key", keypairs[1 - server], honest, envelope
    yield "truncated", keypair, honest[:-1], envelope
    yield "too short", keypair, honest[:40], envelope
    yield "empty", keypair, b"", envelope


def test_tampered_boxes_fail_identically(batch):
    keypairs, boxes = batch
    for _, keypair, sealed, envelope in _tampered(keypairs, boxes):
        with pytest.raises(CryptoError, match="authentication failed"):
            box.open_box(keypair, sealed, envelope)
        with pytest.raises(InvalidTag):
            SUITE.decrypt(sealed, _library_key(keypair), info=envelope)


def test_malformed_point_errors_hold_no_frames():
    rng = random.Random(3)
    keypair = BoxKeyPair.generate(rng)
    sealed = bytes(32) + box.seal(keypair.public, b"payload", rng)[32:]
    with pytest.raises(CryptoError, match="authentication failed") as info:
        box.open_box(keypair, sealed)
    assert isinstance(info.value.__cause__, InvalidTag)
    assert info.value.__cause__.__traceback__ is None


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(box, "_RECIPIENT_CACHE", {})


#: Low-order recipient keys: the identity and the 2-torsion point
#: (u = 0), a twist point off the curve (u = p - 1) and the
#: non-canonical encoding of u = 0 (u = p).
@pytest.mark.parametrize(
    "recipient",
    [0, P25519 - 1, P25519],
    ids=["identity", "off-curve", "x>=p"],
)
def test_invalid_recipients_fail_identically(fresh_cache, recipient):
    key = recipient.to_bytes(32, "little")
    for seed in range(2):
        with pytest.raises(CryptoError, match="invalid recipient"):
            box.seal(key, b"payload", random.Random(seed), b"env")
        with pytest.raises(ValueError):
            SUITE.encrypt(
                b"payload", x25519.X25519PublicKey.from_public_bytes(key),
                info=b"env",
            )


def test_recipient_cache_stays_bounded(fresh_cache):
    rng = random.Random(0xCAC4E)
    bound = box._RECIPIENT_CACHE_SIZE
    keypairs = [BoxKeyPair.generate(rng) for _ in range(bound + 3)]
    for keypair in keypairs:
        sealed = box.seal(keypair.public, b"m", rng)
        assert box.open_box(keypair, sealed) == b"m"
        assert len(box._RECIPIENT_CACHE) <= bound


def test_pickled_keypair_opens_in_a_process_worker(batch):
    # process workers receive the servers' key pairs by pickle: the
    # OpenSSL key each has cached by now (the opens above) must stay
    # home, and the worker, from a fresh import, builds its own
    keypairs, boxes = batch
    opened = [(keypairs[s], sealed, env, p) for s, env, sealed, p in boxes[:4]]
    for keypair, sealed, envelope, packet in opened:
        assert box.open_box(keypair, sealed, envelope) == packet
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
        results = list(pool.map(
            box.open_box, *zip(*[case[:3] for case in opened])
        ))
    assert results == [case[3] for case in opened]
