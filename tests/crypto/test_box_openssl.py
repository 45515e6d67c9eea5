"""The OpenSSL box open against the pure ladder it replaces.

:func:`repro.crypto.box.open_box` runs its ECDH on OpenSSL when
``cryptography`` imports.  The pure path (the loader patched to find
nothing) is the oracle: every box of a seeded sealed batch, honest or
tampered, must open to the same plaintext or fail with the same
:class:`CryptoError` both ways.
"""

import random

import pytest

pytest.importorskip("cryptography")

from repro.afe import IntegerSumAfe  # noqa: E402
from repro.crypto import BoxKeyPair, CryptoError, box, seal  # noqa: E402
from repro.ec import Point, p256, reset_op_counter  # noqa: E402
from repro.ec import scalar_mult, scalar_mult_count  # noqa: E402
from repro.field import FIELD87  # noqa: E402
from repro.protocol import PrioDeployment  # noqa: E402
from repro.protocol.wire import ENVELOPE_SIZE  # noqa: E402

N_SERVERS = 2


@pytest.fixture(scope="module")
def batch():
    """``(key pairs, [(server, envelope, box)])`` for a seeded batch of
    sealed uploads."""
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), N_SERVERS, seed=b"box-openssl",
        rng=random.Random(0xB0C5), encrypt=True,
    )
    try:
        submissions = deployment.client.prepare_submissions(
            [v % 16 for v in range(24)]
        )
        keypairs = [s.box_keypair for s in deployment.servers]
    finally:
        deployment.close()
    boxes = [
        (s, data[:ENVELOPE_SIZE], data[ENVELOPE_SIZE:])
        for sub in submissions
        for s, data in enumerate(sub.sealed_packets)
    ]
    return keypairs, boxes


def _flip(data, index):
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def _with_point(box_bytes, prefix, x):
    return bytes([prefix]) + x.to_bytes(32, "big") + box_bytes[33:]


def _abscissa(start, on_curve):
    """The smallest x >= ``start`` that is (or is not) the x of a
    curve point."""
    x = start
    while True:
        rhs = (x * x * x + p256.A * x + p256.B) % p256.P
        if (pow(rhs, (p256.P - 1) // 2, p256.P) <= 1) == on_curve:
            return x
        x += 1


def _tampered(keypairs, boxes):
    """``(name, keypair, box, associated data)`` per tampered class."""
    server, envelope, honest = boxes[0]
    keypair = keypairs[server]
    # p + x for an abscissa x: a kernel that reduced x before checking
    # its range would find a curve point
    beyond_p = p256.P + _abscissa(0, on_curve=True)
    off_curve = _abscissa(1, on_curve=False)
    yield "ciphertext", keypair, _flip(honest, 40), envelope
    yield "tag", keypair, _flip(honest, len(honest) - 1), envelope
    yield "associated data", keypair, honest, _flip(envelope, 5)
    yield "x >= p", keypair, _with_point(honest, 0x02, beyond_p), envelope
    yield "off curve", keypair, _with_point(honest, 0x03, off_curve), envelope
    for prefix in (0x00, 0x04, 0xFF):
        tampered = bytes([prefix]) + honest[1:]
        yield f"prefix {prefix:#04x}", keypair, tampered, envelope
    yield "other key", keypairs[1 - server], honest, envelope
    yield "too short", keypair, honest[:48], envelope


def _outcome(keypair, box_bytes, associated_data):
    try:
        return box.open_box(keypair, box_bytes, associated_data)
    except CryptoError as exc:
        return (type(exc), str(exc))


def _both_ways(monkeypatch, cases):
    fast = [_outcome(*case) for case in cases]
    with monkeypatch.context() as patched:
        patched.setattr(box, "_openssl_ec", lambda: None)
        pure = [_outcome(*case) for case in cases]
    return fast, pure


def test_the_batch_exercises_both_parities(batch):
    keypairs, boxes = batch
    parities = {
        scalar_mult(keypairs[s].secret, Point.decode(b[:33])).y & 1
        for s, _, b in boxes
    }
    assert parities == {0, 1}


def test_honest_boxes_open_identically(batch, monkeypatch):
    keypairs, boxes = batch
    cases = [(keypairs[s], b, env) for s, env, b in boxes]
    reset_op_counter()
    fast, pure = _both_ways(monkeypatch, cases)
    # the pure path pays one ladder per box; the OpenSSL path none
    assert scalar_mult_count() == len(cases)
    assert fast == pure
    assert all(isinstance(p, bytes) for p in fast)


def test_tampered_boxes_fail_identically(batch, monkeypatch):
    keypairs, boxes = batch
    cases = list(_tampered(keypairs, boxes))
    fast, pure = _both_ways(monkeypatch, [case[1:] for case in cases])
    for (name, *_), got, want in zip(cases, fast, pure):
        assert got == want, name
        assert isinstance(got, tuple), name


def test_both_parities_verifying_defers_to_the_ladder(batch, monkeypatch):
    # only a forged tag verifies under both prefixes' keys; a forced
    # "verify" makes the OpenSSL path hand the box to the ladder,
    # which decrypts under the true parity
    keypairs, boxes = batch
    cases = [(keypairs[s], b, env) for s, env, b in boxes]
    honest = [box.open_box(*case) for case in cases]
    monkeypatch.setattr(box, "mac_verify", lambda *args: True)
    assert [box.open_box(*case) for case in cases] == honest


def test_malformed_point_errors_hold_no_frames(monkeypatch):
    rng = random.Random(3)
    keypair = BoxKeyPair.generate(rng)
    sealed = b"\x04" + seal(keypair.public, b"payload", rng)[1:]
    for loader in (box._openssl_ec, lambda: None):
        monkeypatch.setattr(box, "_openssl_ec", loader)
        with pytest.raises(CryptoError, match="ephemeral point") as info:
            box.open_box(keypair, sealed)
        assert info.value.__cause__.__traceback__ is None
