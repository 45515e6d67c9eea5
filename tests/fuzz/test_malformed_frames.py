"""Regression corpus of malformed wire frames.

Each case is a concrete adversarial input the transport stack must
survive with *offender-only* rejection: the malformed frame (or
packet position) is refused with a typed protocol error, every honest
position in the same batch still verifies, and no error ever escapes
as a bare ``OverflowError``/``IndexError``/crash.

The corpus drives the three untrusted-input seams end to end:

* :class:`~repro.transport.framing.FrameAssembler` — byte-stream
  deframing (truncation, oversized length prefixes, fragmentation);
* :meth:`PrioServer.receive_wire_batch` — per-position packet decode
  (oversized ``n_elements``, non-canonical limb bytes, duplicated
  submission ids);
* :meth:`PrioServer.receive_sealed_batch` — sealed packets (malformed
  ephemeral points, MAC tampering, grafted or lying envelopes).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afe import IntegerSumAfe
from repro.field import FIELD87, FieldError
from repro.protocol import PrioDeployment
from repro.protocol.server import PendingSubmission, ProtocolError
from repro.protocol.wire import ClientPacket, MAX_N_ELEMENTS, PacketKind
from repro.transport.framing import FrameAssembler, FrameError

_HEADER_SIZE = 26  # magic(2) version(1) kind(1) sid(16) idx(2) n(4)


def _deployment(seed=b"fuzz"):
    return PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 3, seed=seed, batch_size=4,
        rng=random.Random(7),
    )


def _explicit_index(submission):
    """Server index receiving the EXPLICIT share (others get seeds)."""
    for packet in submission.packets:
        if packet.kind is PacketKind.EXPLICIT:
            return packet.server_index
    raise AssertionError("no explicit packet in submission")


def _payloads_for(submissions, server_index):
    return [
        next(
            p for p in s.packets if p.server_index == server_index
        ).encode()
        for s in submissions
    ]


# ---------------------------------------------------------------------
# FrameAssembler: stream-level malformations
# ---------------------------------------------------------------------


def test_truncated_length_prefix_stays_pending():
    asm = FrameAssembler()
    # 2 of the 4 prefix bytes: not a frame, not an error
    assert asm.feed(b"\x00\x00") == []
    assert asm.buffered_bytes == 2
    # completing the prefix and body yields exactly the one frame
    assert asm.feed(b"\x00\x03ab") == []
    assert asm.feed(b"c") == [b"abc"]
    assert asm.buffered_bytes == 0


def test_truncated_body_stays_pending():
    asm = FrameAssembler()
    payload = b"x" * 10
    frame = len(payload).to_bytes(4, "big") + payload
    assert asm.feed(frame[:-1]) == []
    assert asm.buffered_bytes == len(frame) - 1
    assert asm.feed(frame[-1:]) == [payload]


def test_oversized_length_prefix_poisons_before_buffering():
    asm = FrameAssembler(max_frame=64)
    claim = (65).to_bytes(4, "big")
    with pytest.raises(FrameError):
        asm.feed(claim)
    # poisoned: even innocent bytes are refused afterwards
    with pytest.raises(FrameError):
        asm.feed(b"\x00\x00\x00\x01a")


def test_oversized_claim_after_good_frame_keeps_good_frame():
    asm = FrameAssembler(max_frame=64)
    good = len(b"ok").to_bytes(4, "big") + b"ok"
    huge = (1 << 30).to_bytes(4, "big")
    with pytest.raises(FrameError):
        asm.feed(good + huge)


@given(
    payloads=st.lists(st.binary(min_size=0, max_size=40), max_size=6),
    cut=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_fragmentation_never_changes_reassembly(payloads, cut):
    stream = b"".join(
        len(p).to_bytes(4, "big") + p for p in payloads
    )
    asm = FrameAssembler()
    out = []
    for i in range(0, len(stream), cut):
        out.extend(asm.feed(stream[i:i + cut]))
    assert out == payloads
    assert asm.buffered_bytes == 0


# ---------------------------------------------------------------------
# receive_wire_batch: packet-level malformations, offender-only
# ---------------------------------------------------------------------


def _assert_offender_only(out, bad_positions, exc_type):
    for i, result in enumerate(out):
        if i in bad_positions:
            assert isinstance(result, exc_type), (i, result)
        else:
            assert isinstance(result, PendingSubmission), (i, result)


def test_oversized_n_elements_rejects_offender_only():
    from repro.protocol.wire import WireError

    dep = _deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    idx = _explicit_index(subs[0])
    payloads = _payloads_for(subs, idx)

    bad = bytearray(payloads[1])
    bad[22:26] = (MAX_N_ELEMENTS + 1).to_bytes(4, "big")
    payloads[1] = bytes(bad)

    out = dep.servers[idx].receive_wire_batch(payloads)
    _assert_offender_only(out, {1}, WireError)


def test_non_canonical_limb_bytes_reject_offender_only():
    dep = _deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    idx = _explicit_index(subs[0])
    payloads = _payloads_for(subs, idx)

    # an EXPLICIT body of all-ones bytes encodes values >= p: the
    # plane decode must refuse the row, not canonicalize it silently
    bad = bytearray(payloads[0])
    bad[_HEADER_SIZE:] = b"\xff" * (len(bad) - _HEADER_SIZE)
    payloads[0] = bytes(bad)

    out = dep.servers[idx].receive_wire_batch(payloads)
    _assert_offender_only(out, {0}, FieldError)


def test_duplicated_submission_id_rejects_the_replay_only():
    dep = _deployment()
    subs = dep.client.prepare_submissions([4, 5])
    idx = _explicit_index(subs[0])
    payloads = _payloads_for(subs, idx)
    payloads.append(payloads[0])  # in-batch replay of position 0

    out = dep.servers[idx].receive_wire_batch(payloads)
    _assert_offender_only(out, {2}, ProtocolError)


def test_truncated_packet_header_rejects_offender_only():
    from repro.protocol.wire import WireError

    dep = _deployment()
    subs = dep.client.prepare_submissions([6, 7])
    idx = _explicit_index(subs[0])
    payloads = _payloads_for(subs, idx)
    payloads[0] = payloads[0][:_HEADER_SIZE - 3]

    out = dep.servers[idx].receive_wire_batch(payloads)
    _assert_offender_only(out, {0}, WireError)


# ---------------------------------------------------------------------
# receive_sealed_batch: sealed-packet malformations, offender-only
# ---------------------------------------------------------------------


def _sealed_deployment(seed=b"fuzz-sealed"):
    return PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 3, seed=seed, batch_size=4,
        rng=random.Random(11), encrypt=True,
    )


def _sealed_payloads_for(submissions, server_index):
    return [list(s.sealed_packets)[server_index] for s in submissions]


def test_sealed_malformed_ephemeral_point_rejects_offender_only():
    from repro.crypto import CryptoError
    from repro.protocol.wire import ENVELOPE_SIZE

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    payloads = _sealed_payloads_for(subs, 0)

    # garbage point bytes behind an intact envelope: the typed
    # CryptoError (not a bare EcError) poisons only this position
    bad = bytearray(payloads[1])
    bad[ENVELOPE_SIZE] = 0x07  # invalid compressed-point prefix
    payloads[1] = bytes(bad)

    out = dep.servers[0].receive_sealed_batch(payloads)
    _assert_offender_only(out, {1}, CryptoError)


def test_sealed_mac_tamper_rejects_offender_only():
    from repro.crypto import CryptoError

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    payloads = _sealed_payloads_for(subs, 0)

    bad = bytearray(payloads[2])
    bad[-1] ^= 1
    payloads[2] = bytes(bad)

    out = dep.servers[0].receive_sealed_batch(payloads)
    _assert_offender_only(out, {2}, CryptoError)


def test_sealed_grafted_envelope_rejects_offender_only():
    """Envelope A on box B: the box MAC covers the envelope as
    associated data, so the graft fails authentication — the attacker
    cannot re-route an honest box under a different cleartext id."""
    from repro.crypto import CryptoError
    from repro.protocol.wire import ENVELOPE_SIZE

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    payloads = _sealed_payloads_for(subs, 0)

    grafted = payloads[0][:ENVELOPE_SIZE] + payloads[1][ENVELOPE_SIZE:]
    # replace position 1 so the honest copy of envelope 0 (position 0)
    # is still a fresh id when it arrives
    payloads[1] = grafted

    out = dep.servers[0].receive_sealed_batch(payloads)
    _assert_offender_only(out, {1}, CryptoError)


def test_sealed_envelope_sid_mismatch_rejects_offender_only():
    """A lying envelope sid with a *valid* box (sealed by the client
    itself under the forged envelope) opens fine but must be refused
    when the authenticated inner header disagrees."""
    from repro.protocol.wire import encode_envelope, seal_packet
    from repro.crypto.box import seal

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    payloads = _sealed_payloads_for(subs, 0)

    packet = subs[1].packets[0]
    forged_env = encode_envelope(b"\xEE" * 16, packet.server_index)
    payloads[1] = forged_env + seal(
        dep.client.server_box_keys[0], packet.encode(),
        random.Random(3), associated_data=forged_env,
    )

    out = dep.servers[0].receive_sealed_batch(payloads)
    _assert_offender_only(out, {1}, ProtocolError)


def test_sealed_envelope_index_mismatch_rejects_offender_only():
    """Envelope says server 0, the sealed packet inside is addressed
    to server 1: reject that offender alone."""
    from repro.protocol.wire import encode_envelope
    from repro.crypto.box import seal

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2, 3])
    payloads = _sealed_payloads_for(subs, 0)

    wrong_packet = subs[1].packets[1]  # addressed to server 1
    env = encode_envelope(wrong_packet.submission_id, 0)
    payloads[1] = env + seal(
        dep.client.server_box_keys[0], wrong_packet.encode(),
        random.Random(4), associated_data=env,
    )

    out = dep.servers[0].receive_sealed_batch(payloads)
    _assert_offender_only(out, {1}, ProtocolError)


def test_sealed_truncated_envelope_rejects_offender_only():
    from repro.protocol.wire import WireError

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2])
    payloads = _sealed_payloads_for(subs, 0)
    payloads.append(payloads[0][:10])

    out = dep.servers[0].receive_sealed_batch(payloads)
    _assert_offender_only(out, {2}, WireError)


def test_sealed_to_keyless_server_rejects_per_position():
    """A sealed packet sent to a deployment without box keys is a typed
    per-position refusal like every other receive failure — never a
    whole-call raise, which the drivers would count as a backend crash
    (retryable forever) and which would take batchmates down with it."""
    from repro.protocol.wire import WireError

    subs = _sealed_deployment().client.prepare_submissions([1, 2])
    keyless = _deployment().servers[0]
    payloads = _sealed_payloads_for(subs, 0)
    payloads.append(payloads[0][:10])  # truncated envelope: still WireError

    out = keyless.receive_sealed_batch(payloads)
    assert [type(r) for r in out] == [ProtocolError, ProtocolError, WireError]
    assert "no box key" in str(out[0])
    assert not keyless._pending_ids
    assert keyless.n_replayed == 0


def test_sealed_replay_precheck_never_opens_the_box(monkeypatch):
    """A replayed envelope sid is refused before the two scalar
    multiplications of open_box are paid."""
    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1])
    server = dep.servers[0]
    sealed = list(subs[0].sealed_packets)[0]

    first = server.receive_sealed_batch([sealed])
    assert isinstance(first[0], PendingSubmission)

    def _boom(*args, **kwargs):
        raise AssertionError("open_box called for a replayed id")

    monkeypatch.setattr("repro.protocol.server.open_box", _boom)
    out = server.receive_sealed_batch([sealed])
    assert isinstance(out[0], ProtocolError)
    assert server.n_replayed == 1


def test_sealed_survivors_of_a_poisoned_batch_still_verify():
    """Honest sealed positions alongside rejected ones complete the
    SNIP rounds — the sealed batch path feeds the same fused decode."""
    from repro.crypto import CryptoError

    dep = _sealed_deployment()
    subs = dep.client.prepare_submissions([1, 2])

    survivors = []
    for s, server in enumerate(dep.servers):
        batch = _sealed_payloads_for(subs, s)
        if s == 0:
            tampered = bytearray(batch[0])
            tampered[-1] ^= 1
            batch[0] = bytes(tampered)
        results = server.receive_sealed_batch(batch)
        if s == 0:
            assert isinstance(results[0], CryptoError)
        kept = [r for r in results if isinstance(r, PendingSubmission)]
        aligned = [
            r for r in kept if r.submission_id == subs[1].submission_id
        ]
        for stray in kept:
            if stray not in aligned:
                server.abandon(stray)
        survivors.append(aligned)

    parties, r1 = zip(*(
        server.begin_verification_batch(pendings)
        for server, pendings in zip(dep.servers, survivors)
    ))
    r2 = [
        server.finish_verification_batch(party, list(r1))
        for server, party in zip(dep.servers, parties)
    ]
    for server, pendings in zip(dep.servers, survivors):
        decisions = server.decide_batch(list(r2))
        assert decisions == [True]
        server.accumulate_batch(pendings, decisions)


def test_survivors_of_a_poisoned_batch_still_verify():
    """Honest positions alongside rejected ones complete the rounds."""
    dep = _deployment()
    subs = dep.client.prepare_submissions([1, 2])
    idx = _explicit_index(subs[0])

    survivors = []
    for s, server in enumerate(dep.servers):
        batch = _payloads_for(subs, s)
        if s == idx:
            tampered = bytearray(batch[0])
            tampered[_HEADER_SIZE:] = b"\xff" * (
                len(tampered) - _HEADER_SIZE
            )
            batch[0] = bytes(tampered)
        results = server.receive_wire_batch(batch)
        if s == idx:
            assert isinstance(results[0], FieldError)
        kept = [r for r in results if isinstance(r, PendingSubmission)]
        # drop the poisoned row's partners so the verification batch
        # stays position-aligned across servers
        aligned = [
            r for r in kept if r.submission_id == subs[1].submission_id
        ]
        for stray in kept:
            if stray not in aligned:
                server.abandon(stray)
        survivors.append(aligned)

    parties, r1 = zip(*(
        server.begin_verification_batch(pendings)
        for server, pendings in zip(dep.servers, survivors)
    ))
    r2 = [
        server.finish_verification_batch(party, list(r1))
        for server, party in zip(dep.servers, parties)
    ]
    for server, pendings in zip(dep.servers, survivors):
        decisions = server.decide_batch(list(r2))
        assert decisions == [True]
        server.accumulate_batch(pendings, decisions)
