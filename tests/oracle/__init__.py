"""Scalar references the deployed paths are tested against.

The deployment's one client entry point is the batched
``PrioClient.prepare_submissions``.  :func:`scalar_prepare_submission`
is the per-value client it must match byte for byte: encode, prove with
:func:`~repro.snip.build_proof`, share with the scalar sharers, frame,
seal — one value at a time, drawing from ``client.rng`` in the order the
batched client's phase 1 does.
"""

from repro.protocol import (
    ClientSubmission,
    PacketKind,
    new_submission_id,
    packets_for_explicit_bodies,
    packets_for_share_bodies,
    seal_packet,
)
from repro.sharing import expand_seed, prg_share_vector, share_vector
from repro.snip import build_proof


def scalar_prepare_submission(client, value) -> ClientSubmission:
    """Encode, prove, share and frame one value under ``client``'s
    configuration and rng, one scalar step at a time."""
    field = client.field
    encoding = client.afe.encode(value, client.rng)
    if client.circuit is not None:
        proof = build_proof(field, client.circuit, encoding, client.rng)
        vector = encoding + proof.flatten()
    else:
        vector = list(encoding)
    submission_id = new_submission_id(client.rng)
    if client.use_prg_compression and client.n_servers > 1:
        seeds, explicit = prg_share_vector(
            field, vector, client.n_servers, client.rng
        )
        packets = packets_for_share_bodies(
            submission_id, seeds, field.encode_vector(explicit), len(vector)
        )
    else:
        shares = share_vector(field, vector, client.n_servers, client.rng)
        packets = packets_for_explicit_bodies(
            submission_id,
            [field.encode_vector(share) for share in shares],
            len(vector),
        )
    sealed = None
    if client.server_box_keys is not None:
        sealed = [
            seal_packet(key, packet, client.rng)
            for key, packet in zip(client.server_box_keys, packets)
        ]
    return ClientSubmission(submission_id, packets, sealed)


def packet_share_vector(packet, field) -> "list[int]":
    """One packet's share vector as ints: a SEED body expanded, an
    EXPLICIT body decoded."""
    if packet.kind is PacketKind.SEED:
        return expand_seed(field, packet.body, packet.n_elements)
    return field.decode_vector(packet.body)
