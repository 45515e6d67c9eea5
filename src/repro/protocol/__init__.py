"""The full Prio protocol: client, servers, and wire format.

Public surface
--------------

This docstring is the one place the protocol's entry points are listed
(``tests/protocol/test_surface.py`` compares it with the code, so the
surface cannot regrow unnoticed).  Everything that enters a server is
wire bytes, a batch at a time; one submission is a batch of one.

``PrioServer``: ``receive_wire_batch``, ``receive_sealed_batch`` (the
two receives — sealed is a pre-stage that opens boxes into the same
fused sweep), ``begin_verification_batch``,
``finish_verification_batch``, ``decide_batch``, ``accumulate_batch``,
``reject``, ``abandon``, ``add_dp_noise``, ``publish``; and the
state-residency seam the process backend uses — a worker copy runs on
a delta that one fold brings home: ``begin_run``, ``snapshot_state``,
``fold_shard_state``.

Replay protection is one Python set of decided submission ids per
server; only the ids one run decided cross back to the driver at its
end.

``PrioClient``: ``prepare_submissions`` (the one client entry point —
an upload of one value is a call with one value) and
``submission_elements``.

``PrioDeployment``: ``create``, then three ways in — ``submit``,
``submit_many``, ``deliver`` — and ``publish``, ``publish_shares``,
``close``.

``_ServerOps``: ``receive_wire``, ``receive_sealed``, ``ingest``,
``round1``, ``round2``, ``accumulate``, ``reject_all``,
``abandon_all``, ``abandon_open``, ``snapshot``.

The per-batch protocol itself — receive, survivor intersection,
ingest, the two SNIP rounds, decide, accumulate, and the one crash
policy — is written once, as :func:`receive_and_ingest` and
:func:`verify_and_accumulate` in :mod:`repro.protocol.pipeline`;
the deployment — the one in-memory driver, which ``GatedDeployment``
extends — drives it one batch after the other, like the socket front
end, over an execution backend chosen by one ``executor`` spelling
(:func:`resolve_fanout`: ``"inline"`` — also what ``None`` means — or
``"process"``, or a ready ``ServerFanout``).
The scalar SNIP oracles (:func:`repro.snip.build_proof`,
:func:`repro.snip.verify_snip`) stay as differential references; the
scalar client built from them lives with the tests, not here.
"""

from repro.protocol.client import ClientSubmission, PrioClient
from repro.protocol.dp import (
    DpError,
    add_noise_to_accumulator,
    discrete_laplace_scale,
    server_noise_share,
    server_noise_vector,
)
from repro.protocol.fanout import (
    EXECUTOR_KINDS,
    FanoutError,
    LocalFanout,
    ProcessFanout,
    ServerFanout,
    resolve_fanout,
)
from repro.protocol.pipeline import (
    IngestedBatch,
    receive_and_ingest,
    verify_and_accumulate,
)
from repro.protocol.registration import (
    ClientRegistry,
    GatedDeployment,
    GatedServer,
    RegisteredClient,
    RegistrationError,
    SignedPacket,
)
from repro.protocol.runner import DeploymentStats, PrioDeployment
from repro.protocol.server import PendingSubmission, PrioServer, ProtocolError
from repro.protocol.wire import (
    ENVELOPE_SIZE,
    MAX_N_ELEMENTS,
    ClientPacket,
    PacketKind,
    WireError,
    encode_envelope,
    is_sealed_payload,
    new_submission_id,
    parse_envelope,
    routing_id,
    seal_packet,
    packets_for_explicit_bodies,
    packets_for_share_bodies,
    total_upload_bytes,
)

__all__ = [
    "ClientSubmission",
    "PrioClient",
    "DpError",
    "add_noise_to_accumulator",
    "discrete_laplace_scale",
    "server_noise_share",
    "server_noise_vector",
    "EXECUTOR_KINDS",
    "FanoutError",
    "LocalFanout",
    "ProcessFanout",
    "ServerFanout",
    "resolve_fanout",
    "ClientRegistry",
    "GatedDeployment",
    "GatedServer",
    "RegisteredClient",
    "RegistrationError",
    "SignedPacket",
    "IngestedBatch",
    "receive_and_ingest",
    "verify_and_accumulate",
    "DeploymentStats",
    "PrioDeployment",
    "PendingSubmission",
    "PrioServer",
    "ProtocolError",
    "ENVELOPE_SIZE",
    "MAX_N_ELEMENTS",
    "ClientPacket",
    "PacketKind",
    "WireError",
    "encode_envelope",
    "is_sealed_payload",
    "new_submission_id",
    "parse_envelope",
    "routing_id",
    "seal_packet",
    "packets_for_explicit_bodies",
    "packets_for_share_bodies",
    "total_upload_bytes",
]
