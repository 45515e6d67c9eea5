"""The full Prio protocol: client, servers, wire format, and baselines.

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
state-residency seam the fan-out backends use: ``begin_run``,
``snapshot_state``, ``restore_state``, ``make_shard``,
``sync_shard_epoch``, ``fold_shard_state``, ``reset_run_deltas``.

``PrioDeployment``: ``create``, then three ways in — ``submit``,
``submit_many``, ``deliver`` — and ``publish``, ``publish_shares``,
``close``.

``_ServerOps``: ``receive_wire``, ``receive_sealed``, ``ingest``,
``round1``, ``round2``, ``accumulate``, ``reject_all``,
``abandon_all``, ``abandon_open``, ``snapshot``.

``ShardedFanout``: ``_plan_receive_wire``, ``_plan_receive_sealed``,
``_plan_ingest``, ``_plan_round1``, ``_plan_round2``,
``_plan_accumulate``, ``_plan_reject_all``, ``_plan_abandon_all``,
``_plan_abandon_open``.

The per-batch protocol itself — receive, survivor intersection,
ingest, the two SNIP rounds, decide, accumulate, and the one crash
policy — is written once, as :func:`receive_and_ingest` and
:func:`verify_and_accumulate` in :mod:`repro.protocol.pipeline`;
:class:`AsyncPrioPipeline` / :func:`run_pipelined` stage it over an
execution backend chosen by one ``executor`` spelling
(:func:`resolve_fanout`: ``"inline"`` / ``"thread"`` / ``"process"`` /
``"auto"``, ``":K"`` to shard).  The scalar SNIP oracle
(:func:`repro.snip.verify_snip`, ``PrioClient.prepare_submission``)
stays as the differential reference.
"""

from repro.protocol.baselines import NoPrivacyPipeline, NoRobustnessPipeline
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
    ShardedFanout,
    resolve_fanout,
    shard_of,
)
from repro.protocol.replay import (
    InMemoryReplayCache,
    ReplayCache,
    ReplayCacheError,
    TieredReplayCache,
    resolve_replay_cache,
)
from repro.protocol.pipeline import (
    AsyncPrioPipeline,
    IngestedBatch,
    PipelineStats,
    receive_and_ingest,
    run_pipelined,
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
    packets_for_explicit_shares,
    packets_for_share_bodies,
    packets_for_shares,
    total_upload_bytes,
)

__all__ = [
    "NoPrivacyPipeline",
    "NoRobustnessPipeline",
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
    "ShardedFanout",
    "resolve_fanout",
    "shard_of",
    "InMemoryReplayCache",
    "ReplayCache",
    "ReplayCacheError",
    "TieredReplayCache",
    "resolve_replay_cache",
    "ClientRegistry",
    "GatedDeployment",
    "GatedServer",
    "RegisteredClient",
    "RegistrationError",
    "SignedPacket",
    "AsyncPrioPipeline",
    "IngestedBatch",
    "PipelineStats",
    "receive_and_ingest",
    "run_pipelined",
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
    "packets_for_explicit_shares",
    "packets_for_share_bodies",
    "packets_for_shares",
    "total_upload_bytes",
]
