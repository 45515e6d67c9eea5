"""The Prio server (Appendix H, steps 2-4: Validate, Aggregate, Publish).

A :class:`PrioServer` holds one share of every client submission,
participates in the two-round SNIP verification with its peers, and on
success folds the truncated encoding share into its accumulator.
Publishing reveals only the accumulator — the sum of many clients'
shares — never an individual share.

Replay protection: submission ids are cached per epoch and duplicates
rejected before verification (the paper notes Prio packets "can be
replay-protected at the servers"); ids received but not yet decided
count too, so a replay *inside* a verification batch is caught.

Everything that enters a server is wire bytes, a batch at a time:
:meth:`PrioServer.receive_wire_batch` takes encoded packets,
:meth:`PrioServer.receive_sealed_batch` is a pre-stage that opens
sealed packets into the same fused sweep.  The
``begin_verification_batch``/``finish_verification_batch``/
``decide_batch`` triple then runs one
:class:`~repro.snip.verifier.BatchedSnipVerifierParty` sweep over the
whole batch, with per-submission decisions.  There is no scalar path:
one submission is a batch of one (the scalar SNIP oracle lives in
:mod:`repro.snip`).
"""

from __future__ import annotations

from repro.afe.base import Afe
from repro.crypto.box import BoxKeyPair, CryptoError, open_box
from repro.field.batch import (
    BatchVector,
    assemble_rows,
    decode_bytes_batch,
    tiny_batch_force_pure,
)
from repro.field.prime_field import FieldError
from repro.protocol.replay import ReplayCache, resolve_replay_cache
from repro.protocol.wire import (
    ENVELOPE_SIZE,
    ClientPacket,
    PacketKind,
    WireError,
    parse_envelope,
)
from repro.sharing.prg import expand_seed_batch
from repro.snip.proof import proof_num_elements
from repro.snip.verifier import (
    BatchedSnipVerifierParty,
    Round1Batch,
    Round2Batch,
    ServerRandomness,
    VerificationContext,
)


class ProtocolError(ValueError):
    """Raised on protocol violations (wrong server, replayed id, ...)."""


class PendingSubmission:
    """A received, frame-checked share awaiting verification.

    The share vector is *latent* until the batch is ingested: a SEED
    packet stores just its 16-byte PRG seed (expanded in one vectorized
    sweep per verification batch) and an EXPLICIT packet stores its row
    of the fused receive decode.  After ingest both point at their row
    of the batch's assembled ``(B, n)`` share matrix; the share never
    exists as Python ints.
    """

    def __init__(self, submission_id: bytes) -> None:
        self.submission_id = submission_id
        #: latent SEED source (dropped once the row is expanded)
        self._seed: bytes | None = None
        #: plane source: ``(matrix, row)``
        self._source: "tuple[BatchVector, int] | None" = None

    def release(self) -> None:
        """Drop every share source after the submission is settled.

        Long-running servers hold settled :class:`PendingSubmission`
        objects only for their ids; without this, each one would pin
        its seed or — transitively — a whole ingested plane matrix for
        as long as the caller keeps the handle.
        """
        self._seed = None
        self._source = None


class PrioServer:
    """One aggregation server for a single collection task."""

    def __init__(
        self,
        afe: Afe,
        server_index: int,
        n_servers: int,
        randomness: ServerRandomness,
        epoch_size: int = 1024,
        box_keypair: BoxKeyPair | None = None,
        force_pure_backend: bool | None = None,
        replay_cache: "ReplayCache | str | None" = None,
    ) -> None:
        self.afe = afe
        self.field = afe.field
        self.server_index = server_index
        self.n_servers = n_servers
        self.is_leader = server_index == 0
        self.randomness = randomness
        self.epoch_size = epoch_size
        self.box_keypair = box_keypair
        #: batch-backend override (None = auto-select numpy/pure)
        self.force_pure_backend = force_pure_backend
        self.circuit = afe.valid_circuit()

        #: the Aggregate state, plane-resident: decoded to Python ints
        #: only at :meth:`publish`
        self._accumulator = BatchVector.zeros(
            self.field, (afe.k_prime,),
            tiny_batch_force_pure(afe.k_prime, force_pure_backend),
        )
        self.n_accepted = 0
        self.n_rejected = 0
        self.n_replayed = 0
        #: replay protection behind the pluggable cache seam
        #: (:mod:`repro.protocol.replay`): the in-memory reference
        #: implementation by default, a tiered L1/L2 cache at scale
        self._replay: ReplayCache = resolve_replay_cache(replay_cache)
        #: ids received but not yet accumulated/rejected — closes the
        #: replay window *inside* a verification batch, where the first
        #: copy has not reached the replay cache yet
        self._pending_ids: set[bytes] = set()
        self._submissions_this_epoch = 0
        self._epoch = 0
        self._ctx: VerificationContext | None = None
        #: server-to-server field elements broadcast (Figure 6 metric)
        self.elements_broadcast = 0

    # ------------------------------------------------------------------
    # Epoch / context management (the fixed-r optimization)
    # ------------------------------------------------------------------

    def _context(self) -> VerificationContext | None:
        if self.circuit is None:
            return None
        if self._ctx is None or self._submissions_this_epoch >= self.epoch_size:
            if self._submissions_this_epoch >= self.epoch_size:
                self._epoch += 1
                self._submissions_this_epoch = 0
            challenge = self.randomness.challenge(
                self.field, self.circuit, self._epoch
            )
            self._ctx = VerificationContext(self.field, self.circuit, challenge)
        return self._ctx

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------

    def _batch_force(self, batch_size: int) -> "bool | None":
        """Backend choice for one ingest batch of ``batch_size`` rows.

        Explicit ``force_pure_backend`` wins; otherwise tiny batches
        (a batch of one over a small circuit) drop to the pure backend,
        which beats numpy dispatch overhead at that size.
        """
        k = self.afe.k
        m = self.circuit.n_mul_gates if self.circuit is not None else None
        n = k if m is None else k + proof_num_elements(m)
        return tiny_batch_force_pure(
            batch_size * n, self.force_pure_backend
        )

    def _share_elements(self) -> int:
        """Share-vector length this task's packets must carry."""
        if self.circuit is None:
            return self.afe.k
        return self.afe.k + proof_num_elements(self.circuit.n_mul_gates)

    def receive_wire_batch(
        self, payloads: "list[bytes]"
    ) -> "list[PendingSubmission | Exception]":
        """Receive a batch of encoded packets; per-position outcomes.

        ``payloads`` holds one encoded :class:`ClientPacket` per
        position, exactly as length-framed off a socket (in-memory
        drivers pass ``packet.encode()``).  The result list holds a
        :class:`PendingSubmission` where the packet was received and
        the typed exception object where it was refused — a malformed
        header, wrong server, replay, wrong length or out-of-range
        element rejects its position alone.  Header fields parse per
        packet (a cheap fixed-offset slice); every EXPLICIT body joins
        one fused checked decode.
        """
        out: "list[PendingSubmission | Exception]" = [None] * len(payloads)
        packets: "list[tuple[int, ClientPacket]]" = []
        for i, data in enumerate(payloads):
            try:
                packets.append(
                    (i, ClientPacket.decode(bytes(data), self.field))
                )
            except WireError as exc:
                out[i] = exc
        self._receive_packets(packets, out)
        return out

    def receive_sealed_batch(
        self, payloads: "list[bytes]"
    ) -> "list[PendingSubmission | Exception]":
        """Open a batch of sealed packets into the fused receive sweep.

        A pre-stage of :meth:`receive_wire_batch`: ``payloads`` holds
        one ``envelope || box`` sealed packet per position
        (:mod:`repro.protocol.wire` envelope layout).  Per position:
        the envelope parses (cheap slice), the wrong-server and replay
        checks run against the *cleartext* envelope fields — before
        paying the two scalar multiplications of
        :func:`~repro.crypto.box.open_box` — then the box opens with
        the envelope as associated data (so a grafted envelope fails
        authentication), and the opened packet's inner header must
        agree with its envelope.  Survivors join the same fused sweep
        cleartext packets do; every failure — a server with no box key
        included — rejects its position alone with the typed error
        object.
        """
        out: "list[PendingSubmission | Exception]" = [None] * len(payloads)
        opened: "list[tuple[int, ClientPacket]]" = []
        for i, data in enumerate(payloads):
            data = bytes(data)
            try:
                sid, server_index, box_bytes = parse_envelope(data)
            except WireError as exc:
                out[i] = exc
                continue
            if self.box_keypair is None:
                out[i] = ProtocolError("server has no box key configured")
                continue
            if server_index != self.server_index:
                out[i] = ProtocolError(
                    f"packet for server {server_index} delivered to "
                    f"server {self.server_index}"
                )
                continue
            # Replay pre-check on the envelope sid: a replayed upload
            # must not cost the server an ECDH.  An id that passes here
            # is re-checked (authenticated, in the fused sweep) after
            # the box opens, so a lying envelope cannot smuggle a
            # replay through.
            if sid in self._replay or sid in self._pending_ids:
                self.n_replayed += 1
                out[i] = ProtocolError("replayed submission id")
                continue
            envelope = data[:ENVELOPE_SIZE]
            try:
                plaintext = open_box(
                    self.box_keypair, box_bytes, associated_data=envelope
                )
            except CryptoError as exc:
                out[i] = exc
                continue
            try:
                packet = ClientPacket.decode(plaintext, self.field)
            except WireError as exc:
                out[i] = exc
                continue
            if (
                packet.submission_id != sid
                or packet.server_index != server_index
            ):
                out[i] = ProtocolError(
                    "sealed packet header disagrees with its envelope"
                )
                continue
            opened.append((i, packet))
        self._receive_packets(opened, out)
        return out

    def _check_frame(self, packet: ClientPacket) -> PendingSubmission:
        """Frame-validate one decoded packet; EXPLICIT bodies stay
        undecoded.

        Wrong server, replay, and wrong share-vector length raise here
        (:meth:`ClientPacket.decode` already held the body size to the
        header's claim).  On success the packet's id is pending
        (replay-protected), and :meth:`_receive_packets` owns the body
        decode.
        """
        if packet.server_index != self.server_index:
            raise ProtocolError(
                f"packet for server {packet.server_index} delivered to "
                f"server {self.server_index}"
            )
        if (
            packet.submission_id in self._replay
            or packet.submission_id in self._pending_ids
        ):
            self.n_replayed += 1
            raise ProtocolError("replayed submission id")
        expected = self._share_elements()
        if packet.n_elements != expected:
            if self.circuit is None:
                raise WireError("share vector has wrong length")
            raise WireError(
                f"share vector has {packet.n_elements} elements, "
                f"expected {expected}"
            )
        pending = PendingSubmission(packet.submission_id)
        if packet.kind is PacketKind.SEED:
            pending._seed = packet.body
        self._pending_ids.add(packet.submission_id)
        return pending

    def _receive_packets(
        self,
        packets: "list[tuple[int, ClientPacket]]",
        out: "list[PendingSubmission | Exception]",
    ) -> None:
        """The fused packet sweep both receive entry points share.

        ``packets`` holds ``(position, packet)`` pairs; each position of
        ``out`` is filled with the received :class:`PendingSubmission`
        or the exception that refused it.  Every EXPLICIT body in the
        batch decodes through a single checked byte-batch sweep.  An
        out-of-range element only evicts the offending packet: its row
        is cut from the batch and the remainder re-decodes (honest
        batches pay exactly one sweep).
        """
        explicit: "list[tuple[int, PendingSubmission, bytes]]" = []
        for i, packet in packets:
            try:
                pending = self._check_frame(packet)
            except (ProtocolError, WireError) as exc:
                out[i] = exc
                continue
            out[i] = pending
            if packet.kind is PacketKind.EXPLICIT:
                explicit.append((i, pending, packet.body))
        while explicit:
            try:
                decoded = decode_bytes_batch(
                    self.field,
                    [body for _, _, body in explicit],
                    self._batch_force(len(explicit)),
                )
            except FieldError as exc:
                row = getattr(exc, "batch_row", None)
                if row is None:
                    # No row attribution: evicting a guessed position
                    # would blame an innocent upload.  Release every
                    # still-pending id of this sweep (no decision was
                    # made) and fail the whole call loudly instead.
                    for i, _ in packets:
                        received = out[i]
                        if isinstance(received, PendingSubmission):
                            self.abandon(received)
                    raise
                i, pending, _ = explicit.pop(row)
                self._pending_ids.discard(pending.submission_id)
                out[i] = exc
                continue
            for t, (i, pending, _) in enumerate(explicit):
                pending._source = (decoded, t)
            break

    # ------------------------------------------------------------------
    # Verification rounds (lock-step with peers), a batch at a time
    # ------------------------------------------------------------------

    def _ingest_batch(self, pendings: list[PendingSubmission]) -> BatchVector:
        """Assemble the batch's ``(B, n)`` share matrix, plane-resident.

        All latent SEED packets expand through one vectorized PRG
        sweep; plane-decoded EXPLICIT rows are copied limb-for-limb.
        Each pending is re-pointed at its row of the assembled matrix,
        so verification and accumulation share the same planes (and a
        second call over the same pendings is the zero-copy fast path
        of :func:`~repro.field.batch.assemble_rows`).
        """
        force = self._batch_force(len(pendings))
        seed_pendings = [p for p in pendings if p._source is None]
        if seed_pendings:
            expanded = expand_seed_batch(
                self.field,
                [p._seed for p in seed_pendings],
                self._share_elements(),
                force,
            )
            for row, pending in enumerate(seed_pendings):
                pending._seed = None
                pending._source = (expanded, row)
        matrix = assemble_rows(
            self.field, [p._source for p in pendings], force
        )
        for row, pending in enumerate(pendings):
            pending._source = (matrix, row)
        return matrix

    def begin_verification_batch(
        self, pendings: list[PendingSubmission]
    ) -> tuple["BatchedSnipVerifierParty | None", Round1Batch]:
        """Round 1 for a whole batch in one vectorized sweep.

        The entire batch is verified under a single epoch context (the
        context in force when the batch starts; epoch accounting still
        advances per submission, so rotation happens between batches).
        The batch goes wire-planes -> verdict: seeds expand vectorized,
        the share matrix is assembled from limb planes, the party
        consumes it via
        :meth:`~repro.snip.verifier.BatchedSnipVerifierParty.from_share_matrix`,
        and the round-1 broadcast comes back as a plane-form
        :class:`~repro.snip.verifier.Round1Batch` — no per-element
        Python-int crossing anywhere.
        """
        ctx = self._context()
        if ctx is None or not pendings:
            return None, Round1Batch.zeros(
                self.field, len(pendings), self.force_pure_backend
            )
        party = BatchedSnipVerifierParty.from_share_matrix(
            ctx, self.server_index, self.n_servers,
            self._ingest_batch(pendings),
        )
        batch = party.round1_all()
        self.elements_broadcast += 2 * len(pendings)
        return party, batch

    def finish_verification_batch(
        self,
        party: "BatchedSnipVerifierParty | None",
        round1_batches: "list[Round1Batch]",
    ) -> Round2Batch:
        """Round 2: one plane-form broadcast for the whole batch.

        ``round1_batches`` is one :class:`Round1Batch` per server.
        """
        if party is None:
            n = len(round1_batches[0]) if round1_batches else 0
            return Round2Batch.zeros(
                self.field, n, self.force_pure_backend
            )
        batch = party.round2_all(round1_batches)
        self.elements_broadcast += 2 * len(batch)
        return batch

    def decide_batch(
        self, round2_batches: "list[Round2Batch]"
    ) -> list[bool]:
        """One independent accept/reject decision per submission."""
        if self.circuit is None:
            n = len(round2_batches[0]) if round2_batches else 0
            return [True] * n
        return Round2Batch.decide_all(round2_batches)

    # ------------------------------------------------------------------
    # Aggregate / publish
    # ------------------------------------------------------------------

    def accumulate_batch(
        self,
        pendings: list[PendingSubmission],
        decisions: list[bool],
    ) -> None:
        """Apply a batch's decisions: one vectorized Aggregate sweep.

        Accepted rows are truncated, column-summed, and folded into the
        plane-resident accumulator in a single batch operation — the
        Aggregate step consumes planes and produces planes; nothing
        crosses back to Python ints until :meth:`publish`.  Decided
        submissions drop their share sources (:meth:`PendingSubmission
        .release`), so the server retains only ids, not bigints.
        """
        if len(pendings) != len(decisions):
            raise ProtocolError("need one decision per pending submission")
        for pending, accepted in zip(pendings, decisions):
            if not accepted:
                self.reject(pending)
        accepted_pendings = [
            p for p, accepted in zip(pendings, decisions) if accepted
        ]
        if not accepted_pendings:
            return
        shared = (
            accepted_pendings[0]._source[0]
            if accepted_pendings[0]._source is not None
            else None
        )
        if shared is not None and all(
            p._source is not None and p._source[0] is shared
            for p in accepted_pendings
        ):
            # Verification already ingested these rows: reuse the plane
            # matrix directly (whole — the common all-accepted case —
            # or through one row gather).
            indices = [p._source[1] for p in accepted_pendings]
            if indices == list(range(shared.shape[0])):
                rows = shared
            else:
                rows = shared.take_rows(indices)
        else:
            # Proof-free AFEs skip begin_verification_batch's ingest;
            # a caller that did not ingest them either gets the same
            # one-sweep expansion/assembly here.
            rows = self._ingest_batch(accepted_pendings)
        batch_sum = rows.slice_columns(self.afe.k_prime).sum_rows()
        if batch_sum.backend != self._accumulator.backend:
            batch_sum = BatchVector.from_ints(
                self.field, batch_sum.to_ints(),
                self._accumulator.force_pure,
            )
        self._accumulator = self._accumulator + batch_sum
        for pending in accepted_pendings:
            self._note_accepted(pending)

    def _note_accepted(self, pending: PendingSubmission) -> None:
        """Post-accumulation bookkeeping, per accepted submission.

        Order matters: the id enters the replay cache *before* leaving
        ``_pending_ids``, so a concurrent replay check (the async
        pipeline receives batch ``N+1`` on executor threads while batch
        ``N`` accumulates) always sees it in at least one set.
        """
        self._replay.add(pending.submission_id)
        self._pending_ids.discard(pending.submission_id)
        self._submissions_this_epoch += 1
        self.n_accepted += 1
        pending.release()

    def reject(self, pending: PendingSubmission) -> None:
        self._replay.add(pending.submission_id)
        self._pending_ids.discard(pending.submission_id)
        self._submissions_this_epoch += 1
        self.n_rejected += 1
        pending.release()

    def abandon(self, pending: PendingSubmission) -> None:
        """Release a received submission without deciding it.

        Used when a peer's receive failed mid-fan-out: this server's
        copy is dropped, and the id must not stay pending (which would
        make an honest retry look like a replay) nor enter the replay
        cache (no decision was made).  The share sources are
        released like any other settled submission: an abandoned
        pending must not pin its seed or its row's whole ingested
        plane matrix for as long as the caller keeps the handle."""
        self._pending_ids.discard(pending.submission_id)
        pending.release()

    def add_dp_noise(
        self,
        epsilon: float,
        sensitivity: float,
        generator,
        n_servers: "int | None" = None,
    ) -> None:
        """Add this server's distributed-DP noise share (Section 7).

        Plane-resident: the batched Polya sampler's signed noise vector
        is embedded into limb planes and added to the accumulator plane
        — the aggregate still decodes to Python ints only at
        :meth:`publish`.  ``n_servers`` defaults to this deployment's
        server count (the noise-divisibility parameter ``s``).
        """
        from repro.protocol.dp import add_noise_to_accumulator

        self._accumulator = add_noise_to_accumulator(
            self.field,
            self._accumulator,
            epsilon,
            sensitivity,
            self.n_servers if n_servers is None else n_servers,
            generator,
        )

    # ------------------------------------------------------------------
    # State residency (the multi-process fan-out seam)
    # ------------------------------------------------------------------

    def begin_run(self) -> None:
        """Mark the start of a fan-out run.

        Snapshots taken after this point ship only the replay-cache
        *delta* — the ids added during the run — instead of the full
        multi-million-id history.  The process fan-out calls this when
        it installs a server in a worker; callers that never call it
        get full snapshots (the safe fallback).
        """
        self._replay.mark()

    def snapshot_state(self) -> dict:
        """Everything a run mutates, in one picklable snapshot.

        The process fan-out backend
        (:class:`~repro.protocol.fanout.ProcessFanout`) ships a server
        into a dedicated worker, runs batches there, and merges this
        snapshot back into the driver-side object afterward — the
        accumulator crosses as its limb plane
        (:class:`~repro.field.batch.BatchVector` pickles the int64
        plane buffer; no per-element Python-int round trip).  Replay
        state crosses as the delta since :meth:`begin_run`, never the
        whole seen set.
        """
        return {
            "accumulator_plane": self._accumulator,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_replayed": self.n_replayed,
            "seen_delta": self._replay.delta(),
            "pending_ids": set(self._pending_ids),
            "submissions_this_epoch": self._submissions_this_epoch,
            "epoch": self._epoch,
            "elements_broadcast": self.elements_broadcast,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` snapshot (inverse operation).

        Counters and planes are absolute (the snapshotting side held
        the full state); replay ids merge as a delta — the driver-side
        cache already holds everything from before the run.

        Drops the cached verification context: the epoch may have
        advanced elsewhere, and contexts re-derive deterministically
        from the shared randomness.
        """
        self._accumulator = state["accumulator_plane"]
        self.n_accepted = state["n_accepted"]
        self.n_rejected = state["n_rejected"]
        self.n_replayed = state["n_replayed"]
        self._replay.update(state["seen_delta"])
        self._pending_ids = set(state["pending_ids"])
        self._submissions_this_epoch = state["submissions_this_epoch"]
        self._epoch = state["epoch"]
        self.elements_broadcast = state["elements_broadcast"]
        self._ctx = None

    # ------------------------------------------------------------------
    # Sharding (the per-server worker fan-out seam)
    # ------------------------------------------------------------------

    def make_shard(self) -> "PrioServer":
        """A fresh server of identical configuration and empty state.

        :class:`~repro.protocol.fanout.ShardedFanout` gives each
        logical server K of these; every shard owns its slice of the
        submission-id space (stable hash partition), so shard-local
        replay caches — spawned from this server's, hence the same
        tier configuration — give complete replay protection.
        """
        return PrioServer(
            self.afe,
            self.server_index,
            self.n_servers,
            self.randomness,
            epoch_size=self.epoch_size,
            box_keypair=self.box_keypair,
            force_pure_backend=self.force_pure_backend,
            replay_cache=self._replay.spawn(),
        )

    def sync_shard_epoch(self, shard: "PrioServer") -> None:
        """Align a shard's epoch clock with this logical server's."""
        shard._epoch = self._epoch
        shard._submissions_this_epoch = self._submissions_this_epoch
        shard._ctx = None

    def fold_shard_state(self, state: dict) -> None:
        """Merge one shard's *delta* snapshot into this logical server.

        Unlike :meth:`restore_state` (absolute counters from a worker
        that held the full state), a shard starts each run zeroed, so
        its counters, accumulator plane, and broadcast tally are pure
        deltas and *add*; replay ids union in; epoch position advances
        by the shard's submission count (all shards share the logical
        server's epoch schedule, synced at run start).
        """
        plane = state["accumulator_plane"]
        if plane.backend != self._accumulator.backend:
            plane = BatchVector.from_ints(
                self.field, plane.to_ints(), self._accumulator.force_pure
            )
        self._accumulator = self._accumulator + plane
        self.n_accepted += state["n_accepted"]
        self.n_rejected += state["n_rejected"]
        self.n_replayed += state["n_replayed"]
        self._replay.update(state["seen_delta"])
        self._pending_ids |= state["pending_ids"]
        # Advance the epoch position by the shard's settled count;
        # rotation itself stays lazy in ``_context()`` (which resets
        # the counter to zero on overshoot), exactly as unsharded.
        self._submissions_this_epoch += state["n_accepted"] + state["n_rejected"]
        self.elements_broadcast += state["elements_broadcast"]
        self._ctx = None

    def reset_run_deltas(self) -> None:
        """Zero the fold-as-delta state after a shard fold.

        Shard servers call this after each :meth:`fold_shard_state`
        so their next snapshot is again a pure per-run delta.  The
        replay cache is deliberately untouched — it stays the
        authoritative record of this shard's id slice across runs.
        """
        self._accumulator = BatchVector.zeros(
            self.field, (self.afe.k_prime,),
            tiny_batch_force_pure(self.afe.k_prime, self.force_pure_backend),
        )
        self.n_accepted = 0
        self.n_rejected = 0
        self.n_replayed = 0
        self.elements_broadcast = 0
        self._pending_ids = set()

    def publish(self) -> list[int]:
        """Release the accumulator (step 4); safe by construction.

        This is the aggregate's single plane -> Python-int crossing:
        the accumulator lives as a limb plane for the server's whole
        life and decodes only here.
        """
        return self._accumulator.to_ints()
