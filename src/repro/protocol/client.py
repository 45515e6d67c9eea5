"""The Prio client (Appendix H, step 1 — "Upload").

``PrioClient.prepare_submissions`` is the one client entry point; an
upload of one value is a call with one value.  For each value it

1. AFE-encodes the private value (Section 5),
2. builds the SNIP proof for the AFE's Valid circuit (Section 4) —
   skipped entirely for AFEs where every vector is valid,
3. concatenates ``encoding || proof`` and splits it into per-server
   shares, PRG-compressed by default (Appendix I), and
4. frames one wire packet per server, optionally sealed with each
   server's box public key.

The client triad of costs the paper measures — encode time (Table 3,
Figures 7/8), upload bytes (Figure 6), and "one public-key operation"
(the box seal) — all live in this method.  It proves through the
plane-resident batch prover (:mod:`repro.snip.batch_prover`) in
cache-sized row blocks (``BLOCK_ELEMENTS``); its per-value reference,
with the same rng draw order and the same bytes, is the test suite's
``oracle.scalar_prepare_submission``.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

from repro.afe.base import Afe
from repro.field.batch import (
    BatchVector,
    encode_bytes_batch,
    tiny_batch_force_pure,
)
from repro.sharing.additive import (
    share_vectors_client_batch,
    share_vectors_explicit_batch,
)
from repro.sharing.prg import new_seed
from repro.circuit.compiled import CompiledCircuit, compile_circuit
from repro.mpc.beaver import generate_triple
from repro.snip.batch_prover import (
    ProofRandomness,
    h_planes_batch,
    submission_planes,
)
from repro.snip.proof import SnipError
from repro.protocol.wire import (
    ClientPacket,
    new_submission_id,
    packets_for_explicit_bodies,
    packets_for_share_bodies,
    seal_packet,
    total_upload_bytes,
)


#: Phase 2 of :meth:`PrioClient.prepare_submissions` runs over row
#: blocks of at most this many field elements per limb plane, i.e.
#: ``BLOCK_ELEMENTS // submission_elements()`` values (at least one),
#: so the prover's NTT planes and the sharing planes stay in a core's
#: L2 cache instead of streaming from L3.  Set by a sweep of median
#: ms/value, one process, alternating runs, on a 2-vCPU Xeon with
#: 2 MiB of L2 per core ("whole" = the call as one block), re-run
#: once the NTT's short spans moved to BLAS matrix levels:
#:
#: - ``highres`` (12 021 elements per value), 64 values per call:
#:   whole 21.7, 32 768 -> 12.3, 49 152 -> 10.4, 65 536 -> 10.5;
#:   16 per call: whole 17.2, 16 384 -> 16.4, 32 768 -> 14.1,
#:   49 152 -> 11.9, 65 536 -> 12.5, 131 072 -> 11.7.
#: - ``vec256`` (1 541 elements), 64 per call: whole 2.32,
#:   16 384 -> 1.81, 32 768 -> 1.74, 49 152 -> 1.73,
#:   65 536 -> 2.06, 131 072 -> 2.32.
#:
#: Below about 32 768 each block's fixed cost starts to show; above
#: 65 536 the planes leave L2 again (``highres`` at 16 per call is
#: flat from 49 152 up, within this host's noise).
BLOCK_ELEMENTS = 49_152


def _row_blocks(n_rows: int, row_elements: int) -> list[slice]:
    """``ceil(n_rows / b)`` near-equal row slices, ``b`` rows at most,
    ``b = BLOCK_ELEMENTS // row_elements`` (at least 1): a ragged tail
    row never pays a whole block's fixed cost on its own."""
    per_block = max(1, BLOCK_ELEMENTS // row_elements)
    n_blocks = -(-n_rows // per_block)
    return [
        slice(i * n_rows // n_blocks, (i + 1) * n_rows // n_blocks)
        for i in range(n_blocks)
    ]


@dataclass
class ClientSubmission:
    """The client's upload: one packet per server (possibly sealed)."""

    submission_id: bytes
    packets: list[ClientPacket]
    sealed_packets: list[bytes] | None = None

    @property
    def upload_bytes(self) -> int:
        if self.sealed_packets is not None:
            return sum(len(p) for p in self.sealed_packets)
        return total_upload_bytes(self.packets)


class PrioClient:
    """A client configured for one aggregation task (one AFE)."""

    def __init__(
        self,
        afe: Afe,
        n_servers: int,
        use_prg_compression: bool = True,
        server_box_keys: list[bytes] | None = None,
        rng=None,
    ) -> None:
        if server_box_keys is not None and len(server_box_keys) != n_servers:
            raise ValueError("need one box key per server")
        self.afe = afe
        self.field = afe.field
        self.n_servers = n_servers
        self.use_prg_compression = use_prg_compression
        self.server_box_keys = server_box_keys
        # The OS CSPRNG unless a test injects a seeded rng: it draws
        # the share seeds and the box's ephemeral keys, and its raw
        # output is every submission id, which travels in cleartext.
        # MT19937 is GF(2)-linear, and about 160 ids carry more output
        # bits than its 19 937-bit state.
        self.rng = rng if rng is not None else _random.SystemRandom()
        self.circuit = afe.valid_circuit()

    def prepare_submissions(
        self,
        values,
        force_pure: "bool | None" = None,
    ) -> list[ClientSubmission]:
        """Encode, prove, share, and frame many values at once.

        Phase 1 draws every value's randomness, in scalar order, over
        the whole call.  Phase 2 then runs the plane-resident client
        prover over row blocks of ``b = BLOCK_ELEMENTS //
        submission_elements()`` values (at least one), split into
        ``ceil(B / b)`` near-equal blocks: each block's proof
        polynomials ride one batch NTT sweep
        (:mod:`repro.snip.batch_prover`), its PRG-compressed sharing
        expands all seeds in one vectorized pass
        (:func:`~repro.sharing.additive.share_vectors_client_batch`),
        and its explicit wire bodies come straight out of
        :func:`~repro.field.batch.encode_bytes_batch` — no per-element
        Python-int crossing between the circuit trace and the wire
        bytes.  Blocks keep the planes cache-sized, so the cost per
        value does not climb with the call size.  The backend is
        chosen once per call; a one-value call is one block.

        Per-submission randomness is drawn in exactly scalar order, so
        the uploads are *bit-identical* to the scalar per-value oracle
        (``oracle.scalar_prepare_submission`` in the test suite) run
        over the same values under the same rng, in any chunking and
        any blocking (asserted by
        ``tests/snip/test_client_batch_equivalence.py``) — except when
        sealing is configured and the call holds more than one value:
        this path seals after the whole call's shares are drawn
        (equivalent in distribution, not bit-identical).
        ``force_pure`` overrides the batch backend for this call
        (``None`` auto-selects).
        """
        values = list(values)
        if not values:
            return []
        field = self.field
        n_servers = self.n_servers
        compress = self.use_prg_compression and n_servers > 1
        n_total = self.submission_elements()
        plan = (
            compile_circuit(field, self.circuit)
            if self.circuit is not None
            else None
        )
        has_muls = self.circuit is not None and self.circuit.n_mul_gates > 0
        # Phase 1 — every rng draw, per submission, in scalar order:
        # encode, f(0)/g(0)/triple, submission id, share seeds/randoms.
        # The circuit trace itself consumes no randomness, so it lifts
        # out of this loop into phase 2's compiled-plan sweeps without
        # perturbing the draw sequence.
        encodings: list[list[int]] = []
        randoms: list = []
        sids: list[bytes] = []
        seed_rows: list[list[bytes]] = []
        random_rows: list[list[list[int]]] = []
        for value in values:
            encoding = self.afe.encode(value, self.rng)
            if has_muls:
                u0 = field.rand(self.rng)
                v0 = field.rand(self.rng)
                randoms.append(
                    ProofRandomness(
                        u0=u0, v0=v0,
                        triple=generate_triple(field, self.rng),
                    )
                )
            elif self.circuit is not None:
                randoms.append(None)
            encodings.append(encoding)
            sids.append(new_submission_id(self.rng))
            if compress:
                seed_rows.append(
                    [new_seed(self.rng) for _ in range(n_servers - 1)]
                )
            else:
                random_rows.append(
                    [
                        field.rand_vector(n_total, self.rng)
                        for _ in range(n_servers - 1)
                    ]
                )
        # Phase 2 — deterministic batch work, block by block (see
        # ``BLOCK_ELEMENTS``).  The backend is decided once for the
        # whole call, so a block's size never flips it.
        force = tiny_batch_force_pure(len(values) * n_total, force_pure)
        packet_lists: list[list[ClientPacket]] = []
        for rows in _row_blocks(len(values), n_total):
            packet_lists += self._prove_and_pack(
                plan, encodings[rows], randoms[rows], sids[rows],
                seed_rows[rows], random_rows[rows], force,
            )
        # Phase 3 — framing bookkeeping (and the optional box seal, the
        # client's one public-key operation per server).
        return [
            self._seal_and_wrap(sid, packets)
            for sid, packets in zip(sids, packet_lists)
        ]

    def _prove_and_pack(
        self,
        plan: "CompiledCircuit | None",
        encodings: "list[list[int]]",
        randoms: list,
        sids: "list[bytes]",
        seed_rows: "list[list[bytes]]",
        random_rows: "list[list[list[int]]]",
        force: "bool | None",
    ) -> "list[list[ClientPacket]]":
        """Phase 2 for one block of rows: the compiled-plan trace, h
        sweep, x || proof assembly, sharing and wire bodies; planes
        throughout.  Every input was drawn in phase 1."""
        field = self.field
        n_servers = self.n_servers
        n_total = self.submission_elements()
        if plan is not None:
            trace = plan.evaluate_batch(encodings, force)
            if not trace.all_valid:
                raise SnipError(
                    f"input does not satisfy {self.circuit.name}; "
                    f"refusing to prove"
                )
            h = h_planes_batch(field, self.circuit, trace, randoms, force)
            vectors = submission_planes(
                field, self.circuit, encodings, randoms, h, force
            )
        else:
            vectors = BatchVector.from_ints(field, encodings, force)
        if self.use_prg_compression and n_servers > 1:
            _, explicit = share_vectors_client_batch(
                field, vectors, n_servers, seeds=seed_rows, force_pure=force
            )
            bodies = encode_bytes_batch(field, explicit, explicit.force_pure)
            return [
                packets_for_share_bodies(
                    sid, seed_rows[i], bodies[i], n_total
                )
                for i, sid in enumerate(sids)
            ]
        shares = share_vectors_explicit_batch(
            field, vectors, n_servers,
            random_rows=random_rows, force_pure=force,
        )
        bodies_by_server = [
            encode_bytes_batch(field, share, share.force_pure)
            for share in shares
        ]
        return [
            packets_for_explicit_bodies(
                sid,
                [bodies_by_server[j][i] for j in range(n_servers)],
                n_total,
            )
            for i, sid in enumerate(sids)
        ]

    def _seal_and_wrap(
        self, submission_id: bytes, packets: "list[ClientPacket]"
    ) -> ClientSubmission:
        """Seal each framed packet to its server when box keys are
        configured (``__init__`` checked there is one per server), and
        wrap the submission."""
        sealed = None
        if self.server_box_keys is not None:
            # envelope || box(packet, ad=envelope): the cleartext
            # envelope lets the transport route on the submission
            # id without a decryption key.
            sealed = [
                seal_packet(key, packet, self.rng)
                for key, packet in zip(self.server_box_keys, packets)
            ]
        return ClientSubmission(
            submission_id=submission_id, packets=packets, sealed_packets=sealed
        )

    def submission_elements(self) -> int:
        """Share-vector length in field elements (Figures 4/6 x-axis is
        the data part; the proof rides along)."""
        from repro.snip.proof import proof_num_elements

        if self.circuit is None:
            return self.afe.k
        return self.afe.k + proof_num_elements(self.circuit.n_mul_gates)
