"""The Prio client (Appendix H, step 1 — "Upload").

``PrioClient.prepare_submission`` performs the full client pipeline:

1. AFE-encode the private value (Section 5),
2. build the SNIP proof for the AFE's Valid circuit (Section 4) —
   skipped entirely for AFEs where every vector is valid,
3. concatenate ``encoding || proof`` and split it into per-server
   shares, PRG-compressed by default (Appendix I), and
4. frame one wire packet per server, optionally sealed with each
   server's box public key.

The client triad of costs the paper measures — encode time (Table 3,
Figures 7/8), upload bytes (Figure 6), and "one public-key operation"
(the box seal) — all live in this method.

``prepare_submissions`` runs the same pipeline for a whole batch of
values through the plane-resident batch prover
(:mod:`repro.snip.batch_prover`), producing uploads bit-identical to
the per-value path under the same rng — see its docstring.
"""

from __future__ import annotations

import os
import random as _random
from dataclasses import dataclass

from repro.afe.base import Afe
from repro.ec.p256 import Point
from repro.field.batch import (
    BatchVector,
    encode_bytes_batch,
    tiny_batch_force_pure,
)
from repro.sharing.additive import (
    share_vector,
    share_vectors_client_batch,
    share_vectors_explicit_batch,
)
from repro.sharing.prg import new_seed, prg_share_vector
from repro.circuit.compiled import compile_circuit
from repro.mpc.beaver import generate_triple
from repro.snip.batch_prover import (
    ProofRandomness,
    h_planes_batch,
    submission_planes,
)
from repro.snip.proof import SnipError
from repro.snip.prover import build_proof
from repro.protocol.wire import (
    ClientPacket,
    new_submission_id,
    packets_for_explicit_bodies,
    packets_for_explicit_shares,
    packets_for_share_bodies,
    packets_for_shares,
    seal_packet,
    total_upload_bytes,
)


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
        server_box_keys: list[Point] | None = None,
        rng=None,
    ) -> None:
        self.afe = afe
        self.field = afe.field
        self.n_servers = n_servers
        self.use_prg_compression = use_prg_compression
        self.server_box_keys = server_box_keys
        self.rng = rng if rng is not None else _random.Random(os.urandom(16))
        self.circuit = afe.valid_circuit()

    def prepare_submission(self, value) -> ClientSubmission:
        """Encode, prove, share, and frame one private value."""
        encoding = self.afe.encode(value, self.rng)
        if self.circuit is not None:
            proof = build_proof(self.field, self.circuit, encoding, self.rng)
            vector = encoding + proof.flatten()
        else:
            vector = list(encoding)
        return self._frame_vector(vector)

    def prepare_submissions(
        self,
        values,
        force_pure: "bool | None" = None,
    ) -> list[ClientSubmission]:
        """Encode, prove, share, and frame many values at once.

        The whole batch runs through the plane-resident client prover:
        proof polynomials for every value ride one batch NTT sweep
        (:mod:`repro.snip.batch_prover`), the PRG-compressed sharing
        expands all seeds in one vectorized pass
        (:func:`~repro.sharing.additive.share_vectors_client_batch`),
        and the explicit wire bodies come straight out of
        :func:`~repro.field.batch.encode_bytes_batch` — no per-element
        Python-int crossing between the circuit trace and the wire
        bytes.

        Per-submission randomness is drawn in exactly scalar order, so
        the uploads are *bit-identical* to repeated
        :meth:`prepare_submission` calls — the scalar oracle — under
        the same rng, in any chunking (asserted by
        ``tests/snip/test_client_batch_equivalence.py``) — except when
        sealing is configured, where this path seals after the whole
        batch's shares are drawn (equivalent in distribution, not
        bit-identical).  ``force_pure`` overrides the batch backend for
        this call (``None`` auto-selects).
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
        # out of this loop into one compiled-plan sweep below without
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
        # Phase 2 — deterministic batch work: the compiled-plan trace,
        # h sweep, x || proof assembly, sharing, wire bodies; planes
        # throughout.
        force = tiny_batch_force_pure(len(values) * n_total, force_pure)
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
        if compress:
            _, explicit = share_vectors_client_batch(
                field, vectors, n_servers, seeds=seed_rows, force_pure=force
            )
            bodies = encode_bytes_batch(field, explicit, explicit.force_pure)
            packet_lists = [
                packets_for_share_bodies(
                    sid, seed_rows[i], bodies[i], n_total
                )
                for i, sid in enumerate(sids)
            ]
        else:
            shares = share_vectors_explicit_batch(
                field, vectors, n_servers,
                random_rows=random_rows, force_pure=force,
            )
            bodies_by_server = [
                encode_bytes_batch(field, share, share.force_pure)
                for share in shares
            ]
            packet_lists = [
                packets_for_explicit_bodies(
                    sid,
                    [bodies_by_server[j][i] for j in range(n_servers)],
                    n_total,
                )
                for i, sid in enumerate(sids)
            ]
        # Phase 3 — framing bookkeeping (and the optional box seal, the
        # client's one public-key operation per server).
        return [
            self._seal_and_wrap(sid, packets)
            for sid, packets in zip(sids, packet_lists)
        ]

    def _seal_and_wrap(
        self, submission_id: bytes, packets: "list[ClientPacket]"
    ) -> ClientSubmission:
        """Optionally box-seal framed packets and wrap the submission.

        Shared by the scalar and batched framers so the sealing rules
        (one key per server, one seal per packet) live in one place.
        """
        sealed = None
        if self.server_box_keys is not None:
            if len(self.server_box_keys) != self.n_servers:
                raise ValueError("need one box key per server")
            # envelope || box(packet, ad=envelope): the cleartext
            # envelope lets the transport and the sharded fan-out
            # route on the submission id without a decryption key.
            sealed = [
                seal_packet(key, packet, self.rng)
                for key, packet in zip(self.server_box_keys, packets)
            ]
        return ClientSubmission(
            submission_id=submission_id, packets=packets, sealed_packets=sealed
        )

    def _frame_vector(self, vector: list[int]) -> ClientSubmission:
        """Share and frame one already-proved submission vector."""
        submission_id = new_submission_id(self.rng)
        if self.use_prg_compression and self.n_servers > 1:
            seeds, explicit = prg_share_vector(
                self.field, vector, self.n_servers, self.rng
            )
            packets = packets_for_shares(
                self.field, submission_id, seeds, explicit
            )
        else:
            shares = share_vector(self.field, vector, self.n_servers, self.rng)
            packets = packets_for_explicit_shares(
                self.field, submission_id, shares
            )
        return self._seal_and_wrap(submission_id, packets)

    def submission_elements(self) -> int:
        """Share-vector length in field elements (Figures 4/6 x-axis is
        the data part; the proof rides along)."""
        from repro.snip.proof import proof_num_elements

        if self.circuit is None:
            return self.afe.k
        return self.afe.k + proof_num_elements(self.circuit.n_mul_gates)
