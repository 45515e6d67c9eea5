"""SNIP verifier (Section 4.2, Steps 2-4, with Appendix I optimizations).

Each server holds a share of the client's input ``x`` and a share of
the proof.  Verification is two broadcast rounds:

Round 1 (Beaver masking)
    Locally: reconstruct a share of every circuit wire (Step 2), then
    evaluate shares of f, g, h at the secret point ``r`` via
    precomputed Lagrange inner products (no interpolation — Appendix I).
    Broadcast ``d_i = [f(r)]_i - [a]_i`` and ``e_i = [r g(r)]_i - [b]_i``.

Round 2 (polynomial identity test + output check)
    Combine everyone's round-1 messages, produce the Schwartz-Zippel
    share ``sigma_i`` and the batched assertion share ``A_i``
    (the random linear combination of all Valid-circuit zero-assertions,
    Appendix I "circuit optimization").  Broadcast both.

Decision
    Accept iff ``sum_i sigma_i == 0`` and ``sum_i A_i == 0``.

Per-server broadcast traffic: four field elements per submission,
independent of the circuit — the property Figure 6 measures.

The secret point ``r`` and the assertion challenge are derived from a
seed shared among the servers (hidden from clients).  One
:class:`VerificationContext` caches the O(N) Lagrange weights and is
reused across many submissions; rotating contexts every ~2^10
submissions bounds the adaptive-cheating probability at
``(2M+1) * Q / |F|`` exactly as Appendix I argues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.circuit import Circuit
from repro.field.batch import (
    BatchVector,
    PreparedWeights,
    dot_batch_planes,
    tiny_batch_force_pure,
    use_numpy,
)
from repro.field.ntt import EvaluationDomain
from repro.field.prime_field import PrimeField
from repro.snip.proof import (
    SnipError,
    SnipProofShare,
    proof_num_elements,
    snip_domain_sizes,
)


@dataclass(frozen=True)
class VerificationChallenge:
    """Per-epoch secret verifier randomness (unknown to clients)."""

    r: int
    assertion_coefficients: tuple[int, ...]


class ServerRandomness:
    """Derives shared verifier challenges from a common secret seed.

    In deployment the servers agree on the seed over their mutually
    authenticated TLS links at setup; every server then derives the
    *same* challenge for a given epoch without further interaction.
    Clients never see it — soundness only needs ``r`` to be independent
    of the adversarial client's proof (Appendix D.1).
    """

    def __init__(self, seed: bytes) -> None:
        self.seed = seed

    def challenge(
        self, field: PrimeField, circuit: Circuit, epoch: int
    ) -> VerificationChallenge:
        """Challenge for ``epoch``; avoids degenerate evaluation points.

        ``r`` must lie outside the 2N evaluation domain (else the
        Lagrange weights are undefined and zero-knowledge degrades) and
        must be nonzero (at r = 0 the identity test's t-multiplier
        would mask a corrupted Beaver triple).  Deterministic rejection
        sampling keeps all servers in agreement.
        """
        size_n, size_2n = snip_domain_sizes(circuit.n_mul_gates)
        del size_n
        domain = (
            EvaluationDomain(field, size_2n) if size_2n else None
        )
        counter = 0
        label = circuit.name.encode()
        while True:
            r = field.hash_to_element(
                self.seed, b"snip-r", label,
                epoch.to_bytes(8, "big"), counter.to_bytes(4, "big"),
            )
            bad = r == 0 or (domain is not None and domain.contains_point(r))
            if not bad:
                break
            counter += 1
        coefficients = tuple(
            field.hash_to_element(
                self.seed, b"snip-assert", label,
                epoch.to_bytes(8, "big"), j.to_bytes(4, "big"),
            )
            for j in range(len(circuit.assertions))
        )
        return VerificationChallenge(r=r, assertion_coefficients=coefficients)


class VerificationContext:
    """Precomputed per-(circuit, challenge) state shared by all servers.

    Holds the Lagrange inner-product weights for evaluating f, g (small
    domain) and h (double domain) at ``r``.  Building one costs O(N)
    multiplications; verifying each submission with it costs O(N) too,
    with no interpolation — this is the paper's "verification without
    interpolation" optimization, measured in Ablation A.
    """

    def __init__(
        self,
        field: PrimeField,
        circuit: Circuit,
        challenge: VerificationChallenge,
    ) -> None:
        if len(challenge.assertion_coefficients) != len(circuit.assertions):
            raise SnipError("assertion challenge has wrong arity")
        self.field = field
        self.circuit = circuit
        self.challenge = challenge
        self.n_mul_gates = circuit.n_mul_gates
        self.size_n, self.size_2n = snip_domain_sizes(self.n_mul_gates)
        if self.n_mul_gates:
            domain_n = EvaluationDomain(field, self.size_n)
            domain_2n = EvaluationDomain(field, self.size_2n)
            if domain_2n.contains_point(challenge.r) or challenge.r == 0:
                raise SnipError("challenge point r is degenerate")
            self.weights_n = domain_n.lagrange_coefficients_at(challenge.r)
            self.weights_2n = domain_2n.lagrange_coefficients_at(challenge.r)
        else:
            self.weights_n = []
            self.weights_2n = []
        self._functionals: "_BatchFunctionals | None" = None

    def batch_functionals(self) -> "_BatchFunctionals":
        """Per-context linear functionals for batched verification.

        Every quantity a server derives from one submission's share
        vector — [f(r)], r*[g(r)], r*[h(r)], and the batched assertion
        share — is an *affine* function of the flattened upload
        ``z = x_share || proof_share.flatten()`` (multiplication-gate
        outputs are read from h's point-value form, and every other
        wire is affine in inputs and mul outputs).  A single backward
        pass over the circuit per quantity collapses it to one weight
        vector over ``z`` plus a leader-only constant; batch
        verification of B submissions is then four fused inner-product
        sweeps over the (B, len(z)) share matrix.  Built lazily and
        cached: like the Lagrange weights, the functionals are shared
        by every submission verified under this context.
        """
        if self._functionals is None:
            self._functionals = _build_batch_functionals(self)
        return self._functionals


@dataclass
class Round1Message:
    d: int
    e: int


@dataclass
class Round2Message:
    sigma: int
    assertion: int


def _match_backend(
    vector: BatchVector, target: BatchVector
) -> BatchVector:
    """Re-encode ``vector`` onto ``target``'s backend if they differ.

    Both backends are bit-exact, so this changes representation only.
    Needed at the sharded-fan-out seams, where a merged round plane
    (built on the logical server's backend) can meet a tiny shard's
    party whose planes dropped to the pure backend under the
    tiny-batch heuristic.
    """
    if vector.backend == target.backend:
        return vector
    return BatchVector.from_ints(
        vector.field, vector.to_ints(), target.force_pure
    )


def _sum_across_servers(vectors: "Sequence[BatchVector]") -> BatchVector:
    """Plane-add one ``(B,)`` vector per server (the ``sum_i`` of the
    round combination and decision rules)."""
    total = vectors[0]
    for vector in vectors[1:]:
        total = total + _match_backend(vector, total)
    return total


@dataclass
class Round1Batch:
    """A whole batch's round-1 broadcasts in plane form.

    ``d``/``e`` are 1-D ``(B,)`` :class:`~repro.field.batch.BatchVector`
    columns — one per-round plane instead of ``B`` per-submission int
    pairs.  Cross-server combination (the ``sum_i d_i`` of Step 3) is a
    plane add; :meth:`messages`/:meth:`from_messages` are the
    scalar-wire seam for callers that ship individual
    :class:`Round1Message` objects.
    """

    d: BatchVector
    e: BatchVector

    def __len__(self) -> int:
        return self.d.shape[0]

    def at(self, i: int) -> Round1Message:
        return Round1Message(d=self.d.to_ints()[i], e=self.e.to_ints()[i])

    def messages(self) -> list[Round1Message]:
        return [
            Round1Message(d=d, e=e)
            for d, e in zip(self.d.to_ints(), self.e.to_ints())
        ]

    @classmethod
    def from_messages(
        cls,
        field: PrimeField,
        messages: Sequence[Round1Message],
        force_pure: bool | None = None,
    ) -> "Round1Batch":
        return cls(
            d=BatchVector.from_ints(field, [m.d for m in messages], force_pure),
            e=BatchVector.from_ints(field, [m.e for m in messages], force_pure),
        )

    @classmethod
    def zeros(
        cls,
        field: PrimeField,
        batch_size: int,
        force_pure: bool | None = None,
    ) -> "Round1Batch":
        zero = BatchVector.zeros(field, (batch_size,), force_pure)
        return cls(d=zero, e=zero)


@dataclass
class Round2Batch:
    """A whole batch's round-2 broadcasts in plane form.

    Mirror of :class:`Round1Batch` for ``(sigma, assertion)``; the
    accept/reject decision (:meth:`decide_all`) sums the servers'
    planes and runs one vectorized zero test per check — no
    per-submission Python-int crossing anywhere in the round algebra.
    """

    sigma: BatchVector
    assertion: BatchVector

    def __len__(self) -> int:
        return self.sigma.shape[0]

    def at(self, i: int) -> Round2Message:
        return Round2Message(
            sigma=self.sigma.to_ints()[i],
            assertion=self.assertion.to_ints()[i],
        )

    def messages(self) -> list[Round2Message]:
        return [
            Round2Message(sigma=s, assertion=a)
            for s, a in zip(self.sigma.to_ints(), self.assertion.to_ints())
        ]

    @classmethod
    def from_messages(
        cls,
        field: PrimeField,
        messages: Sequence[Round2Message],
        force_pure: bool | None = None,
    ) -> "Round2Batch":
        return cls(
            sigma=BatchVector.from_ints(
                field, [m.sigma for m in messages], force_pure
            ),
            assertion=BatchVector.from_ints(
                field, [m.assertion for m in messages], force_pure
            ),
        )

    @classmethod
    def zeros(
        cls,
        field: PrimeField,
        batch_size: int,
        force_pure: bool | None = None,
    ) -> "Round2Batch":
        zero = BatchVector.zeros(field, (batch_size,), force_pure)
        return cls(sigma=zero, assertion=zero)

    @staticmethod
    def decide_all(round2_batches: "Sequence[Round2Batch]") -> list[bool]:
        """One independent accept/reject per submission (Steps 3a, 4)."""
        if not round2_batches:
            raise SnipError("need a round-2 batch from every server")
        sigma_total = _sum_across_servers([b.sigma for b in round2_batches])
        assertion_total = _sum_across_servers(
            [b.assertion for b in round2_batches]
        )
        return [
            s and a
            for s, a in zip(sigma_total.is_zero(), assertion_total.is_zero())
        ]


class SnipVerifierParty:
    """One server's verification state for a single client submission.

    A thin wrapper over :class:`BatchedSnipVerifierParty` with a batch
    of one — there is no separate scalar round algebra any more; the
    degenerate batch runs the identical plane-resident code path and
    only this seam decodes the four per-submission scalars to ints.
    """

    def __init__(
        self,
        ctx: VerificationContext,
        server_index: int,
        n_servers: int,
        x_share: Sequence[int],
        proof_share: SnipProofShare,
    ) -> None:
        self._batch_party = BatchedSnipVerifierParty(
            ctx, server_index, n_servers, [x_share], [proof_share]
        )
        self.ctx = ctx
        self.field = ctx.field
        self.server_index = server_index
        self.n_servers = n_servers
        self.is_leader = server_index == 0
        self.proof_share = proof_share

    # Scalar views of the party's local state (the ZK simulator builds
    # its simulated honest-server view from exactly these).

    @property
    def _f_r(self) -> int:
        return self._batch_party._f_r.to_ints()[0]

    @property
    def _rg_r(self) -> int:
        return self._batch_party._rg_r.to_ints()[0]

    @property
    def _rh_r(self) -> int:
        return self._batch_party._rh_r.to_ints()[0]

    @property
    def _assertion_share(self) -> int:
        return self._batch_party._assertion_shares.to_ints()[0]

    # ------------------------------------------------------------------

    def round1(self) -> Round1Message:
        """Broadcast the Beaver-masked evaluations (d_i, e_i)."""
        return self._batch_party.round1_all().at(0)

    def round2(self, round1_messages: Sequence[Round1Message]) -> Round2Message:
        """Combine round-1 broadcasts into (sigma_i, A_i)."""
        messages = list(round1_messages)
        if len(messages) != self.n_servers:
            raise SnipError("need a round-1 message from every server")
        return self._batch_party.round2_all([messages]).at(0)

    @staticmethod
    def decide(
        field: PrimeField, round2_messages: Sequence[Round2Message]
    ) -> bool:
        """Accept iff both zero-sum checks pass (Steps 3a and 4)."""
        p = field.modulus
        sigma_total = sum(m.sigma for m in round2_messages) % p
        assertion_total = sum(m.assertion for m in round2_messages) % p
        return sigma_total == 0 and assertion_total == 0


@dataclass
class VerificationOutcome:
    accepted: bool
    sigma_total: int
    assertion_total: int
    #: field elements each server broadcast (d, e, sigma, A)
    elements_broadcast_per_server: int = 4

    def bytes_broadcast_per_server(self, field: PrimeField) -> int:
        return self.elements_broadcast_per_server * field.encoded_size


def verify_snip(
    ctx: VerificationContext,
    x_shares: Sequence[Sequence[int]],
    proof_shares: Sequence[SnipProofShare],
) -> VerificationOutcome:
    """Run the whole verification lock-step across in-process servers."""
    if len(x_shares) != len(proof_shares):
        raise SnipError("share count mismatch")
    return verify_snip_batch(ctx, [(x_shares, proof_shares)])[0]


# ----------------------------------------------------------------------
# Batched verification (the vectorized server hot path)
# ----------------------------------------------------------------------



@dataclass
class _BatchFunctionals:
    """Linear functionals over ``z = x_share || proof_share.flatten()``.

    ``u_rg``/``u_rh`` already include the factor ``r`` (the verifier
    only ever needs ``r*g(r)`` and ``r*h(r)``).  The ``c_*`` constants
    come from CONST gates and are added by the leader only, following
    the share-of-constant convention.  ``u_f``/``u_rg``/``u_rh`` are
    ``None`` for circuits with no multiplication gates (no polynomial
    identity test).
    """

    z_len: int
    u_f: list[int] | None
    u_rg: list[int] | None
    u_rh: list[int] | None
    u_assert: list[int]
    c_f: int
    c_rg: int
    c_assert: int
    _prepared: "PreparedWeights | None" = None

    def prepared(self, field: PrimeField) -> PreparedWeights:
        """The functionals as reusable batch weights (encoded once)."""
        if self._prepared is None:
            if self.u_f is None:
                stack = [self.u_assert]
            else:
                stack = [self.u_f, self.u_rg, self.u_rh, self.u_assert]
            self._prepared = PreparedWeights(field, stack)
        return self._prepared


def _build_batch_functionals(ctx: VerificationContext) -> _BatchFunctionals:
    """Assemble the context's functionals from the compiled plan.

    The plan (:func:`repro.circuit.compiled.compile_circuit`, cached by
    circuit identity) already holds every mul gate's left/right input
    wire and every assertion wire as a *sparse affine form* over
    ``[1 | inputs | mul outputs]`` — the one topological sweep is paid
    once per circuit, not once per verification context.  Building a
    context's functionals is then pure accumulation: scatter each
    form's terms into z positions (input ``i`` at ``i``; mul output
    ``t`` at ``h_pos + 2(t+1)``, its slot in h's point-value form; the
    ones column into the leader-only constant), weighted by the
    context's Lagrange weights / assertion challenge.  By linearity
    this is term-for-term the same sum the previous per-context
    backward adjoint sweep computed, and bit-identical (all arithmetic
    is mod-p on canonical coefficients).
    """
    from repro.circuit.compiled import compile_circuit

    field = ctx.field
    circuit = ctx.circuit
    plan = compile_circuit(field, circuit)
    p = field.modulus
    k = circuit.n_inputs
    m = ctx.n_mul_gates
    z_len = k + proof_num_elements(m)
    # z layout: [x_0..x_{k-1} | f0 | g0 | h_0..h_{2N-1} | a | b | c]
    f0_pos, g0_pos, h_pos = k, k + 1, k + 2

    def accumulate(u, exprs, weights):
        # u += sum_j weights[j] * exprs[j], scattered into z layout;
        # returns the accumulated ones-column (leader constant) part.
        const = 0
        for expr, weight in zip(exprs, weights):
            for src, coeff in expr.items():
                v = coeff * weight
                if src == 0:
                    const += v
                elif src <= k:
                    u[src - 1] += v
                else:
                    # mul gate t (0-based) has its output at
                    # h_evals[2*(t+1)]
                    u[h_pos + 2 * (src - k)] += v
        return const

    def reduced(u):
        return [v % p for v in u]

    u_assert = [0] * z_len
    c_assert = accumulate(
        u_assert, plan.assertion_exprs, ctx.challenge.assertion_coefficients
    )
    u_assert = reduced(u_assert)
    c_assert %= p

    if m == 0:
        return _BatchFunctionals(
            z_len=z_len, u_f=None, u_rg=None, u_rh=None,
            u_assert=u_assert, c_f=0, c_rg=0, c_assert=c_assert,
        )

    r = ctx.challenge.r
    w_n, w_2n = ctx.weights_n, ctx.weights_2n
    u_f = [0] * z_len
    c_f = accumulate(u_f, plan.left_exprs, w_n[1:1 + m]) % p
    u_f[f0_pos] = w_n[0]
    u_f = reduced(u_f)
    u_g = [0] * z_len
    c_g = accumulate(u_g, plan.right_exprs, w_n[1:1 + m]) % p
    u_g[g0_pos] = w_n[0]
    u_rg = [v * r % p for v in u_g]
    u_rh = [0] * z_len
    for j, w in enumerate(w_2n):
        u_rh[h_pos + j] = w * r % p
    return _BatchFunctionals(
        z_len=z_len, u_f=u_f, u_rg=u_rg, u_rh=u_rh, u_assert=u_assert,
        c_f=c_f, c_rg=c_g * r % p, c_assert=c_assert,
    )


class BatchedSnipVerifierParty:
    """One server's verification state for a whole batch of submissions.

    Semantically equivalent to ``B`` scalar verifications — bit-for-bit,
    which the adversarial batch tests assert — but the per-submission
    work collapses to four inner products of the flattened share vector
    against the context's precomputed functionals, evaluated for the
    whole batch in one fused sweep over the (B, len(z)) share matrix
    (:func:`repro.field.batch.dot_batch_planes`).

    Everything stays plane-resident: the functional outputs, the
    Beaver-triple columns (views of the ingested share matrix, never
    decoded), and the round-1/round-2 broadcasts themselves
    (:class:`Round1Batch`/:class:`Round2Batch`).  The zero-copy ingest
    path constructs parties via :meth:`from_share_matrix`; the int-row
    constructor exists for tests and the scalar wrapper.
    """

    def __init__(
        self,
        ctx: VerificationContext,
        server_index: int,
        n_servers: int,
        x_shares: Sequence[Sequence[int]],
        proof_shares: Sequence[SnipProofShare],
        force_pure: bool | None = None,
    ) -> None:
        if len(x_shares) != len(proof_shares):
            raise SnipError("share count mismatch")
        circuit = ctx.circuit
        m = ctx.n_mul_gates
        rows = []
        for x_share, proof_share in zip(x_shares, proof_shares):
            if len(x_share) != circuit.n_inputs:
                raise SnipError(
                    f"x share has {len(x_share)} elements, expected "
                    f"{circuit.n_inputs}"
                )
            if m and len(proof_share.h_evals) != ctx.size_2n:
                raise SnipError(
                    f"h share has {len(proof_share.h_evals)} evaluations, "
                    f"expected {ctx.size_2n}"
                )
            rows.append(list(x_share) + proof_share.flatten())
        self.proof_shares = list(proof_shares)
        if rows:
            force_pure = tiny_batch_force_pure(
                len(rows) * len(rows[0]), force_pure
            )
        self._setup(
            ctx, server_index, n_servers,
            BatchVector.from_ints(ctx.field, rows, force_pure)
            if rows else None,
            batch_size=len(rows),
            force_pure=force_pure,
        )

    @classmethod
    def from_share_matrix(
        cls,
        ctx: VerificationContext,
        server_index: int,
        n_servers: int,
        matrix: BatchVector,
    ) -> "BatchedSnipVerifierParty":
        """Build a party straight from an ingested ``(B, z_len)`` batch.

        ``matrix`` rows are the flattened uploads ``z = x_share ||
        proof_share.flatten()`` exactly as they crossed the wire
        (``PrioServer.receive_wire_batch`` -> ``_ingest_batch``).  No
        per-element Python ints are materialized anywhere — the
        Beaver-triple columns are plane views of the matrix.
        """
        if len(matrix.shape) != 2:
            raise SnipError("share matrix must be 2-D")
        B, width = matrix.shape
        z_len = ctx.circuit.n_inputs + proof_num_elements(ctx.n_mul_gates)
        if width != z_len:
            raise SnipError(
                f"share matrix has width {width}, expected {z_len}"
            )
        self = cls.__new__(cls)
        self.proof_shares = None
        self._setup(
            ctx, server_index, n_servers, matrix if B else None,
            batch_size=B, force_pure=matrix.force_pure if B else None,
        )
        return self

    def _setup(
        self,
        ctx: VerificationContext,
        server_index: int,
        n_servers: int,
        matrix: "BatchVector | None",
        batch_size: int,
        force_pure: bool | None,
    ) -> None:
        if n_servers < 2:
            raise SnipError("a SNIP needs at least two verifiers")
        self.ctx = ctx
        self.field = ctx.field
        self.server_index = server_index
        self.n_servers = n_servers
        self.is_leader = server_index == 0
        self.batch_size = batch_size
        if matrix is not None:
            self._force_pure = matrix.force_pure
        else:
            self._force_pure = None if use_numpy(force_pure) else True

        field = ctx.field
        m = ctx.n_mul_gates
        fns = ctx.batch_functionals()
        if matrix is None:
            zero = BatchVector.zeros(field, (batch_size,), self._force_pure)
            self._f_r = self._rg_r = self._rh_r = zero
            self._assertion_shares = zero
            self._a = self._b = self._c = zero
            return
        dots = dot_batch_planes(field, fns.prepared(field), matrix)
        if m:
            f_r, rg_r, rh_r = dots.row(0), dots.row(1), dots.row(2)
            asserts = dots.row(3)
            if self.is_leader:
                f_r = f_r.add_scalar(fns.c_f)
                rg_r = rg_r.add_scalar(fns.c_rg)
            width = matrix.shape[1]
            self._a = matrix.column(width - 3)
            self._b = matrix.column(width - 2)
            self._c = matrix.column(width - 1)
        else:
            asserts = dots.row(0)
            zero = BatchVector.zeros(field, (batch_size,), self._force_pure)
            f_r = rg_r = rh_r = zero
            self._a = self._b = self._c = zero
        if self.is_leader:
            asserts = asserts.add_scalar(fns.c_assert)
        self._f_r = f_r
        self._rg_r = rg_r
        self._rh_r = rh_r
        self._assertion_shares = asserts
        # The round algebra operates on (B,)-sized vectors.  The fused
        # functional dots above want numpy whenever the matrix does,
        # but at small B the per-op numpy dispatch dwarfs the work, so
        # the round *state* drops to the pure backend (same BatchVector
        # API, bit-exact) below the tiny-batch threshold.
        if self._f_r._numpy and tiny_batch_force_pure(batch_size) is True:
            self._force_pure = True
            for name in (
                "_f_r", "_rg_r", "_rh_r", "_assertion_shares",
                "_a", "_b", "_c",
            ):
                vec = getattr(self, name)
                setattr(
                    self, name,
                    # repro: allow(plane-discipline) - one-time backend
                    # demotion (force_pure), not a per-round hot path
                    BatchVector(field, vec.shape, vec.to_ints(), False),
                )

    # ------------------------------------------------------------------

    def round1_all(self) -> Round1Batch:
        """Round-1 broadcasts for the whole batch, in plane form."""
        if self.ctx.n_mul_gates == 0:
            return Round1Batch.zeros(
                self.field, self.batch_size, self._force_pure
            )
        return Round1Batch(d=self._f_r - self._a, e=self._rg_r - self._b)

    def round2_all(
        self,
        round1: "Sequence[Round1Batch] | Sequence[Sequence[Round1Message]]",
    ) -> Round2Batch:
        """Round-2 broadcasts, given every server's round-1 broadcasts.

        ``round1`` is one :class:`Round1Batch` per server (the plane
        form); per-submission ``Round1Message`` lists (one list per
        submission, the scalar-wire seam) are accepted and converted.
        """
        round1 = list(round1)
        field = self.field
        if round1 and isinstance(round1[0], Round1Batch):
            if len(round1) != self.n_servers:
                raise SnipError("need a round-1 batch from every server")
            for batch in round1:
                if len(batch) != self.batch_size:
                    raise SnipError(
                        "round-1 batch does not cover every submission"
                    )
            d_total = _sum_across_servers([b.d for b in round1])
            e_total = _sum_across_servers([b.e for b in round1])
        else:
            if len(round1) != self.batch_size:
                raise SnipError("need round-1 messages for every submission")
            p = field.modulus
            for msgs in round1:
                if len(msgs) != self.n_servers:
                    raise SnipError(
                        "need a round-1 message from every server"
                    )
            d_total = BatchVector.from_ints(
                field,
                [sum(m.d for m in msgs) % p for msgs in round1],
                self._force_pure,
            )
            e_total = BatchVector.from_ints(
                field,
                [sum(m.e for m in msgs) % p for msgs in round1],
                self._force_pure,
            )
        if self.ctx.n_mul_gates == 0:
            sigma = BatchVector.zeros(
                field, (self.batch_size,), self._force_pure
            )
        else:
            d_total = _match_backend(d_total, self._a)
            e_total = _match_backend(e_total, self._a)
            s_inv = pow(self.n_servers % field.modulus, -1, field.modulus)
            sigma = (
                (d_total * e_total).scale(s_inv)
                + d_total * self._b
                + e_total * self._a
                + self._c
                - self._rh_r
            )
        return Round2Batch(sigma=sigma, assertion=self._assertion_shares)


def verify_snip_batch(
    ctx: VerificationContext,
    submissions: Sequence[
        tuple[Sequence[Sequence[int]], Sequence[SnipProofShare]]
    ],
    force_pure: bool | None = None,
) -> list[VerificationOutcome]:
    """Verify many submissions lock-step, one vectorized sweep per server.

    ``submissions`` holds one ``(x_shares, proof_shares)`` pair per
    client (as produced by :func:`repro.snip.prover.prove_and_share` /
    ``prove_and_share_many``).  Each outcome is decided independently:
    a bad submission in the batch rejects alone.
    """
    if not submissions:
        return []
    n_servers = len(submissions[0][0])
    for x_shares, proof_shares in submissions:
        if len(x_shares) != n_servers or len(proof_shares) != n_servers:
            raise SnipError("inconsistent server count across the batch")
    parties = [
        BatchedSnipVerifierParty(
            ctx, i, n_servers,
            [sub[0][i] for sub in submissions],
            [sub[1][i] for sub in submissions],
            force_pure,
        )
        for i in range(n_servers)
    ]
    round1_by_server = [party.round1_all() for party in parties]
    round2_by_server = [
        party.round2_all(round1_by_server) for party in parties
    ]
    sigma_ints = _sum_across_servers(
        [b.sigma for b in round2_by_server]
    ).to_ints()
    assertion_ints = _sum_across_servers(
        [b.assertion for b in round2_by_server]
    ).to_ints()
    return [
        VerificationOutcome(
            accepted=(s == 0 and a == 0),
            sigma_total=s,
            assertion_total=a,
        )
        for s, a in zip(sigma_ints, assertion_ints)
    ]
