"""Plane-resident batched SNIP proving — the client half of the plane
pipeline.

PRs 1-4 made the *server* side plane-resident from socket bytes to
``publish()``; this module gives the client's Section 4.2 work (evaluate
Valid, build the randomized f/g polynomials, h = f * g) the same
treatment.  A batch of submissions flows

    values ──afe.encode──► encodings (Python ints, per value)
           ──compiled-plan sweep──► (B, M) mul-input planes + validity
           (u0/v0/Beaver triples drawn per value, scalar order)
           ──h_planes_batch──► one fused coset-extension sweep
                               (field.batch.coset_extend_product), h as planes
           ──submission_planes──► (B, k + proof_len) x||proof matrix
           ──share_vectors_client_batch──► PRG seeds + explicit planes
           ──encode_bytes_batch──► wire bodies

with the deterministic polynomial work batched across the whole
submission set and no per-element Python-int crossing between the
circuit trace and the wire bytes.

Draw-order contract
-------------------

Everything here preserves *scalar rng order*: the per-submission
randomness (the AFE encoding happens outside, then f(0), g(0), the
Beaver triple) is drawn submission by submission, in exactly the order
sequential :func:`repro.snip.prover.build_proof` calls would draw it.
The deterministic work — interpolation, the double-domain evaluation,
h = f * g, the last additive share — carries no randomness at all,
which is what lets it batch freely *after* the draws.  The client
differential suite (``tests/snip/test_client_batch_equivalence.py``)
asserts bit-identity of the resulting uploads against the scalar
client on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.circuit import Circuit
from repro.field.batch import (
    BatchVector,
    concat_columns,
    coset_extend_product,
)
from repro.field.prime_field import PrimeField
from repro.mpc.beaver import BeaverTriple, generate_triple
from repro.snip.proof import SnipError, snip_domain_sizes

__all__ = [
    "ProofRandomness",
    "draw_proof_randomness",
    "h_planes_batch",
    "submission_planes",
]


@dataclass(frozen=True)
class ProofRandomness:
    """One submission's client-drawn proof randomness, in draw order.

    ``u0 = f(0)``, ``v0 = g(0)`` (the zero-knowledge masks), then the
    Beaver triple — exactly the values, and exactly the order,
    :func:`repro.snip.prover.build_proof` draws them.
    """

    u0: int
    v0: int
    triple: BeaverTriple


def draw_proof_randomness(
    field: PrimeField,
    circuit: Circuit,
    x: Sequence[int],
    rng,
    check_valid: bool = True,
):
    """Evaluate ``Valid(x)`` and draw one proof's randomness, scalar order.

    Returns ``(trace, ProofRandomness | None)`` — ``None`` for
    multiplication-free circuits, which need no polynomial identity
    test (and whose :func:`build_proof` draws nothing).  Raising on an
    invalid input happens *before* any draw, so a batched caller that
    loops this per submission leaves the rng at exactly the state a
    failing scalar :func:`build_proof` call would.
    """
    trace = circuit.evaluate(field, x)
    if check_valid and not trace.is_valid:
        raise SnipError(
            f"input does not satisfy {circuit.name}; refusing to prove"
        )
    if circuit.n_mul_gates == 0:
        return trace, None
    u0 = field.rand(rng)
    v0 = field.rand(rng)
    return trace, ProofRandomness(
        u0=u0, v0=v0, triple=generate_triple(field, rng)
    )


def h_planes_batch(
    field: PrimeField,
    circuit: Circuit,
    traces,
    randoms: "Sequence[ProofRandomness]",
    force_pure: bool | None = None,
) -> BatchVector:
    """The deterministic prover sweep for ``B`` traces: h as ``(B, 2N)``.

    This function only lays out the ``(B, N)`` evaluation blocks of
    ``f`` and ``g``; the polynomial work — interpolate, extend to the
    odd points of the double domain, multiply — is
    :func:`repro.field.batch.coset_extend_product`, one size-N
    transform pair over all ``2B`` rows.  The result is bit-identical
    to what per-proof :func:`repro.snip.prover.build_proof` computes,
    but the values never leave limb planes.

    ``traces`` is either a list of scalar
    :class:`~repro.circuit.circuit.EvaluationTrace` objects (one per
    submission) or a single plane-resident
    :class:`~repro.circuit.compiled.BatchTrace` from a compiled plan —
    in the latter case the f/g blocks assemble by plane copy from the
    trace's ``(B, M)`` mul-input matrices and only the per-submission
    ``u0``/``v0`` scalars are encoded from ints.
    """
    from repro.circuit.compiled import BatchTrace

    m = circuit.n_mul_gates
    size_n, size_2n = snip_domain_sizes(m)
    plane_trace = isinstance(traces, BatchTrace)
    if not plane_trace:
        traces = list(traces)
    B = len(traces)
    if m == 0 or B == 0:
        return BatchVector.zeros(field, (B, size_2n), force_pure)
    if plane_trace:
        if force_pure is None:
            force_pure = traces.mul_inputs_left.force_pure
        lefts, rights = traces.mul_inputs_left, traces.mul_inputs_right
        pad = BatchVector.zeros(field, (B, size_n - m - 1), force_pure)

        def block(heads, inputs):
            return concat_columns(
                field, [[[h] for h in heads], inputs, pad], force_pure
            )
    else:
        lefts = [trace.mul_inputs_left for trace in traces]
        rights = [trace.mul_inputs_right for trace in traces]
        pad = [0] * (size_n - m - 1)

        def block(heads, inputs):
            return BatchVector.from_ints(
                field,
                [[h] + row + pad for h, row in zip(heads, inputs)],
                force_pure,
            )
    return coset_extend_product(
        block([r.u0 for r in randoms], lefts),
        block([r.v0 for r in randoms], rights),
    )


def submission_planes(
    field: PrimeField,
    circuit: Circuit,
    encodings: Sequence[Sequence[int]],
    randoms: "Sequence[ProofRandomness | None]",
    h: BatchVector,
    force_pure: bool | None = None,
) -> BatchVector:
    """Assemble the ``(B, k + proof_len)`` ``x || flatten(proof)`` matrix.

    Row ``i`` is bit-identical to ``list(encodings[i]) +
    SnipProof(...).flatten()`` for the proof built from ``randoms[i]``
    and row ``i`` of ``h`` — the canonical vector the client PRG-shares
    and frames.  Only the (inherently scalar) encodings and the five
    per-submission proof scalars are encoded from ints; ``h``, the bulk
    of the proof, joins by plane copy.
    """
    encodings = [list(e) for e in encodings]
    B = len(encodings)
    if circuit.n_mul_gates == 0:
        # flatten() of the empty proof: f0 g0 (no h) a b c — all zero.
        return concat_columns(
            field, [encodings, [[0] * 5 for _ in range(B)]], force_pure
        )
    head = [
        enc + [r.u0, r.v0] for enc, r in zip(encodings, randoms)
    ]
    tail = [[r.triple.a, r.triple.b, r.triple.c] for r in randoms]
    return concat_columns(field, [head, h, tail], force_pure)
