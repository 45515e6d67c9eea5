"""SNIP prover (Section 4.2, Step 1 — "Client evaluation").

The client evaluates the Valid circuit on its own input, so it knows
every wire value.  It then:

1. builds the lowest-degree polynomials f and g through the left/right
   multiplication-gate input wires, with *random* values at the extra
   point (index 0) — the randomization that makes the proof
   zero-knowledge (Appendix D.2, "Why randomize the polynomials?"),
2. multiplies them, h = f * g, so that h's value at gate t's point is
   the gate's true output wire value, and
3. deals a Beaver triple for the verifiers' one share-multiplication.

Cost: one circuit evaluation plus O(M log M) field multiplications for
the three NTTs — the "Muls" column of Table 2.

These functions are the scalar oracle.  The one batched prover is
``PrioClient.prepare_submissions`` over :mod:`repro.snip.batch_prover`,
bit-identical to per-value :func:`build_proof` under the same rng.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuit.circuit import Circuit
from repro.field.ntt import EvaluationDomain
from repro.field.prime_field import PrimeField
from repro.mpc.beaver import BeaverTriple, generate_triple, share_triple
from repro.sharing.additive import share_scalar, share_vector
from repro.snip.proof import SnipError, SnipProof, SnipProofShare, snip_domain_sizes


def build_proof(
    field: PrimeField,
    circuit: Circuit,
    x: Sequence[int],
    rng,
    check_valid: bool = True,
) -> SnipProof:
    """Construct the plaintext SNIP proof for input ``x``.

    With ``check_valid=True`` (the default) the prover refuses inputs
    that fail the Valid predicate — an honest client never proves a
    false statement.  Tests of the soundness property disable the check
    and corrupt proofs deliberately.
    """
    trace = circuit.evaluate(field, x)
    if check_valid and not trace.is_valid:
        raise SnipError(
            f"input does not satisfy {circuit.name}; refusing to prove"
        )
    m = circuit.n_mul_gates
    if m == 0:
        # Affine-only circuits need no polynomial identity test.
        return SnipProof(f0=0, g0=0, h_evals=[], triple=BeaverTriple(0, 0, 0))

    size_n, size_2n = snip_domain_sizes(m)
    domain_n = EvaluationDomain(field, size_n)
    domain_2n = EvaluationDomain(field, size_2n)

    u0 = field.rand(rng)
    v0 = field.rand(rng)
    f_evals = [u0] + trace.mul_inputs_left + [0] * (size_n - m - 1)
    g_evals = [v0] + trace.mul_inputs_right + [0] * (size_n - m - 1)

    f_coeffs = domain_n.interpolate(f_evals)
    g_coeffs = domain_n.interpolate(g_evals)

    p = field.modulus
    f_on_2n = domain_2n.evaluate(f_coeffs)
    g_on_2n = domain_2n.evaluate(g_coeffs)
    h_evals = [(a * b) % p for a, b in zip(f_on_2n, g_on_2n)]

    return SnipProof(
        f0=u0, g0=v0, h_evals=h_evals, triple=generate_triple(field, rng)
    )


def share_proof(
    field: PrimeField,
    proof: SnipProof,
    n_servers: int,
    rng,
) -> list[SnipProofShare]:
    """Split a proof into one additive share per server."""
    if n_servers < 2:
        raise SnipError("a SNIP needs at least two verifiers")
    f0_shares = share_scalar(field, proof.f0, n_servers, rng)
    g0_shares = share_scalar(field, proof.g0, n_servers, rng)
    if proof.h_evals:
        h_shares = share_vector(field, proof.h_evals, n_servers, rng)
    else:
        h_shares = [[] for _ in range(n_servers)]
    triple_shares = share_triple(field, proof.triple, n_servers, rng)
    return [
        SnipProofShare(
            f0=f0_shares[i],
            g0=g0_shares[i],
            h_evals=h_shares[i],
            a=triple_shares[i].a,
            b=triple_shares[i].b,
            c=triple_shares[i].c,
        )
        for i in range(n_servers)
    ]


def prove_and_share(
    field: PrimeField,
    circuit: Circuit,
    x: Sequence[int],
    n_servers: int,
    rng,
) -> tuple[list[list[int]], list[SnipProofShare]]:
    """Full client upload: shares of ``x`` and shares of the proof.

    Returns ``(x_shares, proof_shares)``, one entry of each per server.
    """
    x_shares = share_vector(field, list(x), n_servers, rng)
    proof = build_proof(field, circuit, x, rng)
    proof_shares = share_proof(field, proof, n_servers, rng)
    return x_shares, proof_shares
