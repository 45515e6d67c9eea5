"""Round-message equivalence: plane-form batches vs scalar reference.

The unified pipeline computes the round-1/round-2 broadcasts, the
accept/reject decisions, and the accumulator entirely in limb-plane
form.  This suite pins them — bit for bit — to an independent scalar
reference implementation embedded below: the pre-unification verifier
(wire-share reconstruction + Lagrange inner products + per-message
Python-int algebra), which the deleted scalar path used to run.

Sweeps cover every shipped NTT-friendly modulus, both backends, and
adversarially corrupted submissions at random batch positions.  The
small deterministic cases run in tier-1; the randomized full sweep is
``slow``-marked (run with ``-m slow``).
"""

import random
from dataclasses import replace

import pytest

from repro.afe import FrequencyCountAfe, IntegerSumAfe, VectorSumAfe
from repro.circuit.circuit import batched_assertion_share
from repro.field import FIELD64, FIELD87, FIELD265, FIELD_SMALL, use_numpy
from repro.snip import (
    BatchedSnipVerifierParty,
    Round1Batch,
    Round2Batch,
    ServerRandomness,
    SnipVerifierParty,
    VerificationContext,
    prove_and_share,
)

BACKENDS = [True] + ([False] if use_numpy(None) else [])


def backend_id(force_pure):
    return "pure" if force_pure else "numpy"


@pytest.fixture
def rng():
    return random.Random(0xE09)


class ReferenceParty:
    """The pre-unification scalar verifier, kept as an oracle.

    Computes f(r)/r*g(r)/r*h(r) through wire-share reconstruction and
    Lagrange inner products (never through the batch functionals), and
    the round messages with plain Python-int arithmetic.
    """

    def __init__(self, ctx, server_index, n_servers, x_share, proof_share):
        self.ctx = ctx
        self.field = ctx.field
        self.n_servers = n_servers
        self.is_leader = server_index == 0
        self.proof_share = proof_share
        field, circuit, m = ctx.field, ctx.circuit, ctx.n_mul_gates
        mul_out = proof_share.mul_output_shares(m)
        wires = circuit.reconstruct_wire_shares(
            field, x_share, mul_out, is_leader=self.is_leader
        )
        self.assertion_share = batched_assertion_share(
            field, wires.assertion_shares,
            list(ctx.challenge.assertion_coefficients),
        )
        if m:
            pad = [0] * (ctx.size_n - m - 1)
            f_evals = [proof_share.f0] + wires.mul_inputs_left + pad
            g_evals = [proof_share.g0] + wires.mul_inputs_right + pad
            p = field.modulus
            r = ctx.challenge.r
            self.f_r = field.inner_product(ctx.weights_n, f_evals)
            g_r = field.inner_product(ctx.weights_n, g_evals)
            h_r = field.inner_product(ctx.weights_2n, proof_share.h_evals)
            self.rg_r = (r * g_r) % p
            self.rh_r = (r * h_r) % p
        else:
            self.f_r = self.rg_r = self.rh_r = 0

    def round1(self):
        if self.ctx.n_mul_gates == 0:
            return (0, 0)
        f = self.field
        return (
            f.sub(self.f_r, self.proof_share.a),
            f.sub(self.rg_r, self.proof_share.b),
        )

    def round2(self, round1_messages):
        p = self.field.modulus
        if self.ctx.n_mul_gates == 0:
            return (0, self.assertion_share)
        d = sum(m[0] for m in round1_messages) % p
        e = sum(m[1] for m in round1_messages) % p
        s_inv = pow(self.n_servers % p, -1, p)
        share = self.proof_share
        sigma = (
            d * e % p * s_inv
            + d * share.b
            + e * share.a
            + share.c
            - self.rh_r
        ) % p
        return (sigma, self.assertion_share)


def _context(afe, seed=b"round-equivalence"):
    circuit = afe.valid_circuit()
    challenge = ServerRandomness(seed).challenge(afe.field, circuit, 0)
    return circuit, VerificationContext(afe.field, circuit, challenge)


CORRUPTIONS = ("x_share", "h_eval", "triple", "f0")


def _corrupt(sub, how, rng, field):
    x_shares, proof_shares = sub
    server = rng.randrange(len(x_shares))
    p = field.modulus
    if how == "x_share":
        pos = rng.randrange(len(x_shares[server]))
        x_shares[server][pos] = (x_shares[server][pos] + 1) % p
    elif how == "h_eval":
        share = proof_shares[server]
        pos = rng.randrange(len(share.h_evals))
        share.h_evals[pos] = (share.h_evals[pos] + 1) % p
    elif how == "triple":
        proof_shares[server] = replace(
            proof_shares[server], c=(proof_shares[server].c + 1) % p
        )
    else:
        proof_shares[server] = replace(
            proof_shares[server], f0=(proof_shares[server].f0 + 1) % p
        )


def _run_reference(ctx, submissions, n_servers):
    """Per-submission reference messages + decisions."""
    out = []
    for x_shares, proof_shares in submissions:
        parties = [
            ReferenceParty(ctx, i, n_servers, x_shares[i], proof_shares[i])
            for i in range(n_servers)
        ]
        round1 = [party.round1() for party in parties]
        round2 = [party.round2(round1) for party in parties]
        p = ctx.field.modulus
        accepted = (
            sum(m[0] for m in round2) % p == 0
            and sum(m[1] for m in round2) % p == 0
        )
        out.append((round1, round2, accepted))
    return out


def _run_planes(ctx, submissions, n_servers, force_pure):
    """Plane-form batched rounds for the same submissions."""
    parties = [
        BatchedSnipVerifierParty(
            ctx, i, n_servers,
            [sub[0][i] for sub in submissions],
            [sub[1][i] for sub in submissions],
            force_pure,
        )
        for i in range(n_servers)
    ]
    round1_batches = [party.round1_all() for party in parties]
    round2_batches = [party.round2_all(round1_batches) for party in parties]
    decisions = Round2Batch.decide_all(round2_batches)
    return round1_batches, round2_batches, decisions


def _assert_equivalent(ctx, submissions, n_servers, force_pure, rng):
    reference = _run_reference(ctx, submissions, n_servers)
    round1_batches, round2_batches, decisions = _run_planes(
        ctx, submissions, n_servers, force_pure
    )
    assert isinstance(round1_batches[0], Round1Batch)
    for s in range(n_servers):
        r1, r2 = round1_batches[s], round2_batches[s]
        d, e = r1.d.to_ints(), r1.e.to_ints()
        sigma, assertion = r2.sigma.to_ints(), r2.assertion.to_ints()
        for i, (ref_r1, ref_r2, _) in enumerate(reference):
            assert (d[i], e[i]) == ref_r1[s]
            assert (sigma[i], assertion[i]) == ref_r2[s]
    assert decisions == [ref[2] for ref in reference]
    # The scalar wrapper (a batch of one) agrees message-for-message.
    spot = rng.randrange(len(submissions))
    x_shares, proof_shares = submissions[spot]
    scalar_parties = [
        SnipVerifierParty(ctx, i, n_servers, x_shares[i], proof_shares[i])
        for i in range(n_servers)
    ]
    scalar_r1 = [party.round1() for party in scalar_parties]
    ref_r1 = reference[spot][0]
    assert [(m.d, m.e) for m in scalar_r1] == list(ref_r1)
    scalar_r2 = [party.round2(scalar_r1) for party in scalar_parties]
    assert [
        (m.sigma, m.assertion) for m in scalar_r2
    ] == list(reference[spot][1])


def _make_submissions(afe, circuit, batch, n_servers, rng, n_bad):
    values = [afe.random_value(rng) for _ in range(batch)]
    encodings = [afe.encode(v) for v in values]
    submissions = [
        list(prove_and_share(afe.field, circuit, x, n_servers, rng))
        for x in encodings
    ]
    bad_positions = rng.sample(range(batch), n_bad) if n_bad else []
    for pos in bad_positions:
        _corrupt(
            submissions[pos], rng.choice(CORRUPTIONS), rng, afe.field
        )
    return submissions, set(bad_positions)


def _afe_cases(field):
    return [
        ("sum", IntegerSumAfe(field, 5), lambda rng: rng.randrange(32)),
        (
            "vector",
            VectorSumAfe(field, 6, 1),
            lambda rng: [rng.randrange(2) for _ in range(6)],
        ),
        ("frequency", FrequencyCountAfe(field, 4), lambda rng: rng.randrange(4)),
    ]


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_round_equivalence_fast(force_pure, rng):
    """Tier-1 case: F87, one adversarial submission at a random slot."""
    name, afe, draw = _afe_cases(FIELD87)[1]
    del name
    afe.random_value = draw
    circuit, ctx = _context(afe)
    submissions, bad = _make_submissions(afe, circuit, 7, 3, rng, n_bad=2)
    _assert_equivalent(ctx, submissions, 3, force_pure, rng)
    _, _, decisions = _run_planes(ctx, submissions, 3, force_pure)
    for i, accepted in enumerate(decisions):
        assert accepted == (i not in bad)


@pytest.mark.slow
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize(
    "field",
    [FIELD87, FIELD64, FIELD265, FIELD_SMALL],
    ids=lambda f: f.name,
)
def test_round_equivalence_randomized(field, force_pure, rng):
    """Randomized sweep: all shipped moduli, random circuits/corruption."""
    for case_index, (name, afe, draw) in enumerate(_afe_cases(field)):
        del name
        afe.random_value = draw
        circuit, ctx = _context(afe, seed=b"sweep-%d" % case_index)
        for trial in range(3):
            batch = rng.randrange(1, 9)
            n_servers = rng.choice([2, 3, 5])
            n_bad = rng.randrange(0, min(3, batch + 1))
            submissions, bad = _make_submissions(
                afe, circuit, batch, n_servers, rng, n_bad
            )
            _assert_equivalent(ctx, submissions, n_servers, force_pure, rng)
            _, _, decisions = _run_planes(
                ctx, submissions, n_servers, force_pure
            )
            # Honest rows always accept; corrupted rows reject except
            # with the (tiny, field-dependent) soundness error — on
            # FIELD_SMALL a corrupted share *can* verify, so only the
            # honest direction is asserted there.
            for i, accepted in enumerate(decisions):
                if i not in bad:
                    assert accepted
                elif field is not FIELD_SMALL:
                    assert not accepted


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_plane_accumulator_matches_scalar_sum(force_pure, rng):
    """The plane-resident accumulator equals the scalar fold, and stays
    plane-resident until publish."""
    from repro.field.batch import BatchVector
    from repro.protocol import PrioDeployment

    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(
        afe, 2, batch_size=4, force_pure_backend=force_pure, rng=rng
    )
    values = [rng.randrange(256) for _ in range(13)]
    assert deployment.submit_many(values) == 13
    server = deployment.servers[0]
    assert isinstance(server._accumulator, BatchVector)
    # reference: scalar fold over the published shares
    shares = [srv.publish() for srv in deployment.servers]
    total = FIELD87.vec_sum(shares)
    assert afe.decode(total, 13) == sum(values)


@pytest.mark.slow
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize(
    "field", [FIELD87, FIELD64, FIELD265], ids=lambda f: f.name
)
def test_deployment_equivalence_randomized(field, force_pure, rng):
    """Full deployments: batched/pipelined streams with adversarial
    submissions at random positions publish the honest-only aggregate."""
    from repro.protocol import PrioDeployment

    afe = IntegerSumAfe(field, 6)
    for trial in range(2):
        batch_size = rng.choice([1, 3, 5])
        deployment = PrioDeployment.create(
            afe, rng.choice([2, 3]), batch_size=batch_size,
            force_pure_backend=force_pure, rng=rng,
        )
        values = [rng.randrange(64) for _ in range(11)]
        submissions = deployment.client.prepare_submissions(values)
        bad = rng.randrange(len(values))
        packet = submissions[bad].packets[0]
        body = bytearray(packet.body)
        body[-1] ^= 1
        submissions[bad].packets[0] = replace(packet, body=bytes(body))
        results = deployment.deliver(submissions)
        assert [r for i, r in enumerate(results) if i != bad] == [True] * 10
        assert not results[bad]
        honest = sum(v for i, v in enumerate(values) if i != bad)
        assert deployment.publish() == honest
