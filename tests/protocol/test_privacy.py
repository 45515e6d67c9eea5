"""Privacy-property tests: anonymity, intersection attacks, and the DP
defence (Section 7, Appendix A)."""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import PrioDeployment
from repro.protocol.dp import discrete_laplace_scale


@pytest.fixture
def rng():
    return random.Random(808080)


def run_sum(values, seed, rng_seed):
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(
        afe, 3, seed=seed, rng=random.Random(rng_seed)
    )
    deployment.submit_many(values)
    return deployment


def test_aggregate_invariant_under_client_permutation(rng):
    """Claim 4 machinery: sum is symmetric, so the published aggregate
    carries no information about *which* client held which value."""
    values = [rng.randrange(256) for _ in range(10)]
    permuted = list(values)
    rng.shuffle(permuted)
    a = run_sum(values, b"perm", 1).publish()
    b = run_sum(permuted, b"perm", 2).publish()
    assert a == b


def test_individual_shares_look_uniform(rng):
    """No single server's accumulator reveals the total: any s-1
    accumulators are uniformly distributed (statistical spot check on
    the low bits across repeated runs)."""
    low_bits = []
    for trial in range(200):
        deployment = run_sum([7], b"u" + bytes([trial % 256]), trial)
        share = deployment.servers[0].publish()[0]
        low_bits.append(share & 1)
    ones = sum(low_bits)
    assert 60 < ones < 140  # ~Binomial(200, 0.5)


def test_intersection_attack_without_dp(rng):
    """The Section 7 attack: comparing aggregates with and without one
    client reveals that client's exact value when no noise is added."""
    values = [rng.randrange(256) for _ in range(20)]
    target = values[-1]
    with_target = run_sum(values, b"ia", 10).publish()
    without_target = run_sum(values[:-1], b"ia", 11).publish()
    assert with_target - without_target == target  # attack succeeds


def test_intersection_attack_blunted_by_dp(rng):
    """With distributed DP noise the difference of the two published
    sums is the value plus DLap noise — the adversary's estimate is
    fuzzy by the noise scale."""
    generator = np.random.default_rng(77)
    epsilon, sensitivity = 0.2, 255.0
    values = [rng.randrange(256) for _ in range(20)]
    target = values[-1]

    estimates = []
    for trial in range(30):
        d_with = run_sum(values, b"dp", 100 + trial)
        d_without = run_sum(values[:-1], b"dp", 200 + trial)
        for deployment in (d_with, d_without):
            for server in deployment.servers:
                server.add_dp_noise(epsilon, sensitivity, generator)
        diff = FIELD87.to_signed(
            FIELD87.sub(d_with.publish(), d_without.publish())
        )
        estimates.append(diff)

    scale = discrete_laplace_scale(epsilon, sensitivity)
    errors = [abs(e - target) for e in estimates]
    # The noise must actually perturb the attacker's view...
    assert max(errors) > scale / 4
    # ...by roughly the calibrated amount on average.
    mean_error = sum(errors) / len(errors)
    assert mean_error > scale / 10


def test_upload_packets_carry_no_plaintext(rng):
    """The explicit packet body must not contain the encoded value in
    the clear (it is one uniform additive share)."""
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    value = 200
    submission = deployment.client.prepare_submissions([value])[0]
    explicit = FIELD87.decode_vector(submission.packets[-1].body)
    # First element is a share of 200 — a uniform field element; the
    # probability it literally equals 200 is ~2^-87.
    assert explicit[0] != value
