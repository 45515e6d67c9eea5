"""Tests for the distributed differential-privacy extension (Section 7)."""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.field.batch import BatchVector, backend_name, signed_delta_batch
from repro.protocol import (
    DpError,
    PrioDeployment,
    add_noise_to_accumulator,
    discrete_laplace_scale,
    server_noise_share,
    server_noise_vector,
)
from repro.workloads import CellSignalAfe


@pytest.fixture
def generator():
    return np.random.default_rng(20260610)


def test_noise_share_is_integer(generator):
    share = server_noise_share(1.0, 1.0, 5, generator)
    assert isinstance(share, int)


def test_noise_sum_is_centered(generator):
    """Total noise across servers has mean ~0."""
    totals = []
    for _ in range(3000):
        totals.append(
            sum(server_noise_share(1.0, 1.0, 5, generator) for _ in range(5))
        )
    scale = discrete_laplace_scale(1.0, 1.0)
    mean = np.mean(totals)
    assert abs(mean) < 5 * scale / np.sqrt(len(totals))


def test_noise_scale_matches_theory(generator):
    """Empirical stddev of the summed noise ~ the DLap stddev."""
    epsilon, sensitivity, s = 0.5, 1.0, 3
    totals = [
        sum(
            server_noise_share(epsilon, sensitivity, s, generator)
            for _ in range(s)
        )
        for _ in range(4000)
    ]
    theory = discrete_laplace_scale(epsilon, sensitivity)
    measured = float(np.std(totals))
    assert 0.8 * theory < measured < 1.25 * theory


def test_noise_grows_as_epsilon_shrinks():
    assert discrete_laplace_scale(0.1, 1.0) > discrete_laplace_scale(1.0, 1.0)


def test_parameter_validation(generator):
    with pytest.raises(DpError):
        server_noise_share(0, 1.0, 3, generator)
    with pytest.raises(DpError):
        server_noise_share(1.0, 0, 3, generator)
    with pytest.raises(DpError):
        server_noise_share(1.0, 1.0, 0, generator)


def test_accumulator_noising(generator):
    field = FIELD87
    accumulator = [100, 200, 300]
    noised = add_noise_to_accumulator(
        field, accumulator, epsilon=2.0, sensitivity=1.0,
        n_servers=2, generator=generator,
    )
    assert len(noised) == 3
    for original, noisy in zip(accumulator, noised):
        # Noise at eps=2 is small; centered lift recovers the offset.
        offset = field.to_signed(field.sub(noisy, original))
        assert abs(offset) < 50


def test_vectorized_sampler_matches_scalar_statistics(generator):
    """The batched Polya sampler must agree with the scalar reference:
    same seed class, matched mean/stddev, and the per-share stddev
    implied by ``discrete_laplace_scale`` (DLap variance divides evenly
    across the s servers, so one share has stddev scale/sqrt(s))."""
    epsilon, sensitivity, s = 0.5, 1.0, 3
    n = 6000
    positives, negatives = server_noise_vector(
        n, epsilon, sensitivity, s, np.random.default_rng(42)
    )
    assert positives.shape == negatives.shape == (n,)
    assert positives.min() >= 0 and negatives.min() >= 0
    batched = positives.astype(np.int64) - negatives.astype(np.int64)
    scalar_gen = np.random.default_rng(42)
    scalar = np.array([
        server_noise_share(epsilon, sensitivity, s, scalar_gen)
        for _ in range(n)
    ])
    share_scale = discrete_laplace_scale(epsilon, sensitivity) / np.sqrt(s)
    for sample in (batched, scalar):
        assert abs(float(np.mean(sample))) < 5 * share_scale / np.sqrt(n)
        assert 0.85 * share_scale < float(np.std(sample)) < 1.2 * share_scale
    # The two samplers draw from the same distribution: matched moments.
    assert abs(float(np.std(batched)) - float(np.std(scalar))) < (
        0.25 * share_scale
    )


def test_signed_delta_batch_matches_field_arithmetic(generator):
    """The vectorized signed embedding is exact field arithmetic."""
    field = FIELD87
    positives = [0, 1, 5, 2**40, 17, 0]
    negatives = [0, 4, 5, 3, 2**50, 123456]
    batch = signed_delta_batch(field, positives, negatives)
    expected = [
        field.sub(field.reduce(a), field.reduce(b))
        for a, b in zip(positives, negatives)
    ]
    assert batch.to_ints() == expected
    assert batch.backend == backend_name()


def test_plane_resident_accumulator_noising(generator):
    """Noising a BatchVector accumulator stays on the same backend and
    never materializes Python ints until the caller decodes."""
    field = FIELD87
    acc = BatchVector.from_ints(field, [100, 200, 300, 400])
    noised = add_noise_to_accumulator(
        field, acc, epsilon=2.0, sensitivity=1.0,
        n_servers=2, generator=generator,
    )
    assert isinstance(noised, BatchVector)
    assert noised.backend == acc.backend
    assert noised.shape == (4,)
    for original, value in zip([100, 200, 300, 400], noised.to_ints()):
        assert 0 <= value < field.modulus  # canonical
        assert abs(field.to_signed(field.sub(value, original))) < 50


def test_deployment_noised_publish_stays_canonical(generator):
    """End to end: server-side plane-resident noising keeps publish()
    field-canonical and the decoded aggregate near the truth."""
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(afe, 3, rng=random.Random(7))
    values = [50, 100, 150, 200]
    assert deployment.submit_many(values) == 4
    for server in deployment.servers:
        backend_before = server._accumulator.backend
        server.add_dp_noise(
            epsilon=1.0, sensitivity=255.0, generator=generator
        )
        # Still a plane, still on the server's configured backend (the
        # tiny-batch heuristic may legitimately have chosen pure here).
        assert isinstance(server._accumulator, BatchVector)
        assert server._accumulator.backend == backend_before
        for value in server.publish():
            assert 0 <= value < FIELD87.modulus
    # The total noise may be negative: lift the published sum signedly.
    noisy = FIELD87.to_signed(FIELD87.reduce(deployment.publish()))
    scale = discrete_laplace_scale(1.0, 255.0)
    assert abs(noisy - sum(values)) < 10 * scale


def test_noised_aggregate_still_useful(generator):
    """Accuracy sanity: with n=1000 clients and eps=1, the noisy sum is
    within a tiny relative error of the truth."""
    field = FIELD87
    true_sum = 50_000
    total_noise = sum(
        server_noise_share(1.0, 1.0, 5, generator) for _ in range(5)
    )
    noisy = field.to_signed(
        field.add(true_sum, field.from_signed(total_noise))
    )
    assert abs(noisy - true_sum) < 100  # relative error < 0.2%


def _server_noise(generators):
    """Each server's published noise vector (nothing submitted) when
    server i draws from ``generators[i]``."""
    afe = CellSignalAfe(FIELD87, n_cells=16)
    deployment = PrioDeployment.create(afe, len(generators), seed=b"dp-own")
    noise = []
    for server, generator in zip(deployment.servers, generators):
        server.add_dp_noise(
            epsilon=1.0, sensitivity=255.0, generator=generator
        )
        noise.append(server.publish())
    deployment.close()
    return noise


def test_each_server_draws_its_own_noise_by_default():
    """By default a server's noise comes from its own OS-seeded
    generator: two servers' vectors differ, and so do two runs.  A
    generator shared by every server would let anyone who knows its
    seed subtract the whole noise again.  A passed generator still
    reproduces its draws."""
    first, second = _server_noise([None, None])
    again, _ = _server_noise([None, None])
    assert len({tuple(first), tuple(second), tuple(again)}) == 3
    seeded = [np.random.default_rng(31), np.random.default_rng(31)]
    left, right = _server_noise(seeded)
    assert left == right
    assert len(left) == 16 and any(left)
