"""End-to-end pipeline tests: client -> servers -> aggregate -> decode."""

import random

import pytest

from repro.afe import (
    BoolOrAfe,
    FrequencyCountAfe,
    IntegerSumAfe,
    LinRegAfe,
    MaxAfe,
    VarianceAfe,
)
from repro.field import FIELD87
from repro.protocol import (
    NoPrivacyPipeline,
    NoRobustnessPipeline,
    PrioDeployment,
    ProtocolError,
)


@pytest.fixture
def rng():
    return random.Random(121212)


@pytest.mark.parametrize("n_servers", [2, 3, 5])
def test_sum_pipeline(n_servers, rng):
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(afe, n_servers, rng=rng)
    values = [rng.randrange(256) for _ in range(20)]
    assert deployment.submit_many(values) == 20
    assert deployment.publish() == sum(values)
    assert deployment.stats.n_accepted == 20
    assert deployment.stats.n_rejected == 0


def test_variance_pipeline(rng):
    import statistics

    afe = VarianceAfe(FIELD87, 6)
    deployment = PrioDeployment.create(afe, 3, rng=rng)
    values = [rng.randrange(64) for _ in range(15)]
    deployment.submit_many(values)
    mean, variance = deployment.publish()
    assert float(mean) == pytest.approx(statistics.mean(values))
    assert float(variance) == pytest.approx(statistics.pvariance(values))


def test_histogram_pipeline(rng):
    from collections import Counter

    afe = FrequencyCountAfe(FIELD87, 5)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    values = [rng.randrange(5) for _ in range(30)]
    deployment.submit_many(values)
    histogram = deployment.publish()
    counts = Counter(values)
    assert histogram == [counts.get(i, 0) for i in range(5)]


def test_boolean_or_pipeline_no_snip(rng):
    """GF(2) AFEs run with no proof at all (Valid is trivially true)."""
    afe = BoolOrAfe(lambda_bits=32)
    deployment = PrioDeployment.create(afe, 3, rng=rng)
    deployment.submit_many([False, False, True, False])
    assert deployment.publish() is True
    # No verification traffic for proof-free AFEs.
    assert all(s.elements_broadcast == 0 for s in deployment.servers)


def test_max_pipeline(rng):
    afe = MaxAfe(domain_size=32, lambda_bits=32)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    deployment.submit_many([5, 19, 3])
    assert deployment.publish() == 19


def test_regression_pipeline(rng):
    afe = LinRegAfe(FIELD87, dimension=1, n_bits=10)
    deployment = PrioDeployment.create(afe, 3, rng=rng)
    data = [([x], 5 * x + 2) for x in range(1, 30)]
    deployment.submit_many(data)
    coeffs = deployment.publish()
    assert coeffs[0] == pytest.approx(2, abs=1e-6)
    assert coeffs[1] == pytest.approx(5, abs=1e-6)


def test_encrypted_transport(rng):
    """Sealed-box transport end to end."""
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, encrypt=True, rng=rng)
    values = [3, 7, 11]
    assert deployment.submit_many(values) == 3
    assert deployment.publish() == 21


def test_uncompressed_sharing(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(
        afe, 3, use_prg_compression=False, rng=rng
    )
    deployment.submit_many([1, 2, 3])
    assert deployment.publish() == 6


def test_replay_rejected(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    submission = deployment.client.prepare_submission(5)
    assert deployment.deliver([submission]) == [True]
    assert deployment.deliver([submission]) == [False]  # replay
    assert deployment.publish() == 5
    assert deployment.servers[0].n_replayed == 1


def test_needs_two_servers(rng):
    with pytest.raises(ProtocolError):
        PrioDeployment.create(IntegerSumAfe(FIELD87, 4), 1, rng=rng)


def test_epoch_rotation(rng):
    """Contexts rotate after epoch_size submissions and still verify."""
    afe = IntegerSumAfe(FIELD87, 2)
    deployment = PrioDeployment.create(afe, 2, epoch_size=3, rng=rng)
    values = [rng.randrange(4) for _ in range(10)]
    assert deployment.submit_many(values) == 10
    assert deployment.publish() == sum(values)
    assert deployment.servers[0]._epoch >= 2


def test_deterministic_with_seeded_rng():
    afe = IntegerSumAfe(FIELD87, 4)
    d1 = PrioDeployment.create(afe, 2, seed=b"s", rng=random.Random(1))
    d2 = PrioDeployment.create(afe, 2, seed=b"s", rng=random.Random(1))
    s1 = d1.client.prepare_submission(9)
    s2 = d2.client.prepare_submission(9)
    assert s1.packets[0].encode() == s2.packets[0].encode()


# ----------------------------------------------------------------------
# Batched pipeline (batch_size knob)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_batched_pipeline_matches_unbatched(batch_size, rng):
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(
        afe, 3, batch_size=batch_size, rng=rng
    )
    values = [rng.randrange(256) for _ in range(20)]
    assert deployment.submit_many(values) == 20
    assert deployment.publish() == sum(values)
    assert deployment.stats.n_accepted == 20


def test_batched_stats_counted_per_submission(rng):
    """Regression: under batched accept/reject, ``n_rejected`` and
    ``upload_bytes_total`` must be counted per submission, never per
    batch."""
    from dataclasses import replace

    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(afe, 2, batch_size=5, rng=rng)
    values = [rng.randrange(256) for _ in range(10)]
    submissions = deployment.client.prepare_submissions(values)
    per_upload = submissions[0].upload_bytes
    assert all(s.upload_bytes == per_upload for s in submissions)

    # corrupt two submissions inside the first batch: one at the SNIP
    # layer (bad share values), one at the framing layer (bad length)
    bad_share = submissions[1]
    packet = bad_share.packets[0]
    body = bytearray(packet.body)
    body[0] ^= 1
    bad_share.packets[0] = replace(packet, body=bytes(body))

    bad_frame = submissions[3]
    packet = bad_frame.packets[1]
    bad_frame.packets[1] = replace(
        packet, n_elements=packet.n_elements - 1,
        body=packet.body[: -FIELD87.encoded_size],
    )

    results = deployment.deliver(submissions[:5])
    results += deployment.deliver(submissions[5:])
    assert results == [True, False, True, False] + [True] * 6

    stats = deployment.stats
    assert stats.n_submitted == 10
    assert stats.n_accepted == 8
    assert stats.n_rejected == 2          # per submission, not per batch
    # every submission's upload counted exactly once, including both
    # rejected ones
    expected_bytes = sum(s.upload_bytes for s in submissions)
    assert stats.upload_bytes_total == expected_bytes
    honest = sum(v for i, v in enumerate(values) if i not in (1, 3))
    assert deployment.publish() == honest
    # server-side counters agree with deployment-level ones
    assert deployment.servers[0].n_accepted == 8
    assert deployment.servers[0].n_rejected >= 1


def test_retry_after_partial_receive_failure(rng):
    """A submission whose frame is malformed for one server only must
    not poison its id at the servers that did receive it: a corrected
    retry with the same id succeeds."""
    from dataclasses import replace

    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    submission = deployment.client.prepare_submission(9)
    good_packet = submission.packets[1]
    submission.packets[1] = replace(
        good_packet, n_elements=good_packet.n_elements - 1,
        body=good_packet.body[: -FIELD87.encoded_size],
    )
    assert deployment.deliver([submission]) == [False]  # server 1 refuses
    submission.packets[1] = good_packet          # honest retry, same id
    assert deployment.deliver([submission]) == [True]
    assert deployment.publish() == 9
    assert deployment.servers[0].n_replayed == 0


def test_batched_replay_within_batch_rejected(rng):
    """A submission id replayed inside one batch burns exactly one
    accept; the replica is rejected at framing time."""
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=4, rng=rng)
    subs = deployment.client.prepare_submissions([5, 9])
    results = deployment.deliver([subs[0], subs[1], subs[0]])
    assert results == [True, True, False]
    assert deployment.publish() == 14
    assert deployment.stats.n_rejected == 1
    assert deployment.servers[0].n_replayed == 1


def test_batched_epoch_rotation(rng):
    """Batches spanning epoch boundaries still verify (the whole batch
    runs under the context in force when it starts)."""
    afe = IntegerSumAfe(FIELD87, 2)
    deployment = PrioDeployment.create(
        afe, 2, epoch_size=3, batch_size=4, rng=rng
    )
    values = [rng.randrange(4) for _ in range(10)]
    assert deployment.submit_many(values) == 10
    assert deployment.publish() == sum(values)
    assert deployment.servers[0]._epoch >= 1


def test_batch_size_validation(rng):
    with pytest.raises(ProtocolError):
        PrioDeployment.create(
            IntegerSumAfe(FIELD87, 4), 2, batch_size=0, rng=rng
        )


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def test_no_privacy_baseline(rng):
    afe = IntegerSumAfe(FIELD87, 8)
    pipeline = NoPrivacyPipeline(afe)
    values = [rng.randrange(256) for _ in range(10)]
    for v in values:
        assert pipeline.submit(v)
    assert pipeline.publish() == sum(values)


def test_no_privacy_rejects_invalid():
    afe = IntegerSumAfe(FIELD87, 4)
    pipeline = NoPrivacyPipeline(afe)
    bad = afe.encode(9)
    bad[0] = 99
    assert not pipeline.submit_encoding(bad)
    assert pipeline.n_rejected == 1


def test_no_robustness_baseline(rng):
    afe = IntegerSumAfe(FIELD87, 8)
    pipeline = NoRobustnessPipeline(afe, 3, rng=rng)
    values = [rng.randrange(256) for _ in range(10)]
    for v in values:
        pipeline.submit(v)
    assert pipeline.publish() == sum(values)


def test_no_robustness_is_actually_not_robust(rng):
    """Section 3's attack: one malicious client corrupts the sum."""
    afe = IntegerSumAfe(FIELD87, 4)
    pipeline = NoRobustnessPipeline(afe, 2, rng=rng)
    pipeline.submit(3)
    evil = afe.encode(1)
    evil[0] = 1_000_000  # claims to be a 4-bit value
    pipeline.submit_encoding(evil)
    assert pipeline.publish() == 1_000_003  # corruption went through


def test_no_robustness_uncompressed(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    pipeline = NoRobustnessPipeline(
        afe, 2, use_prg_compression=False, rng=rng
    )
    pipeline.submit(5)
    pipeline.submit(7)
    assert pipeline.publish() == 12


def test_no_robustness_needs_two_servers(rng):
    with pytest.raises(ProtocolError):
        NoRobustnessPipeline(IntegerSumAfe(FIELD87, 4), 1, rng=rng)
