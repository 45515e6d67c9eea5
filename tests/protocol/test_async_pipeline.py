"""The asyncio pipeline: decisions must not depend on how a stream is
chunked, staged, or produced."""

import random
from dataclasses import replace

import pytest

from repro.afe import BoolOrAfe, FrequencyCountAfe, IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import AsyncPrioPipeline, PrioDeployment, run_pipelined


@pytest.fixture
def rng():
    return random.Random(0xA51C)


def _twin_deployments(afe, n_servers=3, batch_size=4, **kwargs):
    """Two identical deployments (same server seed, same client rng)."""
    return (
        PrioDeployment.create(
            afe, n_servers, seed=b"pipe", batch_size=batch_size,
            rng=random.Random(99), **kwargs,
        ),
        PrioDeployment.create(
            afe, n_servers, seed=b"pipe", batch_size=batch_size,
            rng=random.Random(99), **kwargs,
        ),
    )


def test_one_run_matches_batch_of_one_submits(rng):
    """One pipelined ``submit_many`` run decides and aggregates exactly
    like one ``submit`` (a batch of one) per value."""
    afe = IntegerSumAfe(FIELD87, 8)
    one_dep, pipe_dep = _twin_deployments(afe)
    values = [rng.randrange(256) for _ in range(19)]
    accepted_one = sum(one_dep.submit(v) for v in values)
    accepted_pipe = pipe_dep.submit_many(values)
    assert accepted_one == accepted_pipe == 19
    assert one_dep.publish() == pipe_dep.publish() == sum(values)
    assert one_dep.publish_shares() == pipe_dep.publish_shares()
    assert (
        pipe_dep.stats.n_submitted,
        pipe_dep.stats.n_accepted,
        pipe_dep.stats.n_rejected,
    ) == (19, 19, 0)


def test_client_producer_stage_matches_prepared_stream(rng):
    """run_values (batched client as stage 0) must match preparing every
    upload up front — same decisions, aggregate, and byte accounting."""
    afe = IntegerSumAfe(FIELD87, 8)
    pre_dep, prod_dep = _twin_deployments(afe)
    values = [rng.randrange(256) for _ in range(11)]
    submissions = [pre_dep.client.prepare_submission(v) for v in values]
    pre_results = pre_dep.deliver(submissions)

    pipeline = AsyncPrioPipeline(prod_dep.servers, batch_size=4)
    prod_results = pipeline.run_values(prod_dep.client, values)
    assert prod_results == pre_results == [True] * 11
    assert pre_dep.publish() == prod_dep.publish() == sum(values)
    # 11 values at batch 4 -> 3 client batches; producer byte counting
    # matches the up-front client's.
    assert pipeline.stats.client_batches == 3
    assert pipeline.stats.upload_bytes == sum(
        s.upload_bytes for s in submissions
    )


def test_submit_many_is_one_pipeline_run(rng, monkeypatch):
    """Even at ``batch_size=1`` the values share ONE pipeline run (one
    event loop, one fan-out sync), never one run per value."""
    runs = []
    run_values = AsyncPrioPipeline.run_values

    def counting(self, client, values):
        runs.append(len(values))
        return run_values(self, client, values)

    monkeypatch.setattr(AsyncPrioPipeline, "run_values", counting)
    deployment = PrioDeployment.create(IntegerSumAfe(FIELD87, 4), 2, rng=rng)
    assert deployment.submit_many(range(7)) == 7
    assert runs == [7]
    assert deployment.publish() == 21


def test_submit_many_matches_scalar_client_uploads(rng):
    """The pipeline's batched producer and the scalar client oracle
    agree end to end (decisions, aggregate, upload bytes)."""
    afe = IntegerSumAfe(FIELD87, 8)
    batched_dep, scalar_dep = _twin_deployments(afe)
    values = [rng.randrange(256) for _ in range(9)]
    assert batched_dep.submit_many(values) == 9
    assert scalar_dep.deliver(
        [scalar_dep.client.prepare_submission(v) for v in values]
    ) == [True] * 9
    assert batched_dep.publish() == scalar_dep.publish() == sum(values)
    assert (
        batched_dep.stats.upload_bytes_total
        == scalar_dep.stats.upload_bytes_total
    )


def test_pipeline_bad_submission_rejects_alone(rng):
    """A corrupted share hidden mid-stream rejects alone."""
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(
        afe, 2, batch_size=4, rng=rng, seed=b"pipe"
    )
    values = [rng.randrange(256) for _ in range(10)]
    submissions = deployment.client.prepare_submissions(values)
    bad = 6
    packet = submissions[bad].packets[1]
    body = bytearray(packet.body)
    body[0] ^= 1
    submissions[bad].packets[1] = replace(packet, body=bytes(body))

    results = deployment.deliver(submissions)
    assert results == [True] * bad + [False] + [True] * 3
    honest = sum(v for i, v in enumerate(values) if i != bad)
    assert deployment.publish() == honest
    assert deployment.stats.n_rejected == 1


def test_pipeline_framing_failure_releases_other_servers(rng):
    """A frame bad for one server only must not poison the id at the
    servers that did receive it (honest retry succeeds)."""
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=3, rng=rng)
    submission = deployment.client.prepare_submission(9)
    good_packet = submission.packets[1]
    submission.packets[1] = replace(
        good_packet, n_elements=good_packet.n_elements - 1,
        body=good_packet.body[: -FIELD87.encoded_size],
    )
    assert deployment.deliver([submission]) == [False]
    submission.packets[1] = good_packet
    assert deployment.deliver([submission]) == [True]
    assert deployment.publish() == 9
    assert deployment.servers[0].n_replayed == 0


def test_unencodable_packet_is_that_submissions_receive_failure(rng):
    """A mutated packet its header cannot represent (``encode()``
    raises ``WireError``) fails its own submission at receive — the
    stream is not aborted, batchmates verify, peers release the id."""
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=3, rng=rng)
    subs = deployment.client.prepare_submissions([1, 2, 3])
    good_packet = subs[1].packets[0]
    subs[1].packets[0] = replace(good_packet, n_elements=-1)
    assert deployment.deliver(subs) == [True, False, True]
    assert all(not s._pending_ids for s in deployment.servers)
    subs[1].packets[0] = good_packet
    assert deployment.deliver([subs[1]]) == [True]
    assert deployment.publish() == 6
    assert deployment.servers[0].n_replayed == 0


def test_pipeline_replay_within_stream_rejected(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=4, rng=rng)
    subs = deployment.client.prepare_submissions([5, 9])
    results = deployment.deliver([subs[0], subs[1], subs[0]])
    assert results == [True, True, False]
    assert deployment.publish() == 14
    assert deployment.servers[0].n_replayed == 1


def test_pipeline_proof_free_afe(rng):
    deployment = PrioDeployment.create(
        BoolOrAfe(lambda_bits=32), 3, batch_size=2, rng=rng
    )
    assert deployment.submit_many(
        [False, False, True, False, False]
    ) == 5
    assert deployment.publish() is True


def test_pipeline_encrypted_transport(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(
        afe, 2, encrypt=True, batch_size=2, rng=rng
    )
    assert deployment.submit_many([3, 7, 11]) == 3
    assert deployment.publish() == 21


def test_pipeline_histogram_many_batches(rng):
    from collections import Counter

    afe = FrequencyCountAfe(FIELD87, 5)
    deployment = PrioDeployment.create(
        afe, 2, batch_size=8, rng=rng, seed=b"hist"
    )
    values = [rng.randrange(5) for _ in range(41)]  # final partial batch
    assert deployment.submit_many(values) == 41
    counts = Counter(values)
    assert deployment.publish() == [counts.get(i, 0) for i in range(5)]


def test_pipeline_stats_and_validation(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=3, rng=rng)
    with pytest.raises(ValueError):
        AsyncPrioPipeline(deployment.servers, batch_size=0)
    with pytest.raises(ValueError):
        AsyncPrioPipeline(deployment.servers, queue_depth=0)
    submissions = deployment.client.prepare_submissions([1, 2, 3, 4, 5])
    decisions, stats = run_pipelined(
        deployment.servers, submissions, batch_size=2
    )
    assert decisions == [True] * 5
    assert stats.n_batches == 3
    assert stats.batch_sizes == [2, 2, 1]


def test_pipeline_run_is_repeatable_without_thread_leaks(rng):
    """PR-3 shut its self-created executor down with wait=False, which
    left a worker-thread set behind per run() call.  Repeated runs must
    keep the thread count flat."""
    import threading

    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=2, rng=rng)
    before = len(threading.enumerate())
    total = 0
    for round_index in range(5):
        values = [rng.randrange(16) for _ in range(5)]
        submissions = deployment.client.prepare_submissions(values)
        pipeline = AsyncPrioPipeline(deployment.servers, batch_size=2)
        assert pipeline.run(submissions) == [True] * 5
        total += sum(values)
    assert len(threading.enumerate()) <= before
    assert deployment.publish() == total


def test_pipeline_fatal_error_cancels_cleanly_and_recovers(rng):
    """A BaseException escaping a stage (only Exceptions are isolated
    per batch) must cancel and await the peer tasks, release the
    workers, and leave the servers usable for a fresh run."""
    import threading

    from repro.protocol import LocalFanout

    class KaboomFanout(LocalFanout):
        def call(self, s, op, *args):
            if op == "round1":
                raise KeyboardInterrupt("injected fatal error")
            return super().call(s, op, *args)

    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=2, rng=rng)
    submissions = deployment.client.prepare_submissions([1, 2, 3, 4])
    before = len(threading.enumerate())
    fanout = KaboomFanout(deployment.servers)
    pipeline = AsyncPrioPipeline(
        deployment.servers, batch_size=2, executor=fanout
    )
    with pytest.raises(KeyboardInterrupt):
        pipeline.run(submissions)
    fanout.close()
    assert len(threading.enumerate()) <= before
    # The abnormal exit abandoned the in-flight batches: nothing stays
    # pending, and retrying the *same* submissions is not a replay.
    assert deployment.servers[0]._pending_ids == set()
    decisions, _ = run_pipelined(
        deployment.servers, submissions, batch_size=2
    )
    assert decisions == [True] * 4
    assert deployment.servers[0].n_replayed == 0
    assert deployment.publish() == 10


def test_pipeline_records_executor_kind(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=2, rng=rng)
    submissions = deployment.client.prepare_submissions([1, 2])
    decisions, stats = run_pipelined(
        deployment.servers, submissions, batch_size=2, executor="inline"
    )
    assert decisions == [True, True]
    assert stats.executor == "inline"


def test_pipeline_epoch_rotation(rng):
    afe = IntegerSumAfe(FIELD87, 2)
    deployment = PrioDeployment.create(
        afe, 2, epoch_size=3, batch_size=4, rng=rng
    )
    values = [rng.randrange(4) for _ in range(10)]
    assert deployment.submit_many(values) == 10
    assert deployment.publish() == sum(values)
    assert deployment.servers[0]._epoch >= 1
