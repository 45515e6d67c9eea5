"""The in-memory batch loop: decisions must not depend on how a stream
is chunked or produced."""

import random
import threading
import time
from dataclasses import replace

import pytest

from repro.afe import AfeError, BoolOrAfe, FrequencyCountAfe, IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import LocalFanout, PrioDeployment, ProtocolError

from oracle import scalar_prepare_submission


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


class _InFlight:
    """Wraps ``client.prepare_submissions`` to count overlapping calls.

    Each call holds its slot a little longer than it needs, so code
    that started a second prepare before the first returned would show
    a peak of two.
    """

    def __init__(self, client):
        self._lock = threading.Lock()
        self.now = self.peak = self.calls = 0
        prepare = client.prepare_submissions

        def counted(values):
            with self._lock:
                self.now += 1
                self.calls += 1
                self.peak = max(self.peak, self.now)
            try:
                time.sleep(0.005)
                return prepare(values)
            finally:
                with self._lock:
                    self.now -= 1

        client.prepare_submissions = counted


def test_client_producer_stage_matches_prepared_stream(rng):
    """``submit_many`` (the next chunk prepared while this one verifies)
    must match preparing every upload up front and calling ``deliver``
    — same decisions, aggregate, and byte accounting — with never more
    than one prepare in flight."""
    afe = IntegerSumAfe(FIELD87, 8)
    pre_dep, prod_dep = _twin_deployments(afe)
    values = [rng.randrange(256) for _ in range(11)]
    pre_results = pre_dep.deliver(pre_dep.client.prepare_submissions(values))

    in_flight = _InFlight(prod_dep.client)
    assert prod_dep.submit_many(values) == 11
    assert pre_results == [True] * 11
    # 11 values at batch 4 -> 3 client batches, one at a time
    assert (in_flight.calls, in_flight.peak) == (3, 1)
    assert pre_dep.publish() == prod_dep.publish() == sum(values)
    assert pre_dep.publish_shares() == prod_dep.publish_shares()
    assert prod_dep.stats == pre_dep.stats


def test_submit_many_failed_chunk_keeps_decided_batches(rng):
    """A value the AFE cannot encode fails its chunk's prepare: the error
    propagates, the batch before it stays decided and counted, no id
    stays pending, and no prepare thread outlives the call."""
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 2, batch_size=2, rng=rng
    )
    in_flight = _InFlight(deployment.client)
    before = len(threading.enumerate())
    with pytest.raises(AfeError):
        deployment.submit_many([1, 2, 3, 99, 4])
    assert len(threading.enumerate()) == before
    assert in_flight.peak == 1
    assert all(not s._pending_ids for s in deployment.servers)
    assert [s.n_accepted for s in deployment.servers] == [2, 2]
    stats = deployment.stats
    assert (stats.n_submitted, stats.n_accepted, stats.n_rejected) == (
        2, 2, 0,
    )
    assert stats.upload_bytes_total > 0
    assert deployment.publish() == 3


def test_submit_many_is_one_pipeline_run(rng, monkeypatch):
    """Even at ``batch_size=1`` the values share ONE run (one event
    loop, one fan-out sync), never one run per value."""
    syncs = []
    monkeypatch.setattr(
        LocalFanout, "begin_run", lambda fanout: syncs.append(fanout)
    )
    deployment = PrioDeployment.create(IntegerSumAfe(FIELD87, 4), 2, rng=rng)
    assert deployment.submit_many(range(7)) == 7
    assert len(syncs) == 1
    assert deployment.publish() == 21


def test_submit_many_matches_scalar_client_uploads(rng):
    """The pipeline's batched producer and the scalar client oracle
    agree end to end (decisions, aggregate, upload bytes)."""
    afe = IntegerSumAfe(FIELD87, 8)
    batched_dep, scalar_dep = _twin_deployments(afe)
    values = [rng.randrange(256) for _ in range(9)]
    assert batched_dep.submit_many(values) == 9
    assert scalar_dep.deliver(
        [scalar_prepare_submission(scalar_dep.client, v) for v in values]
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
    submission = deployment.client.prepare_submissions([9])[0]
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
    with pytest.raises(ProtocolError):
        PrioDeployment.create(afe, 2, batch_size=0, rng=rng)
    with PrioDeployment.create(afe, 2, batch_size=2, rng=rng) as deployment:
        submissions = deployment.client.prepare_submissions([1, 2, 3, 4, 5])
        packets = submissions[3].packets
        packets[0] = replace(packets[0], body=b"")  # refused at receive
        assert deployment.deliver(submissions) == [True] * 3 + [False, True]
        stats = deployment.stats
        assert (stats.n_submitted, stats.n_accepted, stats.n_rejected) == (
            5, 4, 1
        )
        # refused at receive, not by the SNIP: no server rejected it
        assert [s.n_rejected for s in deployment.servers] == [0, 0]
        assert deployment.publish() == 1 + 2 + 3 + 5


@pytest.mark.parametrize("batch_size", [0, -1])
def test_deployment_validates_batch_size(batch_size, rng):
    """Every way in goes through the constructor, which refuses a batch
    size below one — it used to drop a whole stream uncounted (-1) or
    fail inside the loop (0)."""
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, rng=rng)
    with pytest.raises(ProtocolError, match="batch_size"):
        PrioDeployment(
            afe, deployment.servers, deployment.client, encrypt=False,
            batch_size=batch_size,
        )


@pytest.mark.parametrize("batch_size", [1, 4])
def test_submit_many_of_nothing_counts_nothing(batch_size, rng):
    afe = IntegerSumAfe(FIELD87, 4)
    with PrioDeployment.create(
        afe, 2, batch_size=batch_size, rng=rng
    ) as deployment:
        assert deployment.submit_many([]) == 0
        assert deployment.deliver([]) == []
        assert deployment.stats.n_submitted == 0
        assert deployment.submit_many([3]) == 1
        assert deployment.publish() == 3


def test_pipeline_run_is_repeatable_without_thread_leaks(rng):
    """Every run releases what it created: repeated runs keep the
    thread count flat."""
    import threading

    afe = IntegerSumAfe(FIELD87, 4)
    before = len(threading.enumerate())
    total = 0
    with PrioDeployment.create(afe, 2, batch_size=2, rng=rng) as deployment:
        for round_index in range(5):
            values = [rng.randrange(16) for _ in range(5)]
            submissions = deployment.client.prepare_submissions(values)
            assert deployment.deliver(submissions) == [True] * 5
            total += sum(values)
        assert len(threading.enumerate()) <= before
        assert deployment.publish() == total


def test_pipeline_fatal_error_cancels_cleanly_and_recovers(rng):
    """A BaseException escaping the loop (only Exceptions are isolated
    per batch) must release the workers and leave the servers usable
    for a fresh run."""
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
    with PrioDeployment(
        afe, deployment.servers, deployment.client, encrypt=False,
        batch_size=2, executor=fanout,
    ) as kaboom, pytest.raises(KeyboardInterrupt):
        kaboom.deliver(submissions)
    fanout.close()
    assert len(threading.enumerate()) <= before
    # The abnormal exit abandoned the in-flight batches: nothing stays
    # pending, and retrying the *same* submissions is not a replay.
    assert deployment.servers[0]._pending_ids == set()
    with deployment:
        assert deployment.deliver(submissions) == [True] * 4
    assert deployment.servers[0].n_replayed == 0
    assert deployment.publish() == 10


def test_pipeline_records_executor_kind(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    deployment = PrioDeployment.create(afe, 2, batch_size=2, rng=rng)
    submissions = deployment.client.prepare_submissions([1, 2])
    with deployment:
        assert deployment.deliver(submissions) == [True, True]
        assert deployment._fanout.kind == "inline"


def test_pipeline_epoch_rotation(rng):
    afe = IntegerSumAfe(FIELD87, 2)
    deployment = PrioDeployment.create(
        afe, 2, epoch_size=3, batch_size=4, rng=rng
    )
    values = [rng.randrange(4) for _ in range(10)]
    assert deployment.submit_many(values) == 10
    assert deployment.publish() == sum(values)
    assert deployment.servers[0]._epoch >= 1
