"""Sharded fan-out: randomized differential equivalence vs unsharded.

The shard count must not be observable in any protocol outcome.  The
suite drives identical prepared streams (honest + corrupted rows,
randomized values) through the unsharded pipeline and through
``ShardedFanout`` at K ∈ {1, 2, 4}, on both field backends, and asserts
decisions, published aggregates, and statistics are identical.  Replay
protection must also survive sharding: ids partition stably across
shards (``shard_of``), shard-local caches catch replays across runs on
a reused fan-out, and the run-end fold keeps the logical servers'
state authoritative.
"""

import copy
import multiprocessing
import random
from dataclasses import replace

import pytest

from repro.afe import VectorSumAfe
from repro.field import FIELD87
from repro.protocol import (
    FanoutError,
    PrioDeployment,
    ShardedFanout,
    resolve_fanout,
    run_pipelined,
    shard_of,
)

SHARD_COUNTS = [1, 2, 4]


def _deployment(executor=None, force_pure=None, n_servers=3, batch_size=8,
                encrypt=False):
    afe = VectorSumAfe(FIELD87, length=5, n_bits=3)
    return PrioDeployment.create(
        afe, n_servers=n_servers, seed=b"sharded-diff-seed",
        rng=random.Random(0xD1FF), batch_size=batch_size,
        executor=executor, force_pure_backend=force_pure, encrypt=encrypt,
    )


def _stream(deployment, n=30, corrupt=(), seed=7):
    rng = random.Random(seed)
    values = [[rng.randrange(8) for _ in range(5)] for _ in range(n)]
    submissions = deployment.client.prepare_submissions(values)
    for index in corrupt:
        packet = submissions[index].packets[1]
        body = bytearray(packet.body)
        body[0] ^= 0xFF
        submissions[index].packets[1] = replace(packet, body=bytes(body))
    return values, submissions


def _outcome(deployment, submissions):
    decisions = deployment.deliver(submissions)
    aggregate = deployment.publish()
    stats = [
        (s.n_accepted, s.n_rejected, s.n_replayed, s._pending_ids == set())
        for s in deployment.servers
    ]
    return decisions, aggregate, stats


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_shard_of_is_stable_and_total():
    rng = random.Random(3)
    for n_shards in (1, 2, 3, 8):
        seen = set()
        for _ in range(200):
            sid = rng.randbytes(16)
            k = shard_of(sid, n_shards)
            assert 0 <= k < n_shards
            assert shard_of(sid, n_shards) == k  # stable
            seen.add(k)
        if n_shards <= 4:
            assert seen == set(range(n_shards))  # all shards get traffic


def test_executor_spec_parsing():
    deployment = _deployment()
    fanout, owned = resolve_fanout(deployment.servers, "inline:3")
    assert owned and isinstance(fanout, ShardedFanout)
    assert fanout.n_shards == 3
    fanout.close()
    # ":1" is not sharded — it falls through to the plain backend
    fanout, owned = resolve_fanout(deployment.servers, "inline:1")
    assert not isinstance(fanout, ShardedFanout)
    fanout.close()
    with pytest.raises(FanoutError):
        resolve_fanout(deployment.servers, "inline:x")
    with pytest.raises(FanoutError):
        resolve_fanout(deployment.servers, "inline:0")


# ----------------------------------------------------------------------
# Differential equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("force_pure", [None, True],
                         ids=["auto-backend", "pure-backend"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_matches_unsharded(n_shards, force_pure):
    """Same randomized stream with corrupted rows hidden mid-batch:
    decisions, aggregate, and per-server statistics must be identical
    at every shard count — the corrupted rows reject *individually*
    whichever shard they land on."""
    corrupt = (2, 11, 19, 28)
    base = _deployment(executor="inline", force_pure=force_pure)
    _, submissions = _stream(base, corrupt=corrupt)
    expected = _outcome(base, copy.deepcopy(submissions))
    base.close()

    sharded = _deployment(
        executor=f"inline:{n_shards}", force_pure=force_pure
    )
    got = _outcome(sharded, submissions)
    sharded.close()
    assert got == expected
    decisions = got[0]
    assert sum(decisions) == 26
    assert all(decisions[i] is False for i in corrupt)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_matches_unsharded_encrypted(n_shards):
    """Sealed packets route by their cleartext envelope sid, so an
    encrypted stream genuinely partitions across every shard (no
    shard-0 fallback remains) while outcomes stay identical to the
    unsharded deployment."""
    base = _deployment(executor="inline", encrypt=True)
    _, submissions = _stream(base, n=24)
    expected = _outcome(base, copy.deepcopy(submissions))
    base.close()

    sharded = _deployment(executor=f"inline:{n_shards}", encrypt=True)
    got = _outcome(sharded, submissions)
    fanout = sharded._fanout
    assert isinstance(fanout, ShardedFanout)
    # genuine spread: every shard of every server opened (and replay-
    # recorded) at least one sealed submission
    for shard_row in fanout.shards:
        counts = [len(shard._replay) for shard in shard_row]
        assert all(count > 0 for count in counts), counts
        assert sum(counts) == len(submissions)
    sharded.close()
    assert got == expected


def test_process_backed_shards_smoke():
    """Sharded over real worker processes: same outcome, no leaked
    children."""
    base = _deployment(executor="inline", batch_size=4)
    _, submissions = _stream(base, n=12, corrupt=(5,))
    expected = _outcome(base, copy.deepcopy(submissions))
    base.close()

    sharded = _deployment(executor="process:2", batch_size=4)
    got = _outcome(sharded, submissions)
    sharded.close()
    assert got == expected
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Replay protection across runs and fold-back state
# ----------------------------------------------------------------------


def test_replay_across_runs_on_reused_fanout():
    deployment = _deployment()
    fanout, owned = resolve_fanout(deployment.servers, "inline:3")
    assert owned
    try:
        _, submissions = _stream(deployment, n=15)
        first, _ = run_pipelined(
            deployment.servers, submissions, batch_size=8, executor=fanout
        )
        replayed, _ = run_pipelined(
            deployment.servers, submissions, batch_size=8, executor=fanout
        )
        _, fresh = _stream(deployment, n=6, seed=11)
        third, _ = run_pipelined(
            deployment.servers, fresh, batch_size=8, executor=fanout
        )
    finally:
        fanout.close()
    assert first == [True] * 15
    assert replayed == [False] * 15
    assert third == [True] * 6
    for server in deployment.servers:
        assert server.n_accepted == 21
        assert server.n_replayed == 15
        assert len(server._replay) == 21


def test_fold_back_keeps_logical_server_authoritative():
    """After a sharded run the *logical* servers hold the union of all
    shard state: a later unsharded run on the same servers still
    catches replays of sharded-run submissions, and publishes see every
    accepted contribution."""
    deployment = _deployment()
    _, submissions = _stream(deployment, n=10)
    fanout, _ = resolve_fanout(deployment.servers, "inline:2")
    try:
        first, _ = run_pipelined(
            deployment.servers, submissions, batch_size=8, executor=fanout
        )
    finally:
        fanout.close()
    assert first == [True] * 10
    # Unsharded retry against the logical servers: all replays.
    retry, _ = run_pipelined(
        deployment.servers, submissions, batch_size=8, executor="inline"
    )
    assert retry == [False] * 10
    assert all(s.n_replayed == 10 for s in deployment.servers)


def test_preexisting_seen_ids_partition_to_shards():
    """Replays of submissions seen *before* the sharded fan-out existed
    are caught by the shard that now owns their slice of the id
    space."""
    deployment = _deployment()
    _, submissions = _stream(deployment, n=8)
    first, _ = run_pipelined(
        deployment.servers, submissions, batch_size=8, executor="inline"
    )
    assert first == [True] * 8
    fanout, _ = resolve_fanout(deployment.servers, "inline:4")
    try:
        replayed, _ = run_pipelined(
            deployment.servers, submissions, batch_size=8, executor=fanout
        )
    finally:
        fanout.close()
    assert replayed == [False] * 8
    assert all(s.n_replayed == 8 for s in deployment.servers)


def test_end_run_fold_is_idempotent():
    """A second end_run (the pipeline's finally sweep on a reused
    backend) must not double-fold shard accumulators into the logical
    servers."""
    deployment = _deployment()
    _, submissions = _stream(deployment, n=6)
    fanout, _ = resolve_fanout(deployment.servers, "inline:2")
    try:
        run_pipelined(
            deployment.servers, submissions, batch_size=8, executor=fanout
        )
        accepted = deployment.servers[0].n_accepted
        fanout.end_run()
        fanout.end_run()
        assert deployment.servers[0].n_accepted == accepted
    finally:
        fanout.close()


def test_tiered_cache_behind_sharded_fanout():
    """The full stack: tiered caches on the logical servers, shards
    spawn tiered slices, replays across runs are caught, and close
    releases every shard database."""
    deployment = _deployment()
    from repro.protocol import TieredReplayCache

    for server in deployment.servers:
        server._replay.close()
        server._replay = TieredReplayCache(l1_capacity=4)
    _, submissions = _stream(deployment, n=10)
    fanout, _ = resolve_fanout(deployment.servers, "inline:2")
    shard_paths = [
        shard._replay.path
        for row in fanout.shards for shard in row
    ]
    try:
        first, _ = run_pipelined(
            deployment.servers, submissions, batch_size=4, executor=fanout
        )
        replayed, _ = run_pipelined(
            deployment.servers, submissions, batch_size=4, executor=fanout
        )
    finally:
        fanout.close()
    assert first == [True] * 10
    assert replayed == [False] * 10
    import os

    assert all(not os.path.exists(p) for p in shard_paths)
    for server in deployment.servers:
        assert len(server._replay) == 10
        server._replay.close()
