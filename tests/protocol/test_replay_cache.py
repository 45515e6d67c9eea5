"""Replay-cache contract and server-level replay semantics.

Every :class:`~repro.protocol.replay.ReplayCache` implementation must
be interchangeable behind ``PrioServer``: membership, delta tracking
(``mark``/``delta``/``update`` — the incremental-snapshot seam), and
lifecycle (``spawn``/``close``/pickling for worker shipment).  The
tiered implementation additionally spills its oldest L1 entries to the
SQLite L2 — eviction must never lose an id (an evicted replay is still
a replay).  Server-level tests pin the semantics that matter to the
protocol: a replay inside one batch rejects, a replay across runs
rejects, and an abandoned-then-retried honest submission does not.
"""

import os
import pickle
import random

import pytest

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import ClientSubmission, PrioDeployment
from repro.protocol.replay import (
    InMemoryReplayCache,
    ReplayCacheError,
    TieredReplayCache,
    resolve_replay_cache,
)

CACHES = [
    ("memory", lambda: InMemoryReplayCache()),
    ("tiered", lambda: TieredReplayCache(l1_capacity=1024)),
]


def _ids(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(16) for _ in range(n)]


# ----------------------------------------------------------------------
# Contract: every implementation behaves like a durable set
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,make", CACHES, ids=[n for n, _ in CACHES])
def test_membership_len_iter_clear(name, make):
    cache = make()
    try:
        ids = _ids(50, seed=1)
        for sid in ids:
            assert sid not in cache
            cache.add(sid)
            assert sid in cache
        cache.add(ids[0])  # idempotent
        assert len(cache) == 50
        assert sorted(cache) == sorted(ids)
        cache.clear()
        assert len(cache) == 0
        assert ids[0] not in cache
    finally:
        cache.close()


@pytest.mark.parametrize("name,make", CACHES, ids=[n for n, _ in CACHES])
def test_mark_delta_update(name, make):
    cache = make()
    try:
        before = _ids(10, seed=2)
        cache.update(before)
        cache.mark()
        after = _ids(7, seed=3)
        cache.update(after)
        # Re-adding a pre-mark id may or may not surface in the delta —
        # merges are set unions, so either way is correct.
        cache.add(before[0])
        delta = cache.delta()
        assert set(after) <= delta <= set(after) | {before[0]}
        # delta() is a snapshot boundary too: only later adds show next
        cache.mark()
        assert cache.delta() == set()

        other = make()
        try:
            other.update(cache.delta() | set(before) | set(after))
            assert len(other) == 17
        finally:
            other.close()
    finally:
        cache.close()


@pytest.mark.parametrize("name,make", CACHES, ids=[n for n, _ in CACHES])
def test_spawn_is_empty_same_kind(name, make):
    cache = make()
    try:
        cache.update(_ids(5, seed=4))
        child = cache.spawn()
        try:
            assert type(child) is type(cache)
            assert len(child) == 0
        finally:
            child.close()
    finally:
        cache.close()


def test_resolve_replay_cache():
    default = resolve_replay_cache(None)
    assert isinstance(default, InMemoryReplayCache)
    assert isinstance(resolve_replay_cache("memory"), InMemoryReplayCache)
    tiered = resolve_replay_cache("tiered")
    try:
        assert isinstance(tiered, TieredReplayCache)
    finally:
        tiered.close()
    instance = InMemoryReplayCache()
    assert resolve_replay_cache(instance) is instance
    with pytest.raises(ReplayCacheError):
        resolve_replay_cache("lru")


# ----------------------------------------------------------------------
# Tiered specifics: eviction, persistence, pickling
# ----------------------------------------------------------------------


def test_l1_eviction_hits_l2():
    cache = TieredReplayCache(l1_capacity=16)
    try:
        ids = _ids(100, seed=5)
        for sid in ids:
            cache.add(sid)
        assert len(cache._l1) <= 16
        assert cache.n_evicted >= 84
        # The oldest ids were spilled: membership must still hold, and
        # the hit must come from L2 (the L1 no longer has them).
        l2_hits_before = cache.l2_hits
        assert ids[0] in cache
        assert cache.l2_hits == l2_hits_before + 1
        assert len(cache) == 100
        assert sorted(cache) == sorted(ids)
    finally:
        cache.close()


def test_eviction_never_loses_delta():
    """mark/delta must survive the L1 -> L2 spill: a worker that added
    millions of ids still reports every one of them at snapshot time."""
    cache = TieredReplayCache(l1_capacity=8)
    try:
        cache.update(_ids(20, seed=6))
        cache.mark()
        added = _ids(40, seed=7)
        cache.update(added)
        assert sorted(cache.delta()) == sorted(added)
    finally:
        cache.close()


def test_pickle_round_trip_preserves_membership():
    cache = TieredReplayCache(l1_capacity=8)
    try:
        ids = _ids(30, seed=8)
        cache.update(ids)  # forces spills: membership spans L1 and L2
        clone = pickle.loads(pickle.dumps(cache))
        try:
            assert all(sid in clone for sid in ids)
            clone.add(b"x" * 16)
            assert b"x" * 16 in clone
            # The clone borrows the L2 file; closing it must not unlink
            # the original's database.
        finally:
            clone.close()
        assert ids[0] in cache
    finally:
        cache.close()


def test_close_removes_owned_database():
    cache = TieredReplayCache(l1_capacity=4)
    cache.update(_ids(20, seed=9))
    path = cache.path
    assert path is not None and os.path.exists(path)
    cache.close()
    assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Server-level semantics (the reason the cache exists)
# ----------------------------------------------------------------------


def _deployment(replay_cache):
    afe = IntegerSumAfe(FIELD87, 8)
    deployment = PrioDeployment.create(
        afe, n_servers=2, seed=b"replay-cache-test",
        rng=random.Random(1), batch_size=4,
    )
    for server in deployment.servers:
        server._replay.close()
        server._replay = resolve_replay_cache(replay_cache)
    return deployment


@pytest.mark.parametrize("kind", ["memory", "tiered"])
def test_replay_inside_a_batch_rejects(kind):
    deployment = _deployment(kind)
    try:
        submission = deployment.client.prepare_submission(7)
        first, second = deployment.deliver([submission, submission])
        assert first is True and second is False
        # Every server refuses the copy at receive: the first one's id
        # is still pending there.
        assert all(s.n_replayed == 1 for s in deployment.servers)
        assert all(not s._pending_ids for s in deployment.servers)
    finally:
        for server in deployment.servers:
            server._replay.close()


@pytest.mark.parametrize("kind", ["memory", "tiered"])
def test_replay_across_runs_rejects(kind):
    deployment = _deployment(kind)
    try:
        submissions = deployment.client.prepare_submissions([1, 2, 3])
        assert deployment.deliver(submissions) == [True] * 3
        assert deployment.deliver(submissions) == [False] * 3
        assert all(s.n_replayed == 3 for s in deployment.servers)
    finally:
        for server in deployment.servers:
            server._replay.close()


@pytest.mark.parametrize("kind", ["memory", "tiered"])
def test_abandon_then_retry_is_not_a_replay(kind):
    """A submission one server received but a peer rejected at framing
    is abandoned — no decision was made, so an honest retry of the very
    same upload must be accepted, not treated as a replay."""
    deployment = _deployment(kind)
    try:
        submission = deployment.client.prepare_submission(5)
        # Server 0 receives its real packet; server 1 gets server 0's
        # (wrong server index -> framing reject).  Server 0 must
        # *abandon* — no decision was made.
        sabotaged = ClientSubmission(
            submission_id=submission.submission_id,
            packets=[submission.packets[0], submission.packets[0]],
        )
        assert deployment.deliver([sabotaged]) == [False]
        assert deployment.deliver([submission]) == [True]
        assert all(s.n_replayed == 0 for s in deployment.servers)
    finally:
        for server in deployment.servers:
            server._replay.close()
