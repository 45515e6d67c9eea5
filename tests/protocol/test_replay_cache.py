"""Replay protection: one set of decided ids per server, run deltas.

A server's replay state is a plain ``set`` of decided submission ids.
The fan-out backends rely on its run delta: after ``begin_run``,
``snapshot_state()["seen_delta"]`` holds only the ids decided since,
and ``fold_shard_state`` merges it home.  Server-level tests pin the
semantics that matter to the protocol on every kind of backend — a
replay inside one batch rejects, a replay across runs rejects, and an
abandoned-then-retried honest submission does not.
"""

import pickle
import random

import pytest

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import ClientSubmission, PrioDeployment

EXECUTORS = ["inline", "process"]


def _deployment(executor):
    afe = IntegerSumAfe(FIELD87, 8)
    return PrioDeployment.create(
        afe, n_servers=2, seed=b"replay-cache-test",
        rng=random.Random(1), batch_size=4, executor=executor,
    )


def test_run_delta_update():
    """The delta is only this run's ids: not the ids the server arrived
    with, not a refused replay of one of them, and nothing after a new
    ``begin_run``; folding it home completes the logical server."""
    deployment = _deployment("inline")
    before = deployment.client.prepare_submissions([1, 2, 3])
    after = deployment.client.prepare_submissions([4, 5])
    assert deployment.deliver(before) == [True] * 3
    # what a process worker holds: a pickled copy that began a run
    copies = [pickle.loads(pickle.dumps(s)) for s in deployment.servers]
    for server_copy in copies:
        server_copy.begin_run()
    with PrioDeployment(
        deployment.afe, copies, deployment.client, encrypt=False,
        batch_size=4, executor="inline",
    ) as on_copies:
        assert on_copies.deliver(after + before[:1]) == [True, True, False]
    for server, server_copy in zip(deployment.servers, copies):
        state = server_copy.snapshot_state()
        assert state["seen_delta"] == {s.submission_id for s in after}
        assert state["n_replayed"] == 1
        server_copy.begin_run()
        assert server_copy.snapshot_state()["seen_delta"] == set()
        server.fold_shard_state(state)
        assert server._replay == {
            s.submission_id for s in before + after
        }
    assert deployment.publish() == 1 + 2 + 3 + 4 + 5


@pytest.mark.parametrize("executor", EXECUTORS)
def test_replay_inside_a_batch_rejects(executor):
    with _deployment(executor) as deployment:
        submission = deployment.client.prepare_submissions([7])[0]
        first, second = deployment.deliver([submission, submission])
        assert first is True and second is False
        # Every server refuses the copy at receive: the first one's id
        # is still pending there.
        assert all(s.n_replayed == 1 for s in deployment.servers)
        assert all(not s._pending_ids for s in deployment.servers)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_replay_across_runs_rejects(executor):
    with _deployment(executor) as deployment:
        submissions = deployment.client.prepare_submissions([1, 2, 3])
        assert deployment.deliver(submissions) == [True] * 3
        assert deployment.deliver(submissions) == [False] * 3
        assert all(s.n_replayed == 3 for s in deployment.servers)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_abandon_then_retry_is_not_a_replay(executor):
    """A submission one server received but a peer rejected at framing
    is abandoned — no decision was made, so an honest retry of the very
    same upload must be accepted, not treated as a replay."""
    with _deployment(executor) as deployment:
        submission = deployment.client.prepare_submissions([5])[0]
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
