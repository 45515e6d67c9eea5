"""Multi-process server fan-out: equivalence, failure paths, lifecycle.

The executor knob must not be observable in any protocol outcome:
decisions, aggregates, statistics, and replay protection are asserted
bit-identical across the ``inline``/``thread``/``process`` backends.
Failure paths get the adversarial treatment — a worker that dies
mid-batch (thread or process) must fail that batch alone (abandoned:
nothing decided, ids released, an honest retry accepted), keep the
stream flowing, and leave no leaked executors or child processes.
"""

import multiprocessing
import random
import threading
from dataclasses import replace

import pytest

from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import (
    AsyncPrioPipeline,
    FanoutError,
    PrioClient,
    PrioDeployment,
    PrioServer,
    ProcessFanout,
    resolve_fanout,
    run_pipelined,
)
from repro.snip.verifier import ServerRandomness

BACKENDS = ["inline", "thread", "process"]


@pytest.fixture
def rng():
    return random.Random(0xFA4007)


def _no_leaks():
    """Leak probe: returns (thread_count, child_processes)."""
    return len(threading.enumerate()), multiprocessing.active_children()


def _twin_deployment(batch_size=4, n_servers=3, **kwargs):
    return PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), n_servers, seed=b"fanout",
        batch_size=batch_size, rng=random.Random(1207), **kwargs,
    )


def _prepared_stream(deployment, rng, n=13, corrupt=None):
    values = [rng.randrange(256) for _ in range(n)]
    submissions = deployment.client.prepare_submissions(values)
    if corrupt is not None:
        packet = submissions[corrupt].packets[1]
        body = bytearray(packet.body)
        body[0] ^= 1
        submissions[corrupt].packets[1] = replace(packet, body=bytes(body))
    return values, submissions


# ----------------------------------------------------------------------
# Equivalence across backends
# ----------------------------------------------------------------------


def test_backends_bit_identical_decisions_and_aggregate(rng):
    """Same stream (one corrupted upload hidden mid-batch) through all
    three backends: decisions, aggregate, and stats must be identical."""
    outcomes = []
    for backend in BACKENDS:
        deployment = _twin_deployment(executor=backend)
        values, submissions = _prepared_stream(
            deployment, random.Random(17), n=13, corrupt=6
        )
        decisions = deployment.deliver(submissions)
        honest = sum(v for i, v in enumerate(values) if i != 6)
        outcomes.append(
            (
                decisions,
                deployment.publish(),
                deployment.stats.n_accepted,
                deployment.stats.n_rejected,
                [s.n_replayed for s in deployment.servers],
            )
        )
        assert deployment.publish() == honest
        deployment.close()
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == [True] * 6 + [False] + [True] * 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_stats_and_batching(backend, rng):
    deployment = _twin_deployment(batch_size=2)
    submissions = deployment.client.prepare_submissions([1, 2, 3, 4, 5])
    decisions, stats = run_pipelined(
        deployment.servers, submissions, batch_size=2, executor=backend
    )
    assert decisions == [True] * 5
    assert stats.n_batches == 3
    assert stats.batch_sizes == [2, 2, 1]
    assert stats.executor == backend
    assert deployment.servers[0].n_accepted == 5


def test_process_backend_encrypted_transport(rng):
    deployment = _twin_deployment(
        batch_size=2, encrypt=True, executor="process"
    )
    submissions = deployment.client.prepare_submissions([3, 7, 11])
    with deployment:
        assert deployment.deliver(submissions) == [True] * 3
        assert deployment.publish() == 21


def test_process_state_syncs_back_for_replay_protection(rng):
    """A submission verified inside worker processes must still be
    replay-protected afterward in the driver process (state merge)."""
    deployment = _twin_deployment(batch_size=4)
    values, submissions = _prepared_stream(deployment, rng, n=4)
    decisions, _ = run_pipelined(
        deployment.servers, submissions, batch_size=4, executor="process"
    )
    assert decisions == [True] * 4
    # Replay against the driver-side servers (inline): must reject.
    assert deployment.deliver([submissions[0]]) == [False]
    assert deployment.servers[0].n_replayed >= 1
    assert deployment.publish() == sum(values)


def test_replay_across_runs_and_backends(rng):
    """Replay protection spans runs executed on different backends."""
    deployment = _twin_deployment(batch_size=2)
    values, submissions = _prepared_stream(deployment, rng, n=3)
    first, _ = run_pipelined(
        deployment.servers, submissions, batch_size=2, executor="thread"
    )
    second, _ = run_pipelined(
        deployment.servers, submissions, batch_size=2, executor="process"
    )
    assert first == [True] * 3
    assert second == [False] * 3
    assert deployment.publish() == sum(values)


def test_persistent_process_fanout_reuse(rng):
    """A caller-owned ProcessFanout serves many runs (pools stay warm)
    and is not closed by the pipeline."""
    deployment = _twin_deployment(batch_size=4)
    fanout = ProcessFanout(deployment.servers)
    try:
        total = 0
        for round_index in range(3):
            values, submissions = _prepared_stream(deployment, rng, n=5)
            decisions, _ = run_pipelined(
                deployment.servers, submissions, batch_size=4,
                executor=fanout,
            )
            assert decisions == [True] * 5
            total += sum(values)
        assert deployment.publish() == total
        assert deployment.servers[0].n_accepted == 15
    finally:
        fanout.close()
    assert multiprocessing.active_children() == []


def test_failed_state_push_fails_run_without_clobbering_state(rng):
    """If a reused process backend cannot be re-synced (healthy workers,
    unpicklable server), the run must fail outright — not execute
    against stale worker state — and must not overwrite driver-side
    server state with a stale snapshot afterward."""
    deployment = _twin_deployment(batch_size=4)
    fanout = ProcessFanout(deployment.servers)

    def run(submissions):
        return run_pipelined(
            deployment.servers, submissions, batch_size=4, executor=fanout
        )[0]

    try:
        values1, subs1 = _prepared_stream(deployment, rng, n=4)
        assert run(subs1) == [True] * 4
        # Advance driver-side state between runs (inline deployment).
        values2, subs2 = _prepared_stream(deployment, rng, n=2)
        assert deployment.deliver(subs2) == [True] * 2
        accepted_before = deployment.servers[0].n_accepted
        shares_before = deployment.publish_shares()
        deployment.servers[0].poison = lambda: None  # unpicklable
        values3, subs3 = _prepared_stream(deployment, rng, n=4)
        assert run(subs3) == [False] * 4
        assert deployment.servers[0].n_accepted == accepted_before
        assert deployment.publish_shares() == shares_before
        # The backend recovers once the server pickles again.
        del deployment.servers[0].poison
        values4, subs4 = _prepared_stream(deployment, rng, n=3)
        assert run(subs4) == [True] * 3
    finally:
        fanout.close()


def test_resolve_fanout_rejects_unknown_kind():
    deployment = _twin_deployment()
    with pytest.raises(FanoutError):
        resolve_fanout(deployment.servers, "distributed-ledger")


def test_resolve_fanout_rejects_raw_process_pool():
    """A bare ProcessPoolExecutor would mutate throwaway pickled server
    copies (silent total rejection) — it must be refused up front."""
    from concurrent.futures import ProcessPoolExecutor

    deployment = _twin_deployment()
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        with pytest.raises(FanoutError, match="process"):
            resolve_fanout(deployment.servers, pool)
    finally:
        pool.shutdown(wait=True)


def test_resolve_auto_prefers_thread_for_tiny_batches():
    deployment = _twin_deployment()
    fanout, owned = resolve_fanout(deployment.servers, "auto", batch_size=1)
    try:
        assert fanout.kind in ("thread", "inline")
        assert owned
    finally:
        fanout.close()


def test_shuffled_server_list_routes_by_protocol_index(rng):
    """Packets must reach the server they are addressed to even when
    the servers list is not in protocol-index order."""
    deployment = _twin_deployment(batch_size=4)
    values, submissions = _prepared_stream(deployment, rng, n=5)
    shuffled = [deployment.servers[i] for i in (2, 0, 1)]
    decisions, _ = run_pipelined(
        shuffled, submissions, batch_size=4, executor="inline"
    )
    assert decisions == [True] * 5
    assert deployment.publish() == sum(values)


def test_deployment_level_process_executor_caches_pools(rng):
    """The deployment's executor resolves to one fan-out on first use,
    reused by every way in, and released by close()."""
    deployment = _twin_deployment(batch_size=4, executor="process")
    with deployment:
        assert deployment._fanout is None  # lazy: nothing spawned yet
        total = 0
        for round_index in range(2):
            values, submissions = _prepared_stream(deployment, rng, n=5)
            assert deployment.deliver(submissions) == [True] * 5
            total += sum(values)
        assert deployment.submit(7) is True
        assert deployment.submit_many([1, 2, 3]) == 3
        total += 7 + 6
        fanout = deployment._fanout
        assert fanout is not None and fanout.kind == "process"
        assert deployment._fanout is fanout  # reused, not rebuilt
        assert deployment.publish() == total
    assert deployment._fanout is None
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Failure paths: a worker dying mid-batch
# ----------------------------------------------------------------------


class CrashOnIngestServer(PrioServer):
    """Raises inside the ingest sweep for marked submission ids.

    Picklable (plain attributes), so the crash ships into worker
    processes with the server — the process-backend fault injection.
    """

    crash_sids: frozenset = frozenset()

    def _ingest_batch(self, pendings):
        if any(p.submission_id in self.crash_sids for p in pendings):
            raise RuntimeError("injected ingest crash")
        return super()._ingest_batch(pendings)


class CrashOnRound1Server(PrioServer):
    """Raises at round 1 (verification) for marked submission ids."""

    crash_sids: frozenset = frozenset()

    def begin_verification_batch(self, pendings):
        if any(p.submission_id in self.crash_sids for p in pendings):
            raise RuntimeError("injected round-1 crash")
        return super().begin_verification_batch(pendings)


class CrashOnAccumulateServer(PrioServer):
    """Raises at the Aggregate commit point for marked submission ids."""

    crash_sids: frozenset = frozenset()

    def accumulate_batch(self, pendings, decisions):
        if any(p.submission_id in self.crash_sids for p in pendings):
            raise RuntimeError("injected accumulate crash")
        return super().accumulate_batch(pendings, decisions)


def _crashy_setup(server_cls, crash_batch, rng, n=12, batch=4, n_servers=3):
    afe = IntegerSumAfe(FIELD87, 8)
    randomness = ServerRandomness(b"crash")
    servers = [
        server_cls(afe, i, n_servers, randomness) for i in range(n_servers)
    ]
    client = PrioClient(afe, n_servers, rng=rng)
    values = [rng.randrange(256) for _ in range(n)]
    submissions = client.prepare_submissions(values)
    marked = frozenset(
        submissions[i].packets[0].submission_id
        for i in range(crash_batch * batch, (crash_batch + 1) * batch)
    )
    servers[1].crash_sids = marked  # only one server crashes
    return servers, values, submissions


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_worker_crash_at_verification_rejects_batch_alone(backend, rng):
    """The one crash policy: a mid-round worker crash *abandons* the
    batch — nobody verified those submissions, so their ids are
    released, not burned — exactly like an ingest-stage crash and like
    the socket front end (which answers BUSY)."""
    before_threads, _ = _no_leaks()
    servers, values, submissions = _crashy_setup(
        CrashOnRound1Server, crash_batch=1, rng=rng
    )
    decisions, stats = run_pipelined(
        servers, submissions, batch_size=4, executor=backend
    )
    assert decisions == [True] * 4 + [False] * 4 + [True] * 4
    assert stats.n_worker_failures == 4
    # The crashed batch was abandoned, not decided, at every server.
    for server in servers:
        assert server.n_accepted == 8
        assert server.n_rejected == 0
        assert server._pending_ids == set()
    # Clear the fault and re-run the crashed four: accepted, no replay.
    servers[1].crash_sids = frozenset()
    retry, _ = run_pipelined(
        servers, submissions[4:8], batch_size=4, executor=backend
    )
    assert retry == [True] * 4
    assert servers[0].n_accepted == 12
    assert servers[0].n_replayed == 0
    after_threads, children = _no_leaks()
    assert after_threads <= before_threads
    assert children == []


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_worker_crash_at_ingest_releases_ids_for_retry(backend, rng):
    """An ingest-stage crash abandons (does not decide) the batch: an
    honest retry of the same submissions must succeed afterward."""
    servers, values, submissions = _crashy_setup(
        CrashOnIngestServer, crash_batch=1, rng=rng
    )
    decisions, stats = run_pipelined(
        servers, submissions, batch_size=4, executor=backend
    )
    assert decisions == [True] * 4 + [False] * 4 + [True] * 4
    assert stats.n_worker_failures == 4
    assert servers[0]._pending_ids == set()
    # Clear the fault and retry the abandoned batch: accepted, no replay.
    servers[1].crash_sids = frozenset()
    retry, _ = run_pipelined(
        servers, submissions[4:8], batch_size=4, executor=backend
    )
    assert retry == [True] * 4
    assert servers[0].n_accepted == 12
    assert servers[0].n_replayed == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_crash_at_commit_point_is_fatal_not_silent(backend, rng):
    """An accumulate-sweep failure cannot be isolated to the batch —
    peers that already committed cannot roll back — so the run must
    fail loudly rather than continue with divergent accumulators."""
    servers, values, submissions = _crashy_setup(
        CrashOnAccumulateServer, crash_batch=1, rng=rng
    )
    with pytest.raises(RuntimeError, match="accumulate crash"):
        run_pipelined(servers, submissions, batch_size=4, executor=backend)
    assert multiprocessing.active_children() == []


def test_dead_worker_process_fails_batches_without_hanging(rng):
    """A hard-killed worker process (BrokenProcessPool) must fail the
    affected submissions and still return, with every child reaped."""
    deployment = _twin_deployment(batch_size=4, n_servers=2)
    values, submissions = _prepared_stream(deployment, rng, n=8)
    fanout = ProcessFanout(deployment.servers)
    try:
        for child in multiprocessing.active_children():
            child.kill()
        decisions, _ = run_pipelined(
            deployment.servers, submissions, batch_size=4, executor=fanout
        )
        assert decisions == [False] * 8
    finally:
        fanout.close()
    assert multiprocessing.active_children() == []


def test_worker_death_after_sync_surfaces_state_loss(rng):
    """A worker dying after a successful state push may have committed
    batches the driver never sees; end_run must flag the divergence
    risk instead of silently keeping the pre-run snapshot."""
    import warnings

    deployment = _twin_deployment(batch_size=4, n_servers=2)
    fanout = ProcessFanout(deployment.servers)  # begin_run succeeded
    try:
        for child in multiprocessing.active_children():
            child.kill()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fanout.end_run()
        assert fanout.degraded
        assert any(
            "lost worker state" in str(w.message) for w in caught
        )
    finally:
        fanout.close()
    assert multiprocessing.active_children() == []


def test_sweep_cancellation_wins_over_worker_error():
    """Cancellation arriving while a sweep drains after a worker error
    must surface as CancelledError — folding it into the error slot
    would consume the stage task's one-shot cancellation and hang the
    pipeline shutdown."""
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    from repro.protocol import LocalFanout

    deployment = _twin_deployment(n_servers=2)
    fanout = LocalFanout(
        deployment.servers,
        ThreadPoolExecutor(max_workers=2),
        own_executor=True,
    )
    release = threading.Event()

    class FakeOps:
        def __init__(self, fail):
            self.fail = fail

        def op(self):
            if self.fail:
                raise RuntimeError("worker error")
            release.wait(5)
            return "ok"

    fanout.ops = [FakeOps(True), FakeOps(False)]

    async def main():
        task = asyncio.create_task(fanout.sweep("op", [(), ()]))
        await asyncio.sleep(0.05)  # op 0 has failed, op 1 is blocked
        task.cancel()
        release.set()
        with pytest.raises(asyncio.CancelledError):
            await task

    try:
        asyncio.run(main())
    finally:
        release.set()
        fanout.close()


# ----------------------------------------------------------------------
# Lifecycle: repeated runs must not leak workers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_runs_leak_no_threads_or_processes(backend, rng):
    deployment = _twin_deployment(batch_size=4)
    before_threads, _ = _no_leaks()
    total = 0
    for round_index in range(4):
        values, submissions = _prepared_stream(deployment, rng, n=6)
        pipeline = AsyncPrioPipeline(
            deployment.servers, batch_size=4, executor=backend
        )
        assert pipeline.run(submissions) == [True] * 6
        total += sum(values)
    after_threads, children = _no_leaks()
    assert after_threads <= before_threads
    assert children == []
    assert deployment.publish() == total
