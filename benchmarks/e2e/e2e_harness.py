"""The untraced end-to-end path of ``bench_e2e``.

One workload run is::

    client session  PrioClient.prepare_submissions + frame, batches and
                    single values, in the load-generator process
    R repeats of    spawn a fresh server process (PrioTransportServer on
                    127.0.0.1 TCP) <- this process, one connection,
                    closed loop, window 2*B; then another client session

Only the stable surface of ``repro`` is used here (``PrioDeployment
.create``, ``PrioClient.prepare_submissions``, ``TransportClient``,
``PrioTransportServer``/``TransportConfig``, ``PrioServer.publish``,
``afe.decode``); the per-layer probes live in ``e2e_probes``.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import multiprocessing
import os
import random
import resource
import signal
import statistics
import time
from multiprocessing import resource_tracker

from repro.transport import (
    PrioTransportServer,
    Status,
    TransportClient,
    TransportConfig,
)

from e2e_workloads import (
    build_afe,
    build_deployment,
    build_traffic,
    plaintext_sigma,
)

#: fresh servers per workload run
REPEATS = 5
#: shares of ``--seconds``: client batches and single-value calls (each
#: spread over REPEATS + 1 sessions), the rest split evenly over the
#: repeats' closed-loop sections
CLIENT_BATCH_SHARE = 0.25
CLIENT_SINGLE_SHARE = 0.10
#: floor per client session (highres: one batch is over a second)
MIN_SESSION_BATCHES = 1
MIN_SESSION_SINGLE = 5
#: seconds to wait for a control message from the server process
CONTROL_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Leaving nothing behind
# ----------------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own
    parent dies (a killed server's workers), so ``reap_children`` can
    find and wait for them.  Best effort: without ``prctl`` only direct
    children are covered."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> "list[int]":
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ..."; comm may hold spaces
                ppid = stat.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop and wait for every process this one still has, on every
    path out.  By now the work is done, so whatever is left is a
    leftover: a server behind a failed repeat, its orphaned workers, or
    multiprocessing's resource tracker, which outlives the run by
    design and nobody else waits for."""
    try:
        # Ends the tracker the clean way (closes its pipe, waits).
        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - private API; the sweep covers it
        pass
    while True:
        for pid in _child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    """CPU of this process plus its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage,
            (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN),
        )
    )


def peak_rss_kb(pid) -> int:
    """High-water RSS of one process from ``/proc`` (``VmHWM``).

    Not ``ru_maxrss``: Linux folds the pre-exec image's high-water mark
    into it, so a spawned server would report the load generator's
    client planes as its own.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc status")


def server_main(conn, spec, seed: int) -> None:
    """Entry point of one fresh server process (spawned, so its memory
    holds no client planes).  Serves until told to stop, then reports
    the published shares, counters, CPU and peak memory."""
    afe, _, _ = build_afe(spec.afe_name)
    deployment = build_deployment(spec, afe, seed)
    try:
        conn.send(asyncio.run(_serve(conn, deployment, spec)))
    finally:
        deployment.close()
        conn.close()


async def _serve(conn, deployment, spec) -> dict:
    server = PrioTransportServer(
        deployment.servers,
        TransportConfig(batch_size=spec.batch, executor=spec.executor),
    )
    await server.start()
    _, port = await server.serve_tcp("127.0.0.1", 0)
    conn.send(port)
    loop = asyncio.get_running_loop()
    # Control messages: "mark" -> CPU so far; anything else -> stop.
    while await loop.run_in_executor(None, conn.recv) == "mark":
        conn.send(_cpu_seconds())
    # Workers are reaped by stop(), so read their peaks first.
    peak_kb = sum(
        peak_rss_kb(child.pid)
        for child in multiprocessing.active_children()
    )
    await server.stop()
    peak_kb += peak_rss_kb("self")
    return {
        "shares": [s.publish() for s in deployment.servers],
        "n_accepted": deployment.servers[0].n_accepted,
        "stats": dataclasses.asdict(server.stats),
        "cpu_s": _cpu_seconds(),
        "peak_rss_mb": peak_kb / 1024.0,
    }


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


def _recv(conn):
    if not conn.poll(CONTROL_TIMEOUT):
        raise TimeoutError("server process did not answer")
    return conn.recv()


def _until(frames, deadline: float):
    """Yield frames until the clock passes ``deadline``."""
    for item in frames:
        if time.perf_counter() >= deadline:
            return
        yield item


async def _drive(conn, port, spec, traffic, slice_s, started):
    """Warm-up batch, then the timed closed loop, on one connection."""
    client = await TransportClient.connect_tcp("127.0.0.1", port)
    try:
        warm = await client.submit_many(traffic.warm, window=spec.window)
        setup_s = time.perf_counter() - started
        conn.send("mark")
        cpu_before = _recv(conn)
        n_warm = len(client.latencies)
        own_cpu = time.process_time()
        t0 = time.perf_counter()
        statuses = await client.submit_many(
            _until(traffic.frames, t0 + slice_s), window=spec.window
        )
        wall = time.perf_counter() - t0
        own_cpu = time.process_time() - own_cpu
        latencies = client.latencies[n_warm:]
    finally:
        await client.close()
    return {
        "setup_s": setup_s,
        "warm": warm,
        "statuses": statuses,
        "wall_s": wall,
        "loadgen_cpu_s": own_cpu,
        "cpu_before": cpu_before,
        "latencies_s": latencies,
    }


def run_repeat(spec, afe, summarize, traffic, seed, slice_s) -> dict:
    """One repeat against a freshly spawned server; returns its metric
    samples and its failure count (every status and the aggregate are
    checked)."""
    ctx = multiprocessing.get_context("spawn")
    conn, child_conn = ctx.Pipe()
    started = time.perf_counter()
    proc = ctx.Process(target=server_main, args=(child_conn, spec, seed))
    proc.start()
    child_conn.close()
    try:
        port = _recv(conn)
        drive = asyncio.run(
            _drive(conn, port, spec, traffic, slice_s, started)
        )
        conn.send("stop")
        report = _recv(conn)
        proc.join(CONTROL_TIMEOUT)
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
        conn.close()

    statuses = drive["statuses"]
    n = len(statuses)
    attempted = len(drive["warm"]) + n
    failed = sum(s is not Status.ACCEPTED for s in drive["warm"])
    failed += sum(
        got is not want for got, want in zip(statuses, traffic.expected)
    )
    accepted_values = traffic.warm_values + [
        v for v, want in zip(traffic.values[:n], traffic.expected)
        if want is Status.ACCEPTED
    ]
    sigma = afe.field.vec_sum(report["shares"])
    reference = plaintext_sigma(afe, accepted_values)
    n_acc = len(accepted_values)
    aggregate_matches = (
        report["n_accepted"] == n_acc
        and sigma == reference
        and summarize(afe.decode(sigma, n_acc))
        == summarize(afe.decode(reference, n_acc))
    )
    if not aggregate_matches:
        failed = attempted
    stats = report["stats"]
    return {
        "attempted": attempted,
        "failed": failed,
        "executor": stats["executor"],
        "setup_s": drive["setup_s"],
        "server_subs_per_s": n / drive["wall_s"],
        "server_cpu_ms_per_sub":
            1000.0 * (report["cpu_s"] - drive["cpu_before"]) / n,
        "upload_bytes_per_sub":
            sum(len(f) for _, f in traffic.frames[:n]) / n,
        "peak_rss_mb": report["peak_rss_mb"],
        "loadgen_cpu_share": drive["loadgen_cpu_s"] / drive["wall_s"],
        "latencies_ms": [1000.0 * x for x in drive["latencies_s"]],
        "n_timed": n,
        "stats": stats,
    }


# ----------------------------------------------------------------------
# Client phase
# ----------------------------------------------------------------------


class ClientSampler:
    """Times the client as a load generator (batches of
    ``spec.client_batch``) and as a phone (one value), in sessions
    spread over the run: one before the first server repeat, one after
    each repeat.  A session's sample is the median of its calls; the
    run reports its fastest session, because on a shared host a burst
    of interference lasts seconds and only ever slows a session down.
    """

    def __init__(self, spec, client, generate, rng) -> None:
        self.spec, self.client = spec, client
        self.generate, self.rng = generate, rng
        #: ``(value, submission)`` of the first session's batches: the
        #: template pool of the server phase
        self.pool: list = []
        self.batch_ms_per_sub: "list[float]" = []
        self.single_ms: "list[float]" = []
        t0 = time.perf_counter()
        client.prepare_submissions([generate(rng)])
        self.first_prepare_s = time.perf_counter() - t0
        # The first batch pays for growing the heap to batch size; it
        # fills the pool but is not a sample.
        self._batch(keep=True)

    def _batch(self, keep: bool) -> float:
        spec = self.spec
        values = [self.generate(self.rng) for _ in range(spec.client_batch)]
        t0 = time.perf_counter()
        submissions = self.client.prepare_submissions(values)
        for submission in submissions:
            TransportClient.frame_submission(submission, sealed=spec.sealed)
        elapsed = time.perf_counter() - t0
        if keep:
            self.pool.extend(zip(values, submissions))
        return 1000.0 * elapsed / len(values)

    def _single(self) -> float:
        value = self.generate(self.rng)
        t0 = time.perf_counter()
        TransportClient.frame_submission(
            self.client.prepare_submissions([value])[0],
            sealed=self.spec.sealed,
        )
        return 1000.0 * (time.perf_counter() - t0)

    def session(self, batch_s, single_s, min_batches, min_single, need=0):
        """One session: batches for ``batch_s`` seconds (at least
        ``min_batches``, and until the pool holds ``need`` uploads),
        then single calls for ``single_s`` (at least ``min_single``)."""
        samples = []
        start = time.perf_counter()
        while (
            len(samples) < min_batches
            or len(self.pool) < need
            or time.perf_counter() - start < batch_s
        ):
            samples.append(self._batch(keep=need > 0))
        self.batch_ms_per_sub.append(statistics.median(samples))
        samples = []
        start = time.perf_counter()
        while (
            len(samples) < min_single
            or time.perf_counter() - start < single_s
        ):
            samples.append(self._single())
        self.single_ms.append(statistics.median(samples))


# ----------------------------------------------------------------------
# One workload, untraced
# ----------------------------------------------------------------------


def run_workload(spec, seed: int, seconds: float, repeats: int) -> dict:
    """The untraced run: every end-to-end metric's samples, plus the
    attempted/failed counts behind ``failed_share``."""
    t0 = time.perf_counter()
    afe, generate, summarize = build_afe(spec.afe_name)
    deployment = build_deployment(spec, afe, seed)
    create_s = time.perf_counter() - t0
    rng = random.Random(f"bench_e2e/{seed}/values")
    sampler = ClientSampler(spec, deployment.client, generate, rng)
    # The client's share of --seconds is spread over repeats + 1
    # sessions; the first also fills the pool (sealed uploads are sent
    # once each, so it must cover a warm-up batch plus a whole repeat).
    batch_s = CLIENT_BATCH_SHARE * seconds / (repeats + 1)
    single_s = CLIENT_SINGLE_SHARE * seconds / (repeats + 1)
    sampler.session(
        batch_s, single_s, MIN_SESSION_BATCHES, MIN_SESSION_SINGLE,
        need=spec.batch + (spec.n_cap if spec.sealed else 0),
    )
    traffic = build_traffic(spec, sampler.pool, seed)
    slice_s = (
        (1.0 - CLIENT_BATCH_SHARE - CLIENT_SINGLE_SHARE) * seconds / repeats
    )
    runs = []
    for _ in range(repeats):
        runs.append(run_repeat(spec, afe, summarize, traffic, seed, slice_s))
        sampler.session(
            batch_s, single_s, MIN_SESSION_BATCHES, MIN_SESSION_SINGLE
        )
    client_setup_s = create_s + sampler.first_prepare_s
    samples = {
        "setup_s": [r["setup_s"] + client_setup_s for r in runs],
        "client_prepare_ms_per_sub": sampler.batch_ms_per_sub,
        "client_single_ms": sampler.single_ms,
    }
    for metric in (
        "server_subs_per_s", "server_cpu_ms_per_sub",
        "upload_bytes_per_sub", "peak_rss_mb",
    ):
        samples[metric] = [r[metric] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    samples["failed_share"] = [failed / attempted]
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "executor": runs[0]["executor"],
    }
