"""The traced run of ``bench_e2e``: per-layer attribution from outside.

Spans are recorded here, in the benchmark's own files, around calls
into each layer's public functions (``src/`` carries no timers yet —
ROADMAP item 1).  Three groups:

* **client stages** — the exact public-call sequence
  ``PrioClient.prepare_submissions`` performs, driven under the same
  rng and asserted byte-identical to its uploads;
* **server stages** — the fan-out op seam (``resolve_fanout`` +
  ``call_sync``) in the order ``PrioTransportServer._process_batch``
  uses, in memory;
* **standalone kernels and one TCP repeat** for the transport numbers.

Every import of a non-stable name happens inside a probe, and every
probe is guarded: a function that a later PR removes or re-signatures
turns the metrics that needed it into ``None`` with a reason, and
everything else still runs.
"""

from __future__ import annotations

import pickle
import random
import statistics
import time
from contextlib import contextmanager

from repro.transport import Status, TransportClient

import e2e_harness as harness
from e2e_workloads import (
    N_SERVERS,
    build_afe,
    build_deployment,
    build_traffic,
    plaintext_sigma,
)

#: name -> (unit, better); the order is the order of the README table
LAYER_METRICS = {
    "afe.encode": ("ms/sub", "lower"),
    "snip.draws": ("ms/sub", "lower"),
    "circuit.trace": ("ms/sub", "lower"),
    "circuit.compile_ms": ("ms", "lower"),
    "snip.h_ntt": ("ms/sub", "lower"),
    "snip.assemble": ("ms/sub", "lower"),
    "sharing.client_share": ("ms/sub", "lower"),
    "field.encode_bytes": ("ms/sub", "lower"),
    "protocol.wire.packets": ("ms/sub", "lower"),
    "crypto.seal": ("ms/sub", "lower"),
    "transport.frame": ("ms/sub", "lower"),
    "protocol.client.stage_cover": ("ratio", "higher"),
    "protocol.client.peak_rss_mb": ("MiB", "lower"),
    "protocol.server.receive": ("ms/sub", "lower"),
    "crypto.open": ("ms/sub", "lower"),
    "ec.scalar_mult_ms": ("ms", "lower"),
    "protocol.server.ingest": ("ms/sub", "lower"),
    "sharing.expand_seed": ("ms/sub", "lower"),
    "field.decode_bytes": ("ms/sub", "lower"),
    "snip.round1": ("ms/sub", "lower"),
    "snip.round2": ("ms/sub", "lower"),
    "snip.decide": ("ms/sub", "lower"),
    "protocol.server.accumulate": ("ms/sub", "lower"),
    "protocol.server.publish_ms": ("ms", "lower"),
    "protocol.server.rejected_snip": ("count", "lower"),
    "protocol.server.rejected_replay": ("count", "lower"),
    "protocol.pipeline.ops_subs_per_s": ("1/s", "higher"),
    "protocol.pipeline.stage_cover": ("ratio", "higher"),
    "protocol.fanout.crossing_ms_per_batch": ("ms", "lower"),
    "protocol.fanout.crossing_bytes_per_sub": ("B", "lower"),
    "transport.overhead": ("ms/sub", "lower"),
    "transport.frame_parse": ("ms/sub", "lower"),
    "transport.batch_fill": ("ratio", "higher"),
    "transport.n_pauses": ("count", "lower"),
    "transport.n_shed": ("count", "lower"),
    "transport.max_pending": ("count", "lower"),
    "transport.decision_latency_p50_ms": ("ms", "lower"),
    "transport.decision_latency_p95_ms": ("ms", "lower"),
    "transport.decision_latency_p99_ms": ("ms", "lower"),
    "transport.loadgen_cpu_share": ("ratio", "lower"),
}

CLIENT_STAGES = (
    "afe.encode", "snip.draws", "circuit.trace", "snip.h_ntt",
    "snip.assemble", "sharing.client_share", "field.encode_bytes",
    "protocol.wire.packets", "crypto.seal", "transport.frame",
)
#: fan-out op -> the layer its time is charged to
OP_LAYER = {
    "receive": "protocol.server.receive",
    "ingest": "protocol.server.ingest",
    "round1": "snip.round1",
    "round2": "snip.round2",
    "decide": "snip.decide",
    "accumulate": "protocol.server.accumulate",
}
#: shares of ``--seconds`` for the traced client and op-seam sections
CLIENT_SHARE = 0.25
OPS_SHARE = 0.15
#: traced client iterations: enough for a median, capped so the span
#: file stays small on sum1
MIN_CLIENT_ITERATIONS = 5
MAX_CLIENT_ITERATIONS = 30


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, batch,
    server]``.  A span whose body raised keeps ``end = None`` and counts
    for nothing."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._open: "list[int]" = []

    def add(self, name, start, end, batch=None, server=None) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, batch, server])

    @contextmanager
    def span(self, name, batch=None, server=None):
        index = len(self.spans)
        self.add(name, time.perf_counter(), None, batch, server)
        self._open.append(index)
        try:
            yield
            self.spans[index][2] = time.perf_counter()
        finally:
            self._open.pop()

    def by_batch(self, name) -> "dict[object, float]":
        """Summed duration of the finished spans called ``name``, per
        ``batch`` tag (all servers, all calls)."""
        out: "dict[object, float]" = {}
        for span_name, start, end, _, batch, _ in self.spans:
            if span_name == name and end is not None:
                out[batch] = out.get(batch, 0.0) + end - start
        return out

    def dump(self) -> "list[dict]":
        origin = self.spans[0][1] if self.spans else 0.0
        keys = ("name", "start", "end", "parent", "batch", "server")
        return [
            dict(zip(keys, [
                s[0], s[1] - origin,
                None if s[2] is None else s[2] - origin, *s[3:],
            ]))
            for s in self.spans
        ]


class Layers:
    """Per-layer results: value (or ``None``) and the reason for each
    ``None``."""

    def __init__(self) -> None:
        self.values: "dict[str, float | None]" = {}
        self.reasons: "dict[str, str]" = {}

    def guard(self, names, probe) -> None:
        """Run ``probe() -> {name: value}``; on any failure its names
        become ``None`` with the reason, and the run goes on."""
        try:
            self.values.update(probe())
        except Exception as exc:  # noqa: BLE001 - probe isolation
            self.fail(names, exc)

    def fail(self, names, exc) -> None:
        for name in names:
            if self.values.get(name) is None:
                self.values[name] = None
                self.reasons[name] = f"{type(exc).__name__}: {exc}"


def _percentile(ordered, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


# ----------------------------------------------------------------------
# Client stages
# ----------------------------------------------------------------------


def staged_prepare(tr: Tracer, client, values, sealed: bool, batch):
    """``PrioClient.prepare_submissions`` + ``frame_submission`` as the
    sequence of public calls it makes, one span per stage (PRG-
    compressed shares, a circuit with multiplication gates — the fixed
    configuration of every workload)."""
    from repro.circuit.compiled import compile_circuit
    from repro.field.batch import encode_bytes_batch, tiny_batch_force_pure
    from repro.mpc.beaver import generate_triple
    from repro.protocol.client import ClientSubmission
    from repro.protocol.wire import (
        new_submission_id,
        packets_for_share_bodies,
        seal_packet,
    )
    from repro.sharing.additive import share_vectors_client_batch
    from repro.sharing.prg import new_seed
    from repro.snip.batch_prover import (
        ProofRandomness,
        h_planes_batch,
        submission_planes,
    )

    field, circuit, rng = client.field, client.circuit, client.rng
    n_total = client.submission_elements()
    clock = time.perf_counter
    encodings, randoms, sids, seed_rows = [], [], [], []
    for value in values:
        t0 = clock()
        encoding = client.afe.encode(value, rng)
        t1 = clock()
        u0 = field.rand(rng)
        v0 = field.rand(rng)
        randoms.append(ProofRandomness(
            u0=u0, v0=v0, triple=generate_triple(field, rng)
        ))
        sids.append(new_submission_id(rng))
        seed_rows.append([new_seed(rng) for _ in range(N_SERVERS - 1)])
        t2 = clock()
        tr.add("afe.encode", t0, t1, batch)
        tr.add("snip.draws", t1, t2, batch)
        encodings.append(encoding)
    force = tiny_batch_force_pure(len(values) * n_total, None)
    with tr.span("circuit.trace", batch):
        trace = compile_circuit(field, circuit).evaluate_batch(
            encodings, force
        )
    with tr.span("snip.h_ntt", batch):
        h = h_planes_batch(field, circuit, trace, randoms, force)
    with tr.span("snip.assemble", batch):
        vectors = submission_planes(
            field, circuit, encodings, randoms, h, force
        )
    with tr.span("sharing.client_share", batch):
        _, explicit = share_vectors_client_batch(
            field, vectors, N_SERVERS, seeds=seed_rows, force_pure=force
        )
    with tr.span("field.encode_bytes", batch):
        bodies = encode_bytes_batch(field, explicit, explicit.force_pure)
    with tr.span("protocol.wire.packets", batch):
        packet_lists = [
            packets_for_share_bodies(sid, seed_rows[i], bodies[i], n_total)
            for i, sid in enumerate(sids)
        ]
    sealed_lists = [None] * len(sids)
    if sealed:
        with tr.span("crypto.seal", batch):
            sealed_lists = [
                [
                    seal_packet(key, packet, rng)
                    for key, packet in zip(client.server_box_keys, packets)
                ]
                for packets in packet_lists
            ]
    submissions = [
        ClientSubmission(sid, packets, boxes)
        for sid, packets, boxes in zip(sids, packet_lists, sealed_lists)
    ]
    with tr.span("transport.frame", batch):
        return [
            TransportClient.frame_submission(s, sealed=sealed)
            for s in submissions
        ]


def client_probes(tr, layers, spec, client, generate, rng, seconds):
    """Whole vs staged client on the same values and rng state.

    Returns ``(pool, identical, staged_error)``: the whole path's
    ``(value, submission)`` pairs (the template pool of the server
    sections), whether every staged upload matched byte for byte, and
    the exception that stopped the staged path, if one did.
    """
    frame = TransportClient.frame_submission
    batch = spec.client_batch

    def whole(values, index):
        with tr.span("protocol.client.prepare", index):
            submissions = client.prepare_submissions(values)
            frames = [frame(s, sealed=spec.sealed) for s in submissions]
        return submissions, frames

    # One uncounted batch warms the allocator and every cache the two
    # paths share (they call the same functions).
    values = [generate(rng) for _ in range(batch)]
    pool = list(zip(values, whole(values, -1)[0]))
    identical, staged_error = True, None
    # Sealed uploads are sent once each: warm-up batch + two timed ones.
    need = 3 * spec.batch if spec.sealed else 0
    counted = []
    started = time.perf_counter()
    while len(counted) < MAX_CLIENT_ITERATIONS and (
        len(counted) < MIN_CLIENT_ITERATIONS
        or len(pool) < need
        or time.perf_counter() - started < CLIENT_SHARE * seconds
    ):
        index = len(counted)
        values = [generate(rng) for _ in range(batch)]
        state = client.rng.getstate()
        submissions, frames = whole(values, index)
        pool.extend(zip(values, submissions))
        if staged_error is None:
            after = client.rng.getstate()
            client.rng.setstate(state)
            try:
                staged = staged_prepare(
                    tr, client, values, spec.sealed, index
                )
                identical = identical and staged == frames
            except Exception as exc:  # noqa: BLE001 - probe isolation
                staged_error = exc
            client.rng.setstate(after)
        counted.append(index)

    # Medians over iterations, not totals: one burst on a shared host
    # must not decide a layer's number.
    whole_s = tr.by_batch("protocol.client.prepare")
    stage_sum = dict.fromkeys(counted, 0.0)
    for name in CLIENT_STAGES:
        per_iteration = tr.by_batch(name)
        if name == "crypto.seal" and not spec.sealed:
            per_iteration = dict.fromkeys(counted, 0.0)
        if not all(i in per_iteration for i in counted):
            layers.fail(
                [name], staged_error or RuntimeError("stage did not run")
            )
            continue
        layers.values[name] = 1000.0 * statistics.median(
            per_iteration[i] for i in counted
        ) / batch
        for i in counted:
            stage_sum[i] += per_iteration[i]
    if staged_error is None:
        layers.values["protocol.client.stage_cover"] = statistics.median(
            stage_sum[i] / whole_s[i] for i in counted
        )
    else:
        layers.fail(["protocol.client.stage_cover"], staged_error)
    return pool, identical and staged_error is None, staged_error


# ----------------------------------------------------------------------
# Server stages: the fan-out op seam
# ----------------------------------------------------------------------


def op_seam(
    tr, servers, executor, spec, batches,
    deadline=None, prefix="", sizes=None,
):
    """Drive ``batches`` through the op seam the transport uses.

    ``batches[b][s]`` is server ``s``'s packet bytes of batch ``b``;
    batch 0 is the warm-up, which callers leave out of their sums.
    Stops early once ``deadline`` has passed and two timed batches are
    done.  A generator: yields ``(verdicts, keep, decisions)`` after
    each batch, so two seams can be stepped in turn.  ``sizes``, when a
    list, collects pickled argument+result bytes per call (what a
    process backend moves).
    """
    from repro.protocol.fanout import resolve_fanout

    fanout, owned = resolve_fanout(servers, executor, spec.batch)
    receive_op = "receive_sealed" if spec.sealed else "receive_wire"

    def call(s, op, b, *args):
        layer = OP_LAYER.get(op, OP_LAYER["receive"])
        with tr.span(prefix + layer, b, s):
            result = fanout.call_sync(s, op, b, *args)
        if sizes is not None:
            sizes.append(len(pickle.dumps(args)) + len(pickle.dumps(result)))
        return result

    try:
        for b, payloads in enumerate(batches):
            if deadline is not None and b >= 3 and (
                time.perf_counter() >= deadline
            ):
                break
            with tr.span(prefix + "protocol.pipeline.batch", b):
                n = len(payloads[0])
                received = [
                    call(s, receive_op, b, payloads[s])
                    for s in range(N_SERVERS)
                ]
                verdicts = [
                    next((r[pos] for r in received if r[pos] is not None),
                         None)
                    for pos in range(n)
                ]
                keep = [pos for pos in range(n) if verdicts[pos] is None]
                for s in range(N_SERVERS):
                    call(s, "ingest", b, keep)
                decisions = []
                if keep:
                    round1 = [
                        call(s, "round1", b) for s in range(N_SERVERS)
                    ]
                    round2 = [
                        call(s, "round2", b, round1)
                        for s in range(N_SERVERS)
                    ]
                    with tr.span(prefix + OP_LAYER["decide"], b):
                        decisions = servers[0].decide_batch(round2)
                    for s in range(N_SERVERS):
                        call(s, "accumulate", b, decisions)
            yield verdicts, keep, decisions
        fanout.end_run()
    finally:
        if owned:
            fanout.close()


def _batches_of(spec, traffic):
    """Per-server packet bytes in whole batches, warm-up batch first."""
    from repro.transport.framing import split_upload

    split = [
        split_upload(frame[4:]) for _, frame in traffic.warm + traffic.frames
    ]
    return [
        [[packets[s] for packets in split[i:i + spec.batch]]
         for s in range(N_SERVERS)]
        for i in range(0, len(split) - spec.batch + 1, spec.batch)
    ]


def server_probes(tr, layers, spec, afe, seed, traffic, seconds):
    """The in-memory op-seam run and what is read off it."""
    names = [
        *OP_LAYER.values(), "protocol.pipeline.ops_subs_per_s",
        "protocol.pipeline.stage_cover", "protocol.server.publish_ms",
        "protocol.server.rejected_snip", "protocol.server.rejected_replay",
    ]
    state = {"attempted": 0, "failed": 0, "ops_rate": None, "batches": None}

    def probe():
        deployment = build_deployment(spec, afe, seed)
        try:
            batches = _batches_of(spec, traffic)
            outcomes = list(op_seam(
                tr, deployment.servers, "inline", spec, batches,
                deadline=time.perf_counter() + OPS_SHARE * seconds,
            ))
            batches = state["batches"] = batches[: len(outcomes)]
            # Per-batch medians (batch 0 is the warm-up).
            timed = range(1, len(batches))
            wall = tr.by_batch("protocol.pipeline.batch")
            op_sum = dict.fromkeys(timed, 0.0)
            out = {}
            for layer in OP_LAYER.values():
                per_batch = tr.by_batch(layer)
                out[layer] = 1000.0 * statistics.median(
                    per_batch.get(b, 0.0) for b in timed
                ) / spec.batch
                for b in timed:
                    op_sum[b] += per_batch.get(b, 0.0)
            state["ops_rate"] = spec.batch / statistics.median(
                wall[b] for b in timed
            )
            out["protocol.pipeline.ops_subs_per_s"] = state["ops_rate"]
            out["protocol.pipeline.stage_cover"] = statistics.median(
                op_sum[b] / wall[b] for b in timed
            )

            # Decisions against the constructed pattern, then publish.
            expected = [Status.ACCEPTED] * spec.batch + traffic.expected
            values = traffic.warm_values + traffic.values
            snip = replay = 0
            accepted_values = []
            position = 0
            for verdicts, keep, decisions in outcomes:
                decided = dict(zip(keep, decisions))
                for pos, verdict in enumerate(verdicts):
                    accepted = decided.get(pos, False)
                    if verdict is not None and "replay" in str(verdict):
                        replay += 1
                    elif not accepted:
                        snip += 1
                    want = expected[position] is Status.ACCEPTED
                    state["failed"] += accepted != want
                    if accepted:
                        accepted_values.append(values[position])
                    position += 1
            out["protocol.server.rejected_snip"] = snip
            out["protocol.server.rejected_replay"] = replay
            t0 = time.perf_counter()
            shares = [s.publish() for s in deployment.servers]
            sigma = afe.field.vec_sum(shares)
            afe.decode(sigma, len(accepted_values))
            t1 = time.perf_counter()
            tr.add("protocol.server.publish", t0, t1)
            out["protocol.server.publish_ms"] = 1000.0 * (t1 - t0)
            state["attempted"] = position
            if sigma != plaintext_sigma(afe, accepted_values):
                state["failed"] = position
            return out
        finally:
            deployment.close()

    layers.guard(names, probe)
    return state


def fanout_probes(tr, layers, spec, afe, seed, batches):
    """Executor crossings: the same batches through the same ops under
    ``spec.executor`` and inline, stepped batch by batch in turn so that
    host drift cancels in the per-batch difference."""
    names = [
        "protocol.fanout.crossing_ms_per_batch",
        "protocol.fanout.crossing_bytes_per_sub",
    ]
    if spec.executor == "inline":
        layers.values.update(dict.fromkeys(names, 0.0))
        return

    def probe():
        if batches is None:
            raise RuntimeError("the inline op-seam run did not finish")
        crossed, inline = (
            f"protocol.fanout[{kind}]/" for kind in (spec.executor, "inline")
        )
        deployments = [build_deployment(spec, afe, seed) for _ in range(2)]
        sizes = []
        try:
            for _ in zip(
                op_seam(tr, deployments[0].servers, spec.executor, spec,
                        batches, prefix=crossed, sizes=sizes),
                op_seam(tr, deployments[1].servers, "inline", spec,
                        batches, prefix=inline),
            ):
                pass
        finally:
            for deployment in deployments:
                deployment.close()
        crossing = 0.0
        for op, layer in OP_LAYER.items():
            if op == "decide":  # runs driver-side under every executor
                continue
            there = tr.by_batch(crossed + layer)
            here = tr.by_batch(inline + layer)
            crossing += statistics.median(
                there[b] - here[b] for b in range(1, len(batches))
            )
        return {
            names[0]: 1000.0 * crossing,
            names[1]: sum(sizes) / sum(len(b[0]) for b in batches),
        }

    layers.guard(names, probe)


# ----------------------------------------------------------------------
# Standalone kernels
# ----------------------------------------------------------------------


def kernel_probes(tr, layers, spec, afe, deployment, pool, traffic):
    """Kernels the ops call, timed alone on one batch's real inputs."""
    submissions = [sub for _, sub in pool[: spec.batch]]
    n = len(submissions)
    field = afe.field

    def timed(name, fn, per=n):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        tr.add("kernel/" + name, t0, t1)
        return {name: 1000.0 * (t1 - t0) / per}

    def expand_seed():
        from repro.sharing.prg import expand_seed_batch

        seeds = [
            p.body for s in submissions for p in s.packets
            if p.kind.name == "SEED"
        ]
        length = submissions[0].packets[0].n_elements
        return timed(
            "sharing.expand_seed",
            lambda: expand_seed_batch(field, seeds, length),
        )

    def decode_bytes():
        from repro.field.batch import decode_bytes_batch

        bodies = [
            p.body for s in submissions for p in s.packets
            if p.kind.name == "EXPLICIT"
        ]
        return timed(
            "field.decode_bytes", lambda: decode_bytes_batch(field, bodies)
        )

    def frame_parse():
        from repro.transport.framing import FrameAssembler, split_upload

        stream = b"".join(f for _, f in traffic.warm)

        def parse():
            for payload in FrameAssembler().feed(stream):
                split_upload(payload)

        return timed("transport.frame_parse", parse)

    def compile_plan():
        from repro.circuit.compiled import compile_circuit

        fresh, _, _ = build_afe(spec.afe_name)
        circuit = fresh.valid_circuit()
        return timed(
            "circuit.compile_ms",
            lambda: compile_circuit(field, circuit), per=1,
        )

    def open_boxes():
        from repro.crypto.box import open_box
        from repro.protocol.wire import ENVELOPE_SIZE

        pairs = [
            (deployment.servers[s].box_keypair, sub.sealed_packets[s])
            for sub in submissions for s in range(N_SERVERS)
        ]

        def run():
            for keypair, data in pairs:
                open_box(
                    keypair, data[ENVELOPE_SIZE:],
                    associated_data=data[:ENVELOPE_SIZE],
                )

        return timed("crypto.open", run)

    def scalar_mult():
        from repro.ec.p256 import GENERATOR, random_scalar, scalar_mult

        rng = random.Random(0)
        samples = []
        for _ in range(50):
            k = random_scalar(rng)
            t0 = time.perf_counter()
            scalar_mult(k, GENERATOR)
            samples.append(1000.0 * (time.perf_counter() - t0))
        return {"ec.scalar_mult_ms": statistics.median(samples)}

    layers.guard(["sharing.expand_seed"], expand_seed)
    layers.guard(["field.decode_bytes"], decode_bytes)
    layers.guard(["transport.frame_parse"], frame_parse)
    layers.guard(["circuit.compile_ms"], compile_plan)
    if spec.sealed:
        layers.guard(["crypto.open"], open_boxes)
        layers.guard(["ec.scalar_mult_ms"], scalar_mult)
    else:
        layers.values.update({"crypto.open": 0.0, "ec.scalar_mult_ms": 0.0})


# ----------------------------------------------------------------------
# One workload, traced
# ----------------------------------------------------------------------


def run_traced(spec, seed: int, seconds: float) -> dict:
    """The traced run: every per-layer metric (or ``None`` + reason),
    the spans, and the correctness counts of its own sections."""
    afe, generate, summarize = build_afe(spec.afe_name)
    deployment = build_deployment(spec, afe, seed)
    rng = random.Random(f"bench_e2e/{seed}/values")
    tr, layers = Tracer(), Layers()

    pool, identical, staged_error = client_probes(
        tr, layers, spec, deployment.client, generate, rng, seconds
    )
    layers.values["protocol.client.peak_rss_mb"] = (
        harness.peak_rss_kb("self") / 1024.0
    )
    traffic = build_traffic(spec, pool, seed)
    seam = server_probes(tr, layers, spec, afe, seed, traffic, seconds)
    fanout_probes(tr, layers, spec, afe, seed, seam["batches"])
    kernel_probes(tr, layers, spec, afe, deployment, pool, traffic)

    # One TCP repeat, for the numbers only a socket run has.
    slice_s = (1.0 - CLIENT_SHARE - 2 * OPS_SHARE) * seconds
    tcp = harness.run_repeat(spec, afe, summarize, traffic, seed, slice_s)
    stats = tcp["stats"]
    ordered = sorted(tcp["latencies_ms"])
    decided = stats["n_accepted"] + stats["n_rejected"]
    layers.values.update({
        "transport.batch_fill": decided / (stats["n_batches"] * spec.batch),
        "transport.n_pauses": stats["n_pauses"],
        "transport.n_shed": stats["n_shed"],
        "transport.max_pending": stats["max_pending"],
        "transport.decision_latency_p50_ms": _percentile(ordered, 0.50),
        "transport.decision_latency_p95_ms": _percentile(ordered, 0.95),
        "transport.decision_latency_p99_ms": _percentile(ordered, 0.99),
        "transport.loadgen_cpu_share": tcp["loadgen_cpu_share"],
    })
    if seam["ops_rate"] is None:
        layers.fail(
            ["transport.overhead"],
            RuntimeError("no op-seam rate to subtract"),
        )
    else:
        layers.values["transport.overhead"] = (
            1000.0 / tcp["server_subs_per_s"] - 1000.0 / seam["ops_rate"]
        )
    deployment.close()
    for name in LAYER_METRICS:
        if name not in layers.values:
            layers.fail([name], RuntimeError("not measured"))
    return {
        "per_layer": {k: layers.values[k] for k in LAYER_METRICS},
        "reasons": layers.reasons,
        "spans": tr.dump(),
        "staged_identical": identical,
        "staged_error": None if staged_error is None else repr(staged_error),
        "attempted": tcp["attempted"] + seam["attempted"],
        "failed": tcp["failed"] + seam["failed"],
    }
