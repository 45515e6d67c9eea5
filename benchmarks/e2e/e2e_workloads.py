"""Workload table and seeded input generation for ``bench_e2e``.

Everything the program under test sees is generated here from
``--seed``: the private values, the deployment randomness, the
submission ids and the corruption/replay pattern of ``vec256_mixed``.
Only the stable surface of ``repro`` is imported (see README.md,
"Probe isolation").
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.afe.sums import IntegerSumAfe, VectorSumAfe
from repro.field.parameters import FIELD87
from repro.protocol.runner import PrioDeployment
from repro.transport import Status, TransportClient
from repro.workloads.scenarios import scenario_by_name

N_SERVERS = 2
#: vec256_mixed traffic repeats with this period: two corrupted
#: uploads (every 8th) and one replay (every 16th) per period
MIX_PERIOD = 16
MIX_CORRUPT = (3, 11)
MIX_REPLAY = 9


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json; the long rationale is in README.md
    why: str
    afe_name: str
    #: ``TransportConfig.batch_size``; the load generator keeps
    #: ``2 * batch`` uploads in flight
    batch: int
    #: uploads pre-built per repeat; a repeat ends at its time slice or
    #: when these run out, whichever comes first
    n_cap: int
    executor: str = "inline"
    sealed: bool = False
    mixed: bool = False
    #: values per ``prepare_submissions`` call in the client phase
    client_batch: int = 64

    @property
    def window(self) -> int:
        return 2 * self.batch

    def smoke(self) -> "Workload":
        """Tiny shape for ``--smoke``: same layers, almost no work."""
        return dataclasses.replace(
            self, batch=8, n_cap=40, client_batch=4
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sum1",
            "1-bit sum, 202 B frames: per-packet cost (socket, framing, "
            "header parse, replay check) dominates, kernels do almost "
            "nothing",
            "sum1", batch=256, n_cap=60_000,
        ),
        Workload(
            "vec256",
            "256 x 1-bit vector sum (paper Fig. 4/5): balanced split of "
            "seed expansion, SNIP rounds and receive; baseline for the "
            "mixed and process variants",
            "vec256", batch=64, n_cap=6_000,
        ),
        Workload(
            "highres",
            "count-min browser scenario, 3822 mul gates, 132 KB frames: "
            "kernel-bound (NTT, seed expansion, round-1 matmuls), bytes "
            "matter and packets do not",
            # 16, not the 64 of the other workloads: a batch of 64 takes
            # 3 s here, too long to repeat in every client session
            "highres", batch=64, n_cap=640, client_batch=16,
        ),
        Workload(
            "sum1_sealed",
            "sum1 with box-sealed packets: P-256 scalar mults do nearly "
            "all client and server work; an EC change shows here and "
            "must not move sum1",
            "sum1", batch=64, n_cap=448, sealed=True,
        ),
        Workload(
            "vec256_mixed",
            "vec256 with every 8th upload corrupted and every 16th a "
            "replay: reject path, replay cache and abandon bookkeeping "
            "carry load, every status is checked",
            "vec256", batch=64, n_cap=6_000, mixed=True,
        ),
        Workload(
            "vec256_process",
            "vec256 with one worker process per logical server: the only "
            "workload where fan-out pickling and pipe round trips do "
            "work",
            "vec256", batch=64, n_cap=6_000, executor="process",
        ),
    )
}


def build_afe(afe_name: str):
    """``(afe, generate(rng) -> value, summarize(decoded))`` for a
    workload's AFE.  ``summarize`` reduces ``afe.decode`` output to a
    plainly comparable value (the count-min sketch object is checked
    through the field-level sum instead)."""
    if afe_name == "sum1":
        return (
            IntegerSumAfe(FIELD87, 1),
            lambda rng: rng.randrange(2),
            lambda decoded: decoded,
        )
    if afe_name == "vec256":
        return (
            VectorSumAfe(FIELD87, 256, n_bits=1),
            lambda rng: [rng.randrange(2) for _ in range(256)],
            list,
        )
    scenario = scenario_by_name("highres")
    return (
        scenario.afe,
        scenario.generate,
        lambda decoded: (decoded["cpu_mean"], decoded["mem_mean"]),
    )


def build_deployment(spec: Workload, afe, seed: int) -> PrioDeployment:
    """The deployment both processes derive from the seed: the server
    process serves ``.servers``, the load generator uses ``.client``
    (same box keys, because the same rng draws them)."""
    rng = random.Random(f"bench_e2e/{seed}/deployment")
    return PrioDeployment.create(
        afe,
        n_servers=N_SERVERS,
        seed=rng.randbytes(16),
        encrypt=spec.sealed,
        rng=rng,
    )


def plaintext_sigma(afe, values) -> "list[int]":
    """Field-level plaintext aggregate: column sums of the truncated
    encodings, the value the servers' summed shares must equal."""
    sigma = [0] * afe.k_prime
    p = afe.field.modulus
    for value in values:
        for j, x in enumerate(afe.encode(value)[: afe.k_prime]):
            sigma[j] = (sigma[j] + x) % p
    return sigma


@dataclass
class Traffic:
    """One repeat's pre-built uploads and what each must be answered."""

    #: ``(submission_id, frame)`` for the warm-up batch (all honest)
    warm: "list[tuple[bytes, bytes]]"
    warm_values: list
    #: ``(submission_id, frame)`` in send order
    frames: "list[tuple[bytes, bytes]]"
    expected: "list[Status]"
    #: private value per frame (``None`` where nothing may be counted)
    values: list


def _reissue(submission, sid: bytes):
    """The same proof under a fresh submission id (identical server
    work; through the dataclasses, not byte offsets)."""
    return dataclasses.replace(
        submission,
        submission_id=sid,
        packets=[
            dataclasses.replace(p, submission_id=sid)
            for p in submission.packets
        ],
    )


def _corrupt(submission):
    """Bump the last body byte of the explicit-share packet."""
    packets = list(submission.packets)
    for i, packet in enumerate(packets):
        if packet.kind.name == "EXPLICIT":
            body = packet.body[:-1] + bytes([(packet.body[-1] + 1) % 256])
            packets[i] = dataclasses.replace(packet, body=body)
            return dataclasses.replace(submission, packets=packets)
    raise ValueError("no explicit packet to corrupt")


def build_traffic(spec: Workload, pool, seed: int) -> Traffic:
    """Turn the client phase's ``(value, submission)`` pool into one
    repeat's frames.

    Cleartext uploads are template proofs re-issued under fresh ids, so
    ``n_cap`` frames cost microseconds each; sealed uploads are used
    once each, as the client sealed them.  ``vec256_mixed`` follows
    ``MIX_PERIOD``: replays re-send an upload decided at least two
    windows earlier (or a warm-up upload, early in the run), so the
    original's verdict is always in before its replay leaves.
    """
    frame = TransportClient.frame_submission
    if spec.sealed:
        if len(pool) <= spec.batch:
            raise ValueError("sealed pool smaller than one warm-up batch")
        framed = [
            (value, (sub.submission_id, frame(sub, sealed=True)))
            for value, sub in pool[: spec.batch + spec.n_cap]
        ]
        warm, timed = framed[: spec.batch], framed[spec.batch:]
        return Traffic(
            warm=[f for _, f in warm],
            warm_values=[v for v, _ in warm],
            frames=[f for _, f in timed],
            expected=[Status.ACCEPTED] * len(timed),
            values=[v for v, _ in timed],
        )
    prefix = random.Random(f"bench_e2e/{seed}/ids").randbytes(8)

    def honest(index: int):
        value, template = pool[index % len(pool)]
        sid = prefix + index.to_bytes(8, "big")
        return value, _reissue(template, sid)

    warm, warm_values = [], []
    for index in range(spec.batch):
        value, sub = honest(index)
        warm.append((sub.submission_id, frame(sub)))
        warm_values.append(value)
    traffic = Traffic(warm, warm_values, [], [], [])
    lag = -(-2 * spec.window // MIX_PERIOD) + 1  # periods, rounded up
    for i in range(spec.n_cap):
        value, sub = honest(spec.batch + i)
        status = Status.ACCEPTED
        if spec.mixed:
            period, pos = divmod(i, MIX_PERIOD)
            if pos in MIX_CORRUPT:
                sub, value, status = _corrupt(sub), None, Status.REJECTED
            elif pos == MIX_REPLAY:
                target = period - lag
                traffic.frames.append(
                    traffic.frames[target * MIX_PERIOD]
                    if target >= 0 else warm[period % spec.batch]
                )
                traffic.expected.append(Status.REJECTED)
                traffic.values.append(None)
                continue
        traffic.frames.append((sub.submission_id, frame(sub)))
        traffic.expected.append(status)
        traffic.values.append(value)
    return traffic
