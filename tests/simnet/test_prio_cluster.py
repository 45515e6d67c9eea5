"""Integration: the full Prio protocol over the simulated WAN.

These tests exercise genuinely asynchronous message delivery — round-1
broadcasts can overtake uploads across transatlantic links — and check
that correctness, robustness, and agreement are timing-independent.
"""

import random

import pytest

from repro.afe import FrequencyCountAfe, IntegerSumAfe
from repro.field import FIELD87
from repro.simnet import paper_wan_topology, same_datacenter
from repro.simnet.prio_cluster import run_cluster


@pytest.fixture
def rng():
    return random.Random(999)


def test_wan_cluster_sums_correctly(rng):
    afe = IntegerSumAfe(FIELD87, 6)
    values = [rng.randrange(64) for _ in range(12)]
    report = run_cluster(afe, paper_wan_topology(), values, rng)
    assert report.n_accepted == 12
    assert report.n_rejected == 0
    assert report.aggregate == sum(values)


def test_same_datacenter_cluster(rng):
    afe = FrequencyCountAfe(FIELD87, 4)
    values = [rng.randrange(4) for _ in range(10)]
    report = run_cluster(afe, same_datacenter(3), values, rng)
    assert report.aggregate is not None
    assert sum(report.aggregate) == 10


def test_cluster_uploads_match_the_scalar_client_oracle():
    """The cluster always proves through the batched client; its
    uploads are bit-identical to the scalar client's under the same
    rng, so the client half changes nothing in the cluster run."""
    from repro.protocol import PrioClient

    afe = IntegerSumAfe(FIELD87, 6)
    values_rng = random.Random(7)
    values = [values_rng.randrange(64) for _ in range(9)]
    oracle = PrioClient(afe, 5, rng=random.Random(31))
    expected = [oracle.prepare_submission(v) for v in values]
    checked = []

    def check(index, submission):
        assert [p.encode() for p in submission.packets] == [
            p.encode() for p in expected[index].packets
        ]
        checked.append(index)

    report = run_cluster(
        afe, paper_wan_topology(), values, random.Random(31), batch_size=4,
        mutate=check,
    )
    assert checked == list(range(9))
    assert report.n_accepted == 9
    assert report.aggregate == sum(values)


def test_replayed_upload_is_refused_by_every_server(rng):
    """A replayed id is refused at group formation everywhere (the
    servers agree, so the group just loses that position); it is
    neither verified again nor counted twice."""
    afe = IntegerSumAfe(FIELD87, 4)
    first = {}

    def replay_last(index, submission):
        if index == 0:
            first["packets"] = list(submission.packets)
        elif index == 3:
            submission.packets[:] = first["packets"]

    report = run_cluster(
        afe, same_datacenter(3), [5, 9, 2, 7], rng, mutate=replay_last,
        batch_size=2,
    )
    assert report.n_accepted == 3
    assert report.n_rejected == 0
    assert report.aggregate == 5 + 9 + 2


def test_wan_latency_dominates_wall_clock(rng):
    """Two broadcast rounds across the WAN: the wall clock must be at
    least two one-way worst-case latencies, and under a second for a
    small batch."""
    afe = IntegerSumAfe(FIELD87, 4)
    report = run_cluster(afe, paper_wan_topology(), [3], rng)
    worst_one_way = 0.079  # Oregon <-> Frankfurt
    assert report.wall_clock_s >= 2 * worst_one_way
    assert report.wall_clock_s < 1.0


def test_datacenter_faster_than_wan(rng):
    afe = IntegerSumAfe(FIELD87, 4)
    wan = run_cluster(afe, paper_wan_topology(), [1, 2], rng)
    lan = run_cluster(
        afe, same_datacenter(5), [1, 2], random.Random(999)
    )
    assert lan.wall_clock_s < wan.wall_clock_s


def test_malicious_submission_rejected_over_wan(rng):
    from repro.protocol.wire import ClientPacket, PacketKind

    afe = IntegerSumAfe(FIELD87, 4)
    values = [5, 9, 2]

    def corrupt_second(index, submission):
        if index != 1:
            return
        packet = submission.packets[-1]
        vec = FIELD87.decode_vector(packet.body)
        vec[0] = (vec[0] + 12345) % FIELD87.modulus
        submission.packets[-1] = ClientPacket(
            submission_id=packet.submission_id,
            server_index=packet.server_index,
            kind=PacketKind.EXPLICIT,
            n_elements=packet.n_elements,
            body=FIELD87.encode_vector(vec),
        )

    report = run_cluster(
        afe, paper_wan_topology(), values, rng, mutate=corrupt_second
    )
    assert report.n_accepted == 2
    assert report.n_rejected == 1
    assert report.aggregate == 5 + 2


def test_servers_agree_under_interleaving(rng):
    """Many submissions in flight at once; every server must reach the
    same accept/reject decisions (asserted inside run_cluster)."""
    afe = IntegerSumAfe(FIELD87, 4)
    values = [rng.randrange(16) for _ in range(30)]
    report = run_cluster(afe, paper_wan_topology(), values, rng)
    assert report.n_accepted == 30


@pytest.mark.parametrize("batch_size", [2, 5, 32])
def test_batched_cluster_matches_unbatched(batch_size):
    """Group-granular verification: outcomes and per-peer byte totals
    must be identical to one-at-a-time verification."""
    afe = IntegerSumAfe(FIELD87, 6)
    values = [random.Random(4).randrange(64) for _ in range(12)]
    base = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999)
    )
    batched = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999),
        batch_size=batch_size,
    )
    assert batched.n_accepted == base.n_accepted == 12
    assert batched.aggregate == base.aggregate == sum(values)
    assert batched.server_tx_bytes == base.server_tx_bytes


def test_batched_cluster_rejects_corruption(rng):
    from repro.protocol.wire import ClientPacket, PacketKind

    afe = IntegerSumAfe(FIELD87, 4)

    def corrupt_third(index, submission):
        if index != 2:
            return
        packet = submission.packets[-1]
        vec = FIELD87.decode_vector(packet.body)
        vec[0] = (vec[0] + 7) % FIELD87.modulus
        submission.packets[-1] = ClientPacket(
            submission_id=packet.submission_id,
            server_index=packet.server_index,
            kind=PacketKind.EXPLICIT,
            n_elements=packet.n_elements,
            body=FIELD87.encode_vector(vec),
        )

    report = run_cluster(
        afe, same_datacenter(3), [5, 9, 2, 7], rng,
        mutate=corrupt_third, batch_size=4,
    )
    assert report.n_accepted == 3
    assert report.n_rejected == 1
    assert report.aggregate == 5 + 9 + 7


def test_byte_accounting_over_wan(rng):
    """Per-peer verification traffic: 4 elements across 2 rounds."""
    afe = IntegerSumAfe(FIELD87, 4)
    n = 10
    report = run_cluster(afe, paper_wan_topology(), [1] * n, rng)
    element = FIELD87.encoded_size
    n_servers = 5
    # Server 1 (a non-leader, no client traffic in this model):
    # 2 rounds x 2 elements to each of 4 peers per submission.
    expected = n * 2 * (2 * element) * (n_servers - 1)
    assert report.server_tx_bytes[1] == expected


@pytest.mark.parametrize("executor", ["inline:2", "process"])
def test_cluster_executor_backends_match_inline(executor):
    """The fan-out backend must be unobservable: same decisions, same
    aggregate, same wire bytes whether each simulated server's CPU work
    runs inline, across two inline shards, or in a dedicated worker
    process."""
    import multiprocessing

    afe = IntegerSumAfe(FIELD87, 6)
    values = [random.Random(11).randrange(64) for _ in range(9)]
    base = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999), batch_size=3
    )
    other = run_cluster(
        afe, paper_wan_topology(), values, random.Random(999),
        batch_size=3, executor=executor,
    )
    assert other.n_accepted == base.n_accepted == 9
    assert other.aggregate == base.aggregate == sum(values)
    assert other.server_tx_bytes == base.server_tx_bytes
    assert other.wall_clock_s == base.wall_clock_s
    assert multiprocessing.active_children() == []


def test_cluster_rejects_foreign_fanout_instances():
    """run_cluster builds its own servers; a caller fanout is bound to
    different ones and would yield a silently empty report."""
    from repro.protocol import PrioDeployment, ProcessFanout
    from repro.simnet.network import SimError

    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 3, rng=random.Random(3)
    )
    fanout = ProcessFanout(deployment.servers)
    try:
        with pytest.raises(SimError, match="owns its servers"):
            run_cluster(
                IntegerSumAfe(FIELD87, 4), same_datacenter(3), [1],
                random.Random(1), executor=fanout,
            )
    finally:
        fanout.close()
