"""Figure 6: per-server data transfer per submission vs length.

The paper's punchline figure for SNIPs: a non-leader Prio server
transmits a *constant* number of bytes per submission regardless of
submission length (the d, e, sigma, A broadcasts), while the NIZK
baseline's per-server traffic grows linearly (servers must see the
proofs) and Prio-MPC's grows linearly with a larger constant (Beaver
broadcasts per multiplication gate).

Byte counts here are exact — read off the real wire-format and
protocol objects, not modelled.
"""

import random

import pytest

from baselines.nizk import nizk_server_transfer_bytes
from common import FULL, emit_table, fmt_bytes

from repro.afe import VectorSumAfe
from repro.field import FIELD87
from repro.snip import (
    ServerRandomness,
    build_mpc_submission,
    verify_mpc_submission,
)
from repro.snip.verifier import VerificationOutcome

N_SERVERS = 5
LENGTHS = (4, 16, 64, 256, 1024, 4096, 16384) if FULL else (
    4, 16, 64, 256, 1024,
)
ELEMENT_BYTES = FIELD87.encoded_size


def prio_transfer_bytes() -> int:
    """Non-leader per-submission transmit: the 4 broadcast elements."""
    return VerificationOutcome(True, 0, 0).bytes_broadcast_per_server(FIELD87)


def prio_mpc_transfer_bytes(length: int, rng) -> int:
    afe = VectorSumAfe(FIELD87, length=length, n_bits=1)
    circuit = afe.valid_circuit()
    encoding = afe.encode([1] * length)
    shares = build_mpc_submission(
        FIELD87, circuit.n_mul_gates, encoding, N_SERVERS, rng
    )
    outcome = verify_mpc_submission(
        FIELD87, circuit, shares, ServerRandomness(b"f6")
    )
    assert outcome.accepted
    return outcome.elements_broadcast_per_server * ELEMENT_BYTES


@pytest.fixture(scope="module")
def fig6_data():
    rng = random.Random(66)
    rows = []
    data = {}
    prio_bytes = prio_transfer_bytes()
    for length in LENGTHS:
        mpc_bytes = prio_mpc_transfer_bytes(length, rng)
        nizk_bytes = nizk_server_transfer_bytes(length, N_SERVERS)
        data[length] = (prio_bytes, mpc_bytes, nizk_bytes)
        rows.append([
            length,
            fmt_bytes(prio_bytes),
            fmt_bytes(mpc_bytes),
            fmt_bytes(nizk_bytes),
            f"{nizk_bytes / prio_bytes:.0f}x",
        ])
    emit_table(
        "fig6",
        "Figure 6 — per-server transfer per submission (exact bytes)",
        ["length", "prio", "prio-mpc", "nizk", "nizk/prio"],
        rows,
        notes=[
            "paper: Prio constant (a few hundred bytes incl. framing); "
            "NIZK and Prio-MPC linear; ~4000x gap at large lengths",
        ],
    )
    return data


def test_fig6_prio_transfer_constant(fig6_data):
    values = [v[0] for v in fig6_data.values()]
    assert len(set(values)) == 1  # literally constant


def test_fig6_alternatives_grow_linearly(fig6_data):
    lengths = sorted(fig6_data)
    first, last = lengths[0], lengths[-1]
    growth = last / first
    _, mpc_first, nizk_first = fig6_data[first]
    _, mpc_last, nizk_last = fig6_data[last]
    assert mpc_last > mpc_first * growth / 3
    assert nizk_last == pytest.approx(nizk_first * growth, rel=0.05)


def test_fig6_bandwidth_gap(fig6_data):
    """At the largest measured length the NIZK/Prio gap is large and
    growing toward the paper's 4000x (reached at 2^14+)."""
    lengths = sorted(fig6_data)
    prio_b, _, nizk_b = fig6_data[lengths[-1]]
    assert nizk_b / prio_b > 100 * (lengths[-1] / 4096 if lengths[-1] > 4096 else 1)


def test_fig6_prio_mpc_accounting(benchmark, fig6_data):
    del fig6_data
    rng = random.Random(67)
    benchmark.pedantic(
        prio_mpc_transfer_bytes, args=(64, rng), rounds=3, iterations=1
    )
