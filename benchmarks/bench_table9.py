"""Table 9: five-server cluster rate for d-dimensional regression.

Paper columns, for d in {2, 4, 6, 8, 10, 12}: the no-privacy rate, the
no-robustness rate with its privacy-cost multiple, and the Prio rate
with its robustness-cost multiple and total-cost multiple.

Paper numbers for orientation: no-privacy ~15,000/s flat; privacy cost
~6x; robustness cost 1.0-1.9x growing with d; total cost 5.6-11.6x.
We measure server-side CPU per pipeline (as in Figure 4) on the
5-region WAN topology and print the same columns.
"""

import random

import pytest

from baselines.throughput import (
    PipelineCosts,
    cluster_throughput,
    leader_amortized_tx,
    paper_wan_topology,
)
from common import emit_table, fmt_rate, time_call

from repro.afe import LinRegAfe
from repro.field import FIELD87
from repro.sharing import expand_seed
from repro.snip import (
    ServerRandomness,
    VerificationContext,
    prove_and_share,
    verify_snip,
)
from repro.snip.proof import proof_num_elements

N_SERVERS = 5
N_BITS = 14
DIMENSIONS = (2, 4, 6, 8, 10, 12)
TOPOLOGY = paper_wan_topology()
ELEMENT_BYTES = FIELD87.encoded_size
_SEED = b"\x09" * 16


def accumulate(field, acc, share):
    p = field.modulus
    for i, v in enumerate(share):
        acc[i] = (acc[i] + v) % p


def measure_rates(d, rng):
    afe = LinRegAfe(FIELD87, dimension=d, n_bits=N_BITS)
    example = (
        [rng.randrange(1 << (N_BITS // 2)) for _ in range(d)],
        rng.randrange(1 << N_BITS),
    )
    encoding = afe.encode(example)
    circuit = afe.valid_circuit()

    acc = [0] * afe.k_prime
    accumulate_s = time_call(
        accumulate, FIELD87, acc, encoding[: afe.k_prime]
    )
    no_privacy = PipelineCosts(
        server_cpu_s=accumulate_s,
        server_tx_bytes=64.0,
        server_rx_bytes=afe.k_prime * ELEMENT_BYTES,
    )

    expand_kprime_s = time_call(expand_seed, FIELD87, _SEED, afe.k_prime)
    no_robustness = PipelineCosts(
        server_cpu_s=expand_kprime_s + accumulate_s,
        server_tx_bytes=64.0,
        server_rx_bytes=afe.k_prime * ELEMENT_BYTES,
    )

    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, encoding, N_SERVERS, rng
    )
    ctx = VerificationContext(
        FIELD87, circuit,
        ServerRandomness(rng.randbytes(16)).challenge(FIELD87, circuit, 0),
    )
    assert verify_snip(ctx, x_shares, proof_shares).accepted
    share_elements = afe.k + proof_num_elements(circuit.n_mul_gates)
    prio_cpu = (
        time_call(verify_snip, ctx, x_shares, proof_shares) / N_SERVERS
        + time_call(expand_seed, FIELD87, _SEED, share_elements)
        + accumulate_s
    )
    prio = PipelineCosts(
        server_cpu_s=prio_cpu,
        server_tx_bytes=leader_amortized_tx(4 * ELEMENT_BYTES, N_SERVERS),
        server_rx_bytes=share_elements * ELEMENT_BYTES,
    )
    return {
        "no_privacy": cluster_throughput(no_privacy, TOPOLOGY),
        "no_robustness": cluster_throughput(no_robustness, TOPOLOGY),
        "prio": cluster_throughput(prio, TOPOLOGY),
    }


@pytest.fixture(scope="module")
def table9_data():
    rng = random.Random(99)
    rows = []
    results = {}
    for d in DIMENSIONS:
        rates = measure_rates(d, rng)
        results[d] = rates
        privacy_cost = rates["no_privacy"] / rates["no_robustness"]
        robustness_cost = rates["no_robustness"] / rates["prio"]
        total_cost = rates["no_privacy"] / rates["prio"]
        rows.append([
            d,
            fmt_rate(rates["no_privacy"]),
            fmt_rate(rates["no_robustness"]),
            f"{privacy_cost:.1f}x",
            fmt_rate(rates["prio"]),
            f"{robustness_cost:.1f}x",
            f"{total_cost:.1f}x",
        ])
    emit_table(
        "table9",
        "Table 9 — d-dim regression rates on the 5-server WAN "
        "(submissions/s)",
        ["d", "no-priv rate", "no-robust rate", "priv cost",
         "prio rate", "robust cost", "total cost"],
        rows,
        notes=[
            "paper: privacy cost ~6x flat; robustness cost 1.0x->1.9x "
            "growing with d; total 5.6x->11.6x",
        ],
    )
    return results


def test_table9_costs_grow_with_dimension(table9_data):
    """Robustness cost must grow with d (more gates to verify)."""
    first = table9_data[DIMENSIONS[0]]
    last = table9_data[DIMENSIONS[-1]]
    ratio_first = first["no_robustness"] / first["prio"]
    ratio_last = last["no_robustness"] / last["prio"]
    assert ratio_last > ratio_first


def test_table9_verify_d12(benchmark, table9_data):
    del table9_data
    rng = random.Random(100)
    afe = LinRegAfe(FIELD87, dimension=12, n_bits=N_BITS)
    example = ([5] * 12, 77)
    encoding = afe.encode(example)
    circuit = afe.valid_circuit()
    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, encoding, N_SERVERS, rng
    )
    ctx = VerificationContext(
        FIELD87, circuit,
        ServerRandomness(b"t9").challenge(FIELD87, circuit, 0),
    )
    benchmark.pedantic(
        verify_snip, args=(ctx, x_shares, proof_shares),
        rounds=5, iterations=1,
    )
