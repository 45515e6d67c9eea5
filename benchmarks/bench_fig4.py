"""Figure 4: cluster throughput vs submission length (five schemes).

The paper's workload: each client submits a vector of 0/1 integers;
five servers (one per region) sum the vectors.  Lines: no-privacy,
no-robustness, Prio, Prio-MPC, NIZK.

Methodology: we *measure* the
per-submission **server-side** CPU of every scheme on this machine —
exactly the work each scheme's server does per submission:

* no-privacy: accumulate the plaintext vector (no checks — the paper's
  "dummy scheme with no privacy protection whatsoever");
* no-robustness: expand the PRG share + accumulate (Section 3 scheme);
* Prio: expand share, reconstruct wires, SNIP rounds, accumulate;
* Prio-MPC: triple SNIP + Beaver evaluation of Valid;
* NIZK: verify one OR-proof per element (measured, extrapolated
  linearly — its cost is exactly per-element).

Transport decryption is excluded uniformly (identical across schemes).
CPU combines with the simulated 5-region WAN via
:func:`baselines.throughput.cluster_throughput`.  The reproducible
claims are the *ratios*: Prio within ~an order of magnitude of
no-privacy, NIZK orders of magnitude below (paper: 5.7x and 267x
respectively).
"""

import random

import pytest

from baselines.nizk import (
    NizkDeployment,
    nizk_client_submit,
    nizk_server_transfer_bytes,
)
from baselines.throughput import (
    PipelineCosts,
    cluster_throughput,
    leader_amortized_tx,
    paper_wan_topology,
)
from common import FULL, emit_table, fmt_rate, time_call

from repro.afe import VectorSumAfe
from repro.field import FIELD87
from repro.sharing import expand_seed
from repro.snip import (
    ServerRandomness,
    VerificationContext,
    build_mpc_submission,
    prove_and_share,
    verify_mpc_submission,
    verify_snip,
)
from repro.snip.proof import proof_num_elements

N_SERVERS = 5
LENGTHS = (16, 64, 256, 1024) if not FULL else (16, 64, 256, 1024, 4096, 16384)
TOPOLOGY = paper_wan_topology()
ELEMENT_BYTES = FIELD87.encoded_size
_SEED = b"\x07" * 16


def accumulate(field, acc, share):
    p = field.modulus
    for i, v in enumerate(share):
        acc[i] = (acc[i] + v) % p


def measure_accumulate(length, rng):
    acc = [0] * length
    share = FIELD87.rand_vector(length, rng)
    return time_call(accumulate, FIELD87, acc, share)


def measure_expand(n_elements):
    return time_call(expand_seed, FIELD87, _SEED, n_elements)


def measure_no_privacy(length, rng):
    cpu = measure_accumulate(length, rng)
    rx = length * ELEMENT_BYTES
    return PipelineCosts(server_cpu_s=cpu, server_tx_bytes=64.0,
                         server_rx_bytes=rx)


def measure_no_robustness(length, rng):
    # A non-last server expands its seed to the truncated share (the
    # no-robustness client shares only the k' aggregated elements),
    # then accumulates.
    cpu = measure_expand(length) + measure_accumulate(length, rng)
    rx = length * ELEMENT_BYTES  # explicit-share server's worst case
    return PipelineCosts(server_cpu_s=cpu, server_tx_bytes=64.0,
                         server_rx_bytes=rx)


def measure_prio(afe, values, rng):
    circuit = afe.valid_circuit()
    encoding = afe.encode(values)
    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, encoding, N_SERVERS, rng
    )
    challenge = ServerRandomness(rng.randbytes(16)).challenge(
        FIELD87, circuit, 0
    )
    ctx = VerificationContext(FIELD87, circuit, challenge)
    assert verify_snip(ctx, x_shares, proof_shares).accepted
    share_elements = afe.k + proof_num_elements(circuit.n_mul_gates)
    # verify_snip runs all 5 parties; per-server CPU is 1/s of it,
    # plus this server's PRG expansion and the accumulate step.
    cpu = (
        time_call(verify_snip, ctx, x_shares, proof_shares) / N_SERVERS
        + measure_expand(share_elements)
        + measure_accumulate(afe.k_prime, rng)
    )
    tx = leader_amortized_tx(4 * ELEMENT_BYTES, N_SERVERS)
    rx = share_elements * ELEMENT_BYTES + 4 * ELEMENT_BYTES * N_SERVERS
    return PipelineCosts(server_cpu_s=cpu, server_tx_bytes=tx,
                         server_rx_bytes=rx)


def measure_prio_mpc(afe, values, rng):
    circuit = afe.valid_circuit()
    encoding = afe.encode(values)
    shares = build_mpc_submission(
        FIELD87, circuit.n_mul_gates, encoding, N_SERVERS, rng
    )
    randomness = ServerRandomness(rng.randbytes(16))
    outcome = verify_mpc_submission(FIELD87, circuit, shares, randomness)
    assert outcome.accepted
    share_elements = (
        afe.k + 3 * circuit.n_mul_gates
        + proof_num_elements(circuit.n_mul_gates)
    )
    cpu = (
        time_call(verify_mpc_submission, FIELD87, circuit, shares, randomness)
        / N_SERVERS
        + measure_expand(share_elements)
        + measure_accumulate(afe.k_prime, rng)
    )
    tx = outcome.elements_broadcast_per_server * ELEMENT_BYTES
    rx = share_elements * ELEMENT_BYTES + tx * (N_SERVERS - 1)
    return PipelineCosts(server_cpu_s=cpu, server_tx_bytes=tx,
                         server_rx_bytes=rx)


def measure_nizk_per_element(rng):
    """Verify cost per vector element (exactly linear, so measure small)."""
    probe = 4
    deployment = NizkDeployment.create(N_SERVERS, probe, rng=rng)
    submission = nizk_client_submit(
        deployment.combined_pub, [1] * probe, rng
    )
    cpu = time_call(deployment.servers[0].process, submission, repeat=1)
    return cpu / probe


@pytest.fixture(scope="module")
def fig4_data():
    rng = random.Random(44)
    nizk_per_element = measure_nizk_per_element(rng)
    rows = []
    all_rates = {}
    for length in LENGTHS:
        afe = VectorSumAfe(FIELD87, length=length, n_bits=1)
        values = [rng.randrange(2) for _ in range(length)]
        schemes = {
            "no-privacy": measure_no_privacy(length, rng),
            "no-robustness": measure_no_robustness(length, rng),
            "prio": measure_prio(afe, values, rng),
            "prio-mpc": measure_prio_mpc(afe, values, rng),
            "nizk": PipelineCosts(
                server_cpu_s=nizk_per_element * length,
                server_tx_bytes=nizk_server_transfer_bytes(length, N_SERVERS),
                server_rx_bytes=nizk_server_transfer_bytes(length, N_SERVERS),
            ),
        }
        rates = {
            name: cluster_throughput(costs, TOPOLOGY)
            for name, costs in schemes.items()
        }
        all_rates[length] = rates
        rows.append(
            [length]
            + [fmt_rate(rates[n]) for n in
               ("no-privacy", "no-robustness", "prio", "prio-mpc", "nizk")]
            + [f"{rates['no-privacy'] / rates['prio']:.1f}x",
               f"{rates['no-privacy'] / rates['nizk']:.0f}x"]
        )
    emit_table(
        "fig4",
        "Figure 4 — modelled throughput (submissions/s) vs submission "
        "length, 5-server WAN",
        ["length", "no-privacy", "no-robust", "prio", "prio-mpc", "nizk",
         "prio cost", "nizk cost"],
        rows,
        notes=[
            "paper: Prio ~5x below no-privacy; NIZK 100-200x below; "
            "Prio-MPC between Prio and NIZK",
            "rates modelled from measured server CPU + simulated WAN; "
            "the ratios are the reproducible quantity",
        ],
    )
    return all_rates


def test_fig4_shape(fig4_data):
    """The orderings the paper's figure shows must hold at every length."""
    for length, rates in fig4_data.items():
        assert rates["no-privacy"] > rates["prio"], length
        assert rates["prio"] > rates["prio-mpc"], length
        assert rates["prio"] > rates["nizk"] * 5, length


def test_fig4_prio_verification_L256(benchmark, fig4_data):
    del fig4_data
    rng = random.Random(45)
    afe = VectorSumAfe(FIELD87, length=256, n_bits=1)
    encoding = afe.encode([1] * 256)
    circuit = afe.valid_circuit()
    x_shares, proof_shares = prove_and_share(
        FIELD87, circuit, encoding, N_SERVERS, rng
    )
    ctx = VerificationContext(
        FIELD87, circuit,
        ServerRandomness(b"bench").challenge(FIELD87, circuit, 0),
    )
    benchmark.pedantic(
        verify_snip, args=(ctx, x_shares, proof_shares),
        rounds=5, iterations=1,
    )
