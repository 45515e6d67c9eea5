"""Table 2: asymptotic client/server costs — NIZK vs SNARK vs Prio.

The paper's table is analytic (Theta-costs for proving a length-M 0/1
vector).  This bench reproduces it two ways: the asymptotic table
itself, and *measured* operation counts at M = 32 from the real
implementations — exponentiations counted by the EC op counter, proof
sizes read off the actual objects.
"""

import random

import pytest

from baselines.nizk import NizkDeployment, nizk_client_submit
from common import emit_table, fmt_bytes, time_call

from repro.afe import VectorSumAfe
from repro.ec import reset_op_counter, scalar_mult_count
from repro.field import FIELD87
from repro.snip import build_proof, proof_num_elements
from repro.snip.verifier import VerificationOutcome

M = 32


@pytest.fixture(scope="module")
def table2_data():
    rng = random.Random(2)
    afe = VectorSumAfe(FIELD87, length=M, n_bits=1)
    bits = [rng.randrange(2) for _ in range(M)]
    circuit = afe.valid_circuit()

    # --- Prio client: count exps while proving (expect zero). --------
    encoding = afe.encode(bits)
    reset_op_counter()
    proof = build_proof(FIELD87, circuit, encoding, rng)
    prio_client_exps = scalar_mult_count()
    prio_proof_elements = proof_num_elements(circuit.n_mul_gates)
    prio_proof_bytes = prio_proof_elements * FIELD87.encoded_size

    # --- NIZK client: count exps while encrypting + proving. ---------
    deployment = NizkDeployment.create(n_servers=2, length=M, rng=rng)
    reset_op_counter()
    submission = nizk_client_submit(deployment.combined_pub, bits, rng)
    nizk_client_exps = scalar_mult_count()
    nizk_proof_bytes = submission.encoded_size()

    # --- NIZK server: exps to verify one submission. ------------------
    reset_op_counter()
    deployment.servers[0].process(submission)
    nizk_server_exps = scalar_mult_count()

    # --- Prio servers: constant data transfer. ------------------------
    prio_server_transfer = (
        VerificationOutcome(True, 0, 0).bytes_broadcast_per_server(FIELD87)
    )

    asymptotic = emit_table(
        "table2_asymptotic",
        "Table 2 — asymptotic costs (client proves M-element 0/1 vector)",
        ["cost", "NIZK", "SNARK", "Prio (SNIP)"],
        [
            ["client exps", "Th(M)", "Th(M)", "0"],
            ["client muls", "0", "Th(M log M)", "Th(M log M)"],
            ["proof length", "Th(M)", "Th(1)", "Th(M)"],
            ["server exps/pairings", "Th(M)", "Th(1)", "0"],
            ["server muls", "0", "Th(M)", "Th(M log M)"],
            ["server transfer", "Th(M)", "Th(1)", "Th(1)"],
        ],
    )
    measured = emit_table(
        "table2_measured",
        f"Table 2 (measured at M = {M}) — exps counted, sizes exact",
        ["cost", "NIZK", "Prio (SNIP)"],
        [
            ["client exps", nizk_client_exps, prio_client_exps],
            [
                "proof upload",
                fmt_bytes(nizk_proof_bytes),
                fmt_bytes(prio_proof_bytes),
            ],
            ["server exps (verify one)", nizk_server_exps, 0],
            [
                "per-server transfer",
                fmt_bytes(nizk_proof_bytes),  # must see full proof
                fmt_bytes(prio_server_transfer),
            ],
        ],
        notes=[
            f"NIZK exps/element: client {nizk_client_exps / M:.1f}, "
            f"server {nizk_server_exps / M:.1f} (paper model: ~2M exps)",
            "Prio client exps = 0: SNIPs use no public-key operations",
        ],
    )
    del asymptotic, measured
    return {
        "afe": afe,
        "circuit": circuit,
        "encoding": encoding,
        "rng": rng,
        "combined_pub": deployment.combined_pub,
        "bits": bits,
    }


def test_prio_client_prove(benchmark, table2_data):
    d = table2_data
    benchmark.pedantic(
        lambda: build_proof(FIELD87, d["circuit"], d["encoding"], d["rng"]),
        rounds=5, iterations=1,
    )


def test_nizk_client_prove(benchmark, table2_data):
    d = table2_data
    benchmark.pedantic(
        lambda: nizk_client_submit(d["combined_pub"], d["bits"], d["rng"]),
        rounds=1, iterations=1,
    )
