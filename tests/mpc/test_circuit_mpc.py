"""Tests for multi-party circuit evaluation (the Prio-MPC engine)."""

import random

import pytest

from repro.circuit import CircuitBuilder, CircuitError, assert_bit
from repro.field import FIELD87, FIELD_SMALL
from repro.mpc import (
    CircuitMpcParty,
    generate_triple,
    mul_gate_levels,
    run_circuit_mpc,
    share_triple,
)
from repro.sharing import reconstruct_scalar, share_vector


@pytest.fixture
def rng():
    return random.Random(321)


def deal_triples(field, count, n_servers, rng):
    """Client-style dealing: per-gate triples, shared per server."""
    per_gate = [
        share_triple(field, generate_triple(field, rng), n_servers, rng)
        for _ in range(count)
    ]
    return [
        [per_gate[t][i] for t in range(count)] for i in range(n_servers)
    ]


def mpc_check(field, circuit, inputs, n_servers, rng):
    """Run the MPC and return the reconstructed assertion values."""
    input_shares = share_vector(field, inputs, n_servers, rng)
    triples = deal_triples(field, circuit.n_mul_gates, n_servers, rng)
    results = run_circuit_mpc(field, circuit, input_shares, triples)
    n_assert = len(circuit.assertions)
    return [
        reconstruct_scalar(field, [r.assertion_shares[j] for r in results])
        for j in range(n_assert)
    ]


def test_bit_circuit_valid_and_invalid(rng):
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    x = b.input()
    assert_bit(b, x)
    circuit = b.build()
    assert mpc_check(f, circuit, [1], 3, rng) == [0]
    assert mpc_check(f, circuit, [0], 3, rng) == [0]
    assert mpc_check(f, circuit, [5], 3, rng) != [0]


def test_deep_circuit(rng):
    """x^8 via repeated squaring: depth 3, three mul gates."""
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    x = b.input()
    x2 = b.mul(x, x)
    x4 = b.mul(x2, x2)
    x8 = b.mul(x4, x4)
    b.assert_zero(b.sub(x8, b.constant(pow(3, 8, f.modulus))))
    circuit = b.build()
    assert len(mul_gate_levels(circuit)) == 3
    assert mpc_check(f, circuit, [3], 2, rng) == [0]
    assert mpc_check(f, circuit, [4], 2, rng) != [0]


def test_wide_circuit_single_round(rng):
    """Independent mul gates share one communication round."""
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    wires = b.inputs(6)
    for w in wires:
        assert_bit(b, w)
    circuit = b.build()
    levels = mul_gate_levels(circuit)
    assert len(levels) == 1 and len(levels[0]) == 6


def test_levels_respect_dependencies():
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    x, y = b.inputs(2)
    t1 = b.mul(x, y)          # level 0
    t2 = b.mul(t1, x)         # level 1
    t3 = b.mul(y, y)          # level 0
    b.assert_zero(b.add(t2, t3))
    circuit = b.build()
    levels = mul_gate_levels(circuit)
    assert levels == [[0, 2], [1]]


def test_affine_only_circuit_runs_zero_rounds(rng):
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    x, y = b.inputs(2)
    b.assert_zero(b.sub(b.add(x, y), b.constant(10)))
    circuit = b.build()
    assert circuit.n_mul_gates == 0
    assert mpc_check(f, circuit, [4, 6], 3, rng) == [0]
    assert mpc_check(f, circuit, [4, 7], 3, rng) != [0]


def test_bandwidth_accounting(rng):
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    wires = b.inputs(4)
    for w in wires:
        assert_bit(b, w)
    circuit = b.build()
    input_shares = share_vector(f, [1, 0, 1, 1], 2, rng)
    triples = deal_triples(f, 4, 2, rng)
    results = run_circuit_mpc(f, circuit, input_shares, triples)
    # Theta(M) traffic: 2 elements per mul gate per server.
    assert all(r.elements_broadcast == 8 for r in results)


def test_party_rejects_wrong_triple_count(rng):
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    x = b.input()
    assert_bit(b, x)
    circuit = b.build()
    with pytest.raises(CircuitError):
        CircuitMpcParty(f, circuit, 0, 2, [1], [])


def test_party_enforces_round_protocol(rng):
    f = FIELD_SMALL
    b = CircuitBuilder(f)
    x = b.input()
    assert_bit(b, x)
    circuit = b.build()
    triples = deal_triples(f, 1, 2, rng)
    shares = share_vector(f, [1], 2, rng)
    party = CircuitMpcParty(f, circuit, 0, 2, shares[0], triples[0])
    with pytest.raises(CircuitError):
        party.result()  # before any round
    party.start_round()
    with pytest.raises(CircuitError):
        party.finish_round([[(1, 2)]])  # only one server's messages


def test_larger_field_product_chain(rng):
    """Integration: verify a claimed 3-way product over the 87-bit field."""
    f = FIELD87
    b = CircuitBuilder(f)
    x, y, z, claimed = b.inputs(4)
    xy = b.mul(x, y)
    xyz = b.mul(xy, z)
    b.assert_zero(b.sub(xyz, claimed))
    circuit = b.build()
    xv, yv, zv = (f.rand(rng) for _ in range(3))
    good = f.mul(f.mul(xv, yv), zv)
    assert mpc_check(f, circuit, [xv, yv, zv, good], 3, rng) == [0]
    assert mpc_check(f, circuit, [xv, yv, zv, good + 1], 3, rng) != [0]
