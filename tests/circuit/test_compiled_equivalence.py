"""Compiled-plan ↔ scalar-oracle differential suite.

``CompiledCircuit.evaluate_batch`` must be *bit-identical* to running
:meth:`Circuit.evaluate` row by row: same mul-input/output wire values,
same assertion-wire values, same per-row Valid verdict — on every
Figure 7 scenario circuit, every shipped NTT-friendly modulus, both
backends, at several batch sizes, for valid *and* invalid encodings
(the scalar oracle defines truth; the plane is checked row for row).

The adversarial half round-trips a batched scenario upload through real
``PrioServer`` instances with one corrupted share row and asserts exact
offender isolation, i.e. the compiled trace feeding the batched prover
does not smear a bad submission across its batch.

Small deterministic cases run in tier-1; the full-catalog batch-64
sweep is ``slow``-marked (run with ``-m slow``).
"""

import random

import pytest

from repro.circuit import (
    CircuitBuilder,
    CircuitError,
    CompiledCircuit,
    compile_circuit,
)
from repro.field import FIELD64, FIELD87, FIELD265, FIELD_SMALL, use_numpy
from repro.field.batch import BatchVector
from repro.protocol import PrioClient, PrioDeployment, PrioServer
from repro.snip import ServerRandomness
from repro.workloads.scenarios import all_scenarios, scenario_by_name

BACKENDS = [True] + ([False] if use_numpy(None) else [])
MODULI = [FIELD_SMALL, FIELD64, FIELD87, FIELD265]
MODULI_IDS = [f.name for f in MODULI]
#: the tier-1 subset: one scenario per workload group, smallest first
FAST_SCENARIOS = ["geneva", "lowres", "beck-21", "heart"]


def backend_id(force_pure):
    return "pure" if force_pure else "numpy"


def _rows(scenario, field, n_valid, n_invalid, rng):
    """n_valid honest encodings + n_invalid perturbed/random rows."""
    afe = scenario.afe
    rows = [
        afe.encode(scenario.generate(rng), rng) for _ in range(n_valid)
    ]
    p = field.modulus
    for i in range(n_invalid):
        if i % 2 == 0 and rows:
            # Perturb one element of a valid encoding.
            row = list(rows[rng.randrange(len(rows))])
            row[rng.randrange(len(row))] += 1 + rng.randrange(p - 1)
            row = [v % p for v in row]
        else:
            row = [rng.randrange(p) for _ in range(afe.k)]
        rows.append(row)
    return rows


def _assert_matches_oracle(field, circuit, plan, rows, force_pure):
    """Row-for-row bit-identity of the whole batch trace."""
    trace = plan.evaluate_batch(rows, force_pure)
    assert len(trace) == len(rows)
    left = trace.mul_inputs_left.to_ints()
    right = trace.mul_inputs_right.to_ints()
    outs = trace.mul_outputs.to_ints()
    asserts = trace.assertion_values.to_ints()
    for i, row in enumerate(rows):
        scalar = circuit.evaluate(field, row)
        assert left[i] == scalar.mul_inputs_left, f"row {i} f-inputs"
        assert right[i] == scalar.mul_inputs_right, f"row {i} g-inputs"
        assert outs[i] == scalar.mul_outputs, f"row {i} mul outputs"
        assert asserts[i] == scalar.assertion_values, f"row {i} assertions"
        assert trace.valid[i] == scalar.is_valid, f"row {i} verdict"
    return trace


# ----------------------------------------------------------------------
# Differential: every scenario circuit vs the scalar interpreter
# ----------------------------------------------------------------------


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("field", MODULI, ids=MODULI_IDS)
@pytest.mark.parametrize("name", FAST_SCENARIOS)
@pytest.mark.parametrize("batch", [1, 2, 7])
def test_compiled_matches_scalar(name, field, force_pure, batch):
    scenario = scenario_by_name(name, field)
    circuit = scenario.afe.valid_circuit()
    plan = compile_circuit(field, circuit)
    # str hash() is randomized per process; derive a stable seed.
    rng = random.Random(sum(map(ord, name)) * 31 + field.modulus % 997 + batch)
    n_invalid = batch // 2
    rows = _rows(scenario, field, batch - n_invalid, n_invalid, rng)
    trace = _assert_matches_oracle(field, circuit, plan, rows, force_pure)
    if n_invalid:
        assert not trace.all_valid
        assert trace.first_invalid() is not None


@pytest.mark.slow
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("field", MODULI, ids=MODULI_IDS)
def test_compiled_matches_scalar_full_catalog(field, force_pure):
    """Every Figure 7 workload, batch 64, valid+invalid mix."""
    rng = random.Random(0xCA7A)
    for scenario in all_scenarios(field):
        circuit = scenario.afe.valid_circuit()
        plan = compile_circuit(field, circuit)
        rows = _rows(scenario, field, 48, 16, rng)
        _assert_matches_oracle(field, circuit, plan, rows, force_pure)


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_batchvector_input_backend_wins(force_pure):
    """A BatchVector input's backend decides the trace backend."""
    field = FIELD87
    scenario = scenario_by_name("beck-21", field)
    circuit = scenario.afe.valid_circuit()
    plan = compile_circuit(field, circuit)
    rng = random.Random(7)
    rows = _rows(scenario, field, 3, 1, rng)
    batch = BatchVector.from_ints(field, rows, force_pure)
    trace = plan.evaluate_batch(batch)
    assert trace.mul_inputs_left.force_pure == batch.force_pure
    _assert_matches_oracle(field, circuit, plan, rows, force_pure)


def test_empty_batch_and_width_mismatch():
    field = FIELD87
    circuit = scenario_by_name("geneva", field).afe.valid_circuit()
    plan = compile_circuit(field, circuit)
    trace = plan.evaluate_batch([])
    assert len(trace) == 0 and trace.all_valid
    with pytest.raises(CircuitError):
        plan.evaluate_batch([[0, 1]])


# ----------------------------------------------------------------------
# Leveled scheduling: multi-level circuits (no Figure 7 circuit has
# multiplicative depth > 1, so pin the general path synthetically)
# ----------------------------------------------------------------------


def _deep_circuit(field):
    """(x+3)^8 == y * x^2 * 2 + z, multiplicative depth 3."""
    b = CircuitBuilder(field, name="deep")
    x, y, z = b.inputs(3)
    t = b.add(x, b.constant(3))
    for _ in range(3):  # t^2, t^4, t^8
        t = b.mul(t, t)
    x2 = b.mul(x, x)
    rhs = b.add(b.mul_const(2, b.mul(y, x2)), z)
    b.assert_equal(t, rhs)
    return b.build()


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("field", MODULI, ids=MODULI_IDS)
def test_multi_level_circuit_matches_scalar(field, force_pure):
    circuit = _deep_circuit(field)
    plan = compile_circuit(field, circuit)
    assert len(plan.levels) == 3
    rng = random.Random(31)
    p = field.modulus
    rows = [
        [rng.randrange(p) for _ in range(3)] for _ in range(9)
    ]
    # Include rows the circuit accepts: z = (x+3)^8 - 2*y*x^2.
    for x, y in [(2, 5), (0, 0), (p - 1, 3)]:
        z = (pow(x + 3, 8, p) - 2 * y * x * x) % p
        rows.append([x, y, z])
    trace = _assert_matches_oracle(field, circuit, plan, rows, force_pure)
    assert sum(trace.valid) >= 3


def test_every_scenario_compiles_flat():
    """All Figure 7 circuits are single-level (pure input gathers)."""
    for scenario in all_scenarios(FIELD87):
        plan = compile_circuit(FIELD87, scenario.afe.valid_circuit())
        assert len(plan.levels) == 1, scenario.name
        assert plan.n_mul_gates == scenario.mul_gates


def test_plan_cache_by_circuit_identity():
    scenario = scenario_by_name("geneva", FIELD87)
    circuit = scenario.afe.valid_circuit()
    assert compile_circuit(FIELD87, circuit) is compile_circuit(
        FIELD87, circuit
    )
    # Same circuit under a different modulus gets its own plan.
    other = compile_circuit(FIELD_SMALL, circuit)
    assert other is not compile_circuit(FIELD87, circuit)
    assert isinstance(other, CompiledCircuit)
    # The AFE's memoized valid_circuit() makes call sites share plans.
    assert scenario.afe.valid_circuit() is circuit


# ----------------------------------------------------------------------
# Adversarial: one corrupted share row in a batched scenario upload
# ----------------------------------------------------------------------


def _corrupt_element(field, packet, element, delta=1):
    """Re-encode one element of an EXPLICIT body shifted by ``delta``."""
    size = field.encoded_size
    body = bytearray(packet.body)
    start = element * size
    value = int.from_bytes(body[start:start + size], "big")
    body[start:start + size] = field.encode_element(
        (value + delta) % field.modulus
    )
    return packet.__class__(
        submission_id=packet.submission_id,
        server_index=packet.server_index,
        kind=packet.kind,
        n_elements=packet.n_elements,
        body=bytes(body),
    )


def _run_batch(servers, submissions):
    """One batch through the batch protocol; per-submission results."""
    afe = servers[0].afe
    with PrioDeployment(
        afe, servers, PrioClient(afe, len(servers)), encrypt=False,
        batch_size=len(submissions), executor="inline",
    ) as deployment:
        return deployment.deliver(submissions)


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_scenario_corrupted_row_rejects_alone(force_pure):
    """One bad share row of a beck-21 batch falls; the rest aggregate."""
    field = FIELD87
    scenario = scenario_by_name("beck-21", field)
    afe = scenario.afe
    rng = random.Random(0xBAD5EED)
    client = PrioClient(afe, 3, rng=random.Random(93))
    values = [scenario.generate(rng) for _ in range(5)]
    submissions = client.prepare_submissions(
        values, force_pure=force_pure
    )
    bad = rng.randrange(len(submissions))
    # Shift one input-share element in the explicit (last) packet.
    submissions[bad].packets[-1] = _corrupt_element(
        field, submissions[bad].packets[-1], rng.randrange(afe.k)
    )
    randomness = ServerRandomness(b"compiled-equivalence")
    servers = [
        PrioServer(afe, i, 3, randomness, force_pure_backend=force_pure)
        for i in range(3)
    ]
    results = _run_batch(servers, submissions)
    assert results == [pos != bad for pos in range(len(submissions))]
    sigma = field.vec_sum([server.publish() for server in servers])
    kept = [v for pos, v in enumerate(values) if pos != bad]
    expected = [
        [
            sum(1 for answers in kept if answers[q] == choice)
            for choice in range(afe.n_choices)
        ]
        for q in range(afe.n_questions)
    ]
    assert afe.decode(sigma, servers[0].n_accepted) == expected
