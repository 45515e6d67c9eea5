"""Arithmetic circuits (Appendix C.1) with the zero-output convention.

A circuit is a DAG over field elements with input, constant, add, sub,
mul, and mul-by-constant gates.  Prio uses circuits to express the
``Valid`` predicate of an AFE; this module follows the Appendix I
"circuit optimization": instead of one wire that must equal 1, a
circuit exposes a list of *assertion wires* that must all equal 0 on a
valid input.  The verifier then checks a single random linear
combination of all assertion wires, which costs no extra
multiplication gates.

Two evaluation modes matter:

* :meth:`Circuit.evaluate` runs on plaintext values (the client/prover
  side, and ordinary testing).  It records the inputs and output of
  every multiplication gate — exactly the wire values the SNIP's
  f, g, h polynomials encode.

* :meth:`Circuit.reconstruct_wire_shares` runs on *additive shares*
  (the server/verifier side).  Multiplication-gate outputs cannot be
  computed locally from shares, so they are supplied by the caller
  (the SNIP verifier reads them out of the point-value form of h);
  every other wire is an affine function of inputs and mul outputs and
  is reconstructed share-locally.  Constants follow the leader
  convention of :func:`repro.sharing.share_of_constant`.

Gate lists are append-only and therefore already in topological order;
multiplication gates are numbered 1..M in that order, matching the
paper's labelling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from repro.field.prime_field import FieldError, PrimeField


class CircuitError(ValueError):
    """Raised for malformed circuits or mismatched evaluation inputs."""


class Op(enum.Enum):
    INPUT = "input"
    CONST = "const"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MUL_CONST = "mul_const"


@dataclass(frozen=True)
class Gate:
    """One gate; ``left``/``right`` are indices of earlier gates.

    For INPUT, ``payload`` is the input position; for CONST and
    MUL_CONST it is the constant (MUL_CONST computes
    ``payload * wire[left]``).
    """

    op: Op
    left: int = -1
    right: int = -1
    payload: int = 0


@dataclass
class EvaluationTrace:
    """Everything the SNIP prover needs from one plaintext evaluation."""

    wire_values: list[int]
    #: (u_t, v_t, w_t) per multiplication gate, topological order.
    mul_inputs_left: list[int] = dc_field(default_factory=list)
    mul_inputs_right: list[int] = dc_field(default_factory=list)
    mul_outputs: list[int] = dc_field(default_factory=list)
    #: values on the assertion wires (all zero iff the input is valid)
    assertion_values: list[int] = dc_field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return all(v == 0 for v in self.assertion_values)


class Circuit:
    """An immutable arithmetic circuit; build with :class:`CircuitBuilder`."""

    def __init__(
        self,
        gates: list[Gate],
        n_inputs: int,
        assertions: list[int],
        name: str = "circuit",
    ) -> None:
        self.gates = gates
        self.n_inputs = n_inputs
        self.assertions = assertions
        self.name = name
        self.mul_gates: list[int] = [
            i for i, g in enumerate(gates) if g.op is Op.MUL
        ]
        self._validate()

    def _validate(self) -> None:
        seen_inputs = set()
        for i, gate in enumerate(self.gates):
            if gate.op is Op.INPUT:
                if gate.payload in seen_inputs:
                    raise CircuitError(f"duplicate input index {gate.payload}")
                if not 0 <= gate.payload < self.n_inputs:
                    raise CircuitError(f"input index {gate.payload} out of range")
                seen_inputs.add(gate.payload)
            if gate.op in (Op.ADD, Op.SUB, Op.MUL):
                if not (0 <= gate.left < i and 0 <= gate.right < i):
                    raise CircuitError(f"gate {i} references a later gate")
            if gate.op is Op.MUL_CONST and not 0 <= gate.left < i:
                raise CircuitError(f"gate {i} references a later gate")
        for wire in self.assertions:
            if not 0 <= wire < len(self.gates):
                raise CircuitError(f"assertion wire {wire} out of range")

    # ------------------------------------------------------------------

    @property
    def n_mul_gates(self) -> int:
        """M, the SNIP cost parameter (proof length ~ 2M)."""
        return len(self.mul_gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={self.n_inputs}, "
            f"gates={len(self.gates)}, muls={self.n_mul_gates}, "
            f"assertions={len(self.assertions)})"
        )

    # ------------------------------------------------------------------
    # Plaintext evaluation (prover side)
    # ------------------------------------------------------------------

    def evaluate(
        self, field: PrimeField, inputs: Sequence[int]
    ) -> EvaluationTrace:
        """Evaluate on plaintext inputs, recording mul-gate wire values."""
        if len(inputs) != self.n_inputs:
            raise CircuitError(
                f"{self.name} expects {self.n_inputs} inputs, got {len(inputs)}"
            )
        p = field.modulus
        values: list[int] = [0] * len(self.gates)
        trace = EvaluationTrace(wire_values=values)
        for i, gate in enumerate(self.gates):
            if gate.op is Op.INPUT:
                values[i] = inputs[gate.payload] % p
            elif gate.op is Op.CONST:
                values[i] = gate.payload % p
            elif gate.op is Op.ADD:
                values[i] = (values[gate.left] + values[gate.right]) % p
            elif gate.op is Op.SUB:
                values[i] = (values[gate.left] - values[gate.right]) % p
            elif gate.op is Op.MUL_CONST:
                values[i] = (gate.payload * values[gate.left]) % p
            else:  # MUL
                u = values[gate.left]
                v = values[gate.right]
                w = (u * v) % p
                values[i] = w
                trace.mul_inputs_left.append(u)
                trace.mul_inputs_right.append(v)
                trace.mul_outputs.append(w)
        trace.assertion_values = [values[w] for w in self.assertions]
        return trace

    def check(self, field: PrimeField, inputs: Sequence[int]) -> bool:
        """True iff all assertion wires evaluate to zero (Valid(x) holds)."""
        return self.evaluate(field, inputs).is_valid

    # ------------------------------------------------------------------
    # Share-local evaluation (verifier side)
    # ------------------------------------------------------------------

    def reconstruct_wire_shares(
        self,
        field: PrimeField,
        input_share: Sequence[int],
        mul_output_shares: Sequence[int],
        is_leader: bool,
    ) -> "WireShares":
        """Derive a share of every wire from input and mul-output shares.

        This is Step 2 of the SNIP (Section 4.2): each server holds a
        share of each input wire and (via the h polynomial) a share of
        each multiplication-gate output wire; every other wire value is
        an affine function of those, so a share of it can be computed
        locally.  Constants are contributed by the leader only.
        """
        if len(input_share) != self.n_inputs:
            raise CircuitError(
                f"{self.name} expects {self.n_inputs} input shares, "
                f"got {len(input_share)}"
            )
        if len(mul_output_shares) != self.n_mul_gates:
            raise CircuitError(
                f"{self.name} has {self.n_mul_gates} mul gates, got "
                f"{len(mul_output_shares)} output shares"
            )
        p = field.modulus
        values: list[int] = [0] * len(self.gates)
        mul_left: list[int] = []
        mul_right: list[int] = []
        mul_index = 0
        for i, gate in enumerate(self.gates):
            if gate.op is Op.INPUT:
                values[i] = input_share[gate.payload] % p
            elif gate.op is Op.CONST:
                values[i] = gate.payload % p if is_leader else 0
            elif gate.op is Op.ADD:
                values[i] = (values[gate.left] + values[gate.right]) % p
            elif gate.op is Op.SUB:
                values[i] = (values[gate.left] - values[gate.right]) % p
            elif gate.op is Op.MUL_CONST:
                values[i] = (gate.payload * values[gate.left]) % p
            else:  # MUL: output supplied, inputs recorded for f/g
                mul_left.append(values[gate.left])
                mul_right.append(values[gate.right])
                values[i] = mul_output_shares[mul_index] % p
                mul_index += 1
        assertion_shares = [values[w] for w in self.assertions]
        return WireShares(
            wire_values=values,
            mul_inputs_left=mul_left,
            mul_inputs_right=mul_right,
            assertion_shares=assertion_shares,
        )


@dataclass
class WireShares:
    """One server's shares of every wire (verifier-side reconstruction)."""

    wire_values: list[int]
    mul_inputs_left: list[int]
    mul_inputs_right: list[int]
    assertion_shares: list[int]


class CircuitBuilder:
    """Incrementally build a :class:`Circuit`.

    Wires are plain integer handles.  The builder folds constants and
    canonicalizes const*wire products into MUL_CONST gates so that only
    genuine variable*variable products consume multiplication gates
    (the quantity SNIP proof size scales with).
    """

    def __init__(self, field: PrimeField, name: str = "circuit") -> None:
        self.field = field
        self.name = name
        self._gates: list[Gate] = []
        self._assertions: list[int] = []
        self._n_inputs = 0
        self._const_cache: dict[int, int] = {}

    # -- wire creation --------------------------------------------------

    def input(self) -> int:
        wire = len(self._gates)
        self._gates.append(Gate(Op.INPUT, payload=self._n_inputs))
        self._n_inputs += 1
        return wire

    def inputs(self, n: int) -> list[int]:
        return [self.input() for _ in range(n)]

    def constant(self, value: int) -> int:
        value %= self.field.modulus
        if value in self._const_cache:
            return self._const_cache[value]
        wire = len(self._gates)
        self._gates.append(Gate(Op.CONST, payload=value))
        self._const_cache[value] = wire
        return wire

    # -- operations ------------------------------------------------------

    def _is_const(self, wire: int) -> bool:
        return self._gates[wire].op is Op.CONST

    def _const_value(self, wire: int) -> int:
        return self._gates[wire].payload

    def add(self, a: int, b: int) -> int:
        if self._is_const(a) and self._is_const(b):
            return self.constant(self._const_value(a) + self._const_value(b))
        wire = len(self._gates)
        self._gates.append(Gate(Op.ADD, left=a, right=b))
        return wire

    def sub(self, a: int, b: int) -> int:
        if self._is_const(a) and self._is_const(b):
            return self.constant(self._const_value(a) - self._const_value(b))
        wire = len(self._gates)
        self._gates.append(Gate(Op.SUB, left=a, right=b))
        return wire

    def mul(self, a: int, b: int) -> int:
        if self._is_const(a) and self._is_const(b):
            return self.constant(self._const_value(a) * self._const_value(b))
        if self._is_const(a):
            return self.mul_const(self._const_value(a), b)
        if self._is_const(b):
            return self.mul_const(self._const_value(b), a)
        wire = len(self._gates)
        self._gates.append(Gate(Op.MUL, left=a, right=b))
        return wire

    def mul_const(self, constant: int, a: int) -> int:
        constant %= self.field.modulus
        if self._is_const(a):
            return self.constant(constant * self._const_value(a))
        if constant == 0:
            return self.constant(0)
        if constant == 1:
            return a
        wire = len(self._gates)
        self._gates.append(Gate(Op.MUL_CONST, left=a, payload=constant))
        return wire

    def linear_combination(
        self, coefficients: Sequence[int], wires: Sequence[int]
    ) -> int:
        """``sum_i c_i * w_i`` using only affine gates.

        Zero-coefficient terms emit no gates at all, constant wires fold
        into a single folded constant, and unit coefficients reuse the
        wire directly (via :meth:`mul_const`) — the common sparse
        selector rows in the workload AFEs cost gates only for the
        entries that are actually live.
        """
        if len(coefficients) != len(wires):
            raise CircuitError("coefficient/wire count mismatch")
        p = self.field.modulus
        const_acc = 0
        acc: int | None = None
        for c, w in zip(coefficients, wires):
            c %= p
            if c == 0:
                continue
            if self._is_const(w):
                const_acc = (const_acc + c * self._const_value(w)) % p
                continue
            term = self.mul_const(c, w)
            acc = term if acc is None else self.add(acc, term)
        if acc is None:
            return self.constant(const_acc)
        if const_acc:
            acc = self.add(acc, self.constant(const_acc))
        return acc

    def wire_sum(self, wires: Sequence[int]) -> int:
        """``sum_i w_i``; constant wires fold into one folded constant."""
        p = self.field.modulus
        const_acc = 0
        acc: int | None = None
        for w in wires:
            if self._is_const(w):
                const_acc = (const_acc + self._const_value(w)) % p
                continue
            acc = w if acc is None else self.add(acc, w)
        if acc is None:
            return self.constant(const_acc)
        if const_acc:
            acc = self.add(acc, self.constant(const_acc))
        return acc

    # -- assertions -------------------------------------------------------

    def assert_zero(self, wire: int) -> None:
        """Require this wire to be 0 on every valid input."""
        if not 0 <= wire < len(self._gates):
            raise CircuitError(f"unknown wire {wire}")
        self._assertions.append(wire)

    def assert_equal(self, a: int, b: int) -> None:
        self.assert_zero(self.sub(a, b))

    def assert_equals_const(self, wire: int, constant: int) -> None:
        self.assert_zero(self.sub(wire, self.constant(constant)))

    # ----------------------------------------------------------------------

    def build(self) -> Circuit:
        if self._n_inputs == 0:
            raise CircuitError("circuit has no inputs")
        if not self._assertions:
            raise CircuitError(
                "circuit has no assertions; a Valid circuit must constrain "
                "its input"
            )
        return Circuit(
            gates=list(self._gates),
            n_inputs=self._n_inputs,
            assertions=list(self._assertions),
            name=self.name,
        )


def batched_assertion_share(
    field: PrimeField,
    assertion_shares: Sequence[int],
    challenge_coefficients: Sequence[int],
) -> int:
    """One server's share of ``sum_j r_j * W_j`` (Appendix I batching).

    Each server applies the same public challenge coefficients to its
    assertion-wire shares; across servers, the combined values sum to
    zero iff (w.h.p.) every assertion wire is zero.
    """
    if len(assertion_shares) != len(challenge_coefficients):
        raise FieldError("challenge length mismatch")
    return field.inner_product(challenge_coefficients, assertion_shares)
