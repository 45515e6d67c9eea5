"""Multi-party evaluation of an arithmetic circuit with Beaver triples.

This is the engine behind the *Prio-MPC* variant (Section 4.4 /
Appendix E): instead of the client proving ``Valid(x) = 1`` with a
SNIP, the servers evaluate the Valid circuit themselves on the shared
input, consuming one client-dealt multiplication triple per
multiplication gate.  Server-to-server traffic is Theta(M) field
elements and the round count is the circuit's multiplicative depth —
both properties the paper's Figure 6 contrasts against the SNIP's
constant traffic.

The evaluation here is synchronous and batched by depth level: all
multiplication gates whose inputs are ready share one broadcast round,
which is what a real pipelined deployment would do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.circuit import Circuit, CircuitError, Op
from repro.field.prime_field import PrimeField
from repro.mpc.beaver import BeaverTripleShare, multiply_finalize, multiply_round1


@dataclass
class MpcResult:
    """Outcome of a multi-party circuit evaluation at one server."""

    assertion_shares: list[int]
    n_rounds: int
    #: field elements this server broadcast (2 per mul gate)
    elements_broadcast: int


def mul_gate_levels(circuit: Circuit) -> list[list[int]]:
    """Group multiplication gates into depth levels.

    A gate's level is one more than the deepest multiplication gate it
    depends on; gates in the same level can be evaluated in a single
    communication round.  Affine gates do not add depth.
    """
    depth = [0] * len(circuit.gates)
    levels: dict[int, list[int]] = {}
    mul_index = 0
    for i, gate in enumerate(circuit.gates):
        if gate.op in (Op.INPUT, Op.CONST):
            depth[i] = 0
        elif gate.op is Op.MUL_CONST:
            depth[i] = depth[gate.left]
        elif gate.op in (Op.ADD, Op.SUB):
            depth[i] = max(depth[gate.left], depth[gate.right])
        else:  # MUL
            level = max(depth[gate.left], depth[gate.right])
            depth[i] = level + 1
            levels.setdefault(level, []).append(mul_index)
            mul_index += 1
    return [levels[k] for k in sorted(levels)]


class CircuitMpcParty:
    """One server's state during a multi-party circuit evaluation.

    Usage is lock-step: the orchestrator calls :meth:`start_round` on
    every party, gathers the returned ``(d, e)`` broadcast lists,
    hands *all* parties' messages to :meth:`finish_round` on each, and
    repeats for every depth level; :meth:`result` yields the party's
    shares of the assertion wires.
    """

    def __init__(
        self,
        field: PrimeField,
        circuit: Circuit,
        server_index: int,
        n_servers: int,
        input_share: Sequence[int],
        triple_shares: Sequence[BeaverTripleShare],
    ) -> None:
        if len(triple_shares) != circuit.n_mul_gates:
            raise CircuitError(
                f"need {circuit.n_mul_gates} triples, got {len(triple_shares)}"
            )
        self.field = field
        self.circuit = circuit
        self.server_index = server_index
        self.n_servers = n_servers
        self.is_leader = server_index == 0
        self.triple_shares = list(triple_shares)
        self.levels = mul_gate_levels(circuit)
        self._elements_broadcast = 0
        self._round = 0

        # Wire shares, filled progressively; affine prefix evaluated now.
        self._wires: list[int | None] = [None] * len(circuit.gates)
        self._mul_gate_wire: list[int] = circuit.mul_gates
        self._inputs = [v % field.modulus for v in input_share]
        self._sweep()

    def _sweep(self) -> None:
        """Fill in every wire whose operands are known (affine closure)."""
        f = self.field
        p = f.modulus
        wires = self._wires
        for i, gate in enumerate(self.circuit.gates):
            if wires[i] is not None:
                continue
            if gate.op is Op.INPUT:
                wires[i] = self._inputs[gate.payload]
            elif gate.op is Op.CONST:
                wires[i] = gate.payload % p if self.is_leader else 0
            elif gate.op is Op.ADD:
                left, right = wires[gate.left], wires[gate.right]
                if left is not None and right is not None:
                    wires[i] = (left + right) % p
            elif gate.op is Op.SUB:
                left, right = wires[gate.left], wires[gate.right]
                if left is not None and right is not None:
                    wires[i] = (left - right) % p
            elif gate.op is Op.MUL_CONST:
                left = wires[gate.left]
                if left is not None:
                    wires[i] = (gate.payload * left) % p
            # MUL gates are filled by finish_round.

    # ------------------------------------------------------------------

    @property
    def n_rounds(self) -> int:
        return len(self.levels)

    def start_round(self) -> list[tuple[int, int]]:
        """Broadcast (d, e) for every mul gate in the current level."""
        if self._round >= len(self.levels):
            raise CircuitError("all rounds already executed")
        messages = []
        for t in self.levels[self._round]:
            gate = self.circuit.gates[self._mul_gate_wire[t]]
            y = self._wires[gate.left]
            z = self._wires[gate.right]
            if y is None or z is None:
                raise CircuitError("mul gate scheduled before inputs ready")
            messages.append(
                multiply_round1(self.field, y, z, self.triple_shares[t])
            )
        self._elements_broadcast += 2 * len(messages)
        return messages

    def finish_round(
        self, all_messages: Sequence[Sequence[tuple[int, int]]]
    ) -> None:
        """Consume every party's round broadcast and fill mul outputs."""
        if len(all_messages) != self.n_servers:
            raise CircuitError("need messages from every server")
        level = self.levels[self._round]
        for j, t in enumerate(level):
            d_shares = [msgs[j][0] for msgs in all_messages]
            e_shares = [msgs[j][1] for msgs in all_messages]
            product_share = multiply_finalize(
                self.field, d_shares, e_shares,
                self.triple_shares[t], self.n_servers,
            )
            self._wires[self._mul_gate_wire[t]] = product_share
        self._round += 1
        self._sweep()

    def result(self) -> MpcResult:
        if self._round != len(self.levels):
            raise CircuitError("evaluation incomplete")
        shares = []
        for w in self.circuit.assertions:
            value = self._wires[w]
            if value is None:
                raise CircuitError("assertion wire never resolved")
            shares.append(value)
        return MpcResult(
            assertion_shares=shares,
            n_rounds=len(self.levels),
            elements_broadcast=self._elements_broadcast,
        )


def run_circuit_mpc(
    field: PrimeField,
    circuit: Circuit,
    input_shares: Sequence[Sequence[int]],
    triple_shares_per_server: Sequence[Sequence[BeaverTripleShare]],
) -> list[MpcResult]:
    """Convenience orchestrator: run all parties lock-step in-process."""
    n_servers = len(input_shares)
    parties = [
        CircuitMpcParty(
            field, circuit, i, n_servers,
            input_shares[i], triple_shares_per_server[i],
        )
        for i in range(n_servers)
    ]
    for _ in range(parties[0].n_rounds):
        broadcasts = [party.start_round() for party in parties]
        for party in parties:
            party.finish_round(broadcasts)
    return [party.result() for party in parties]
