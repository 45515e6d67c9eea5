"""Beaver-triple MPC: share multiplication and full circuit evaluation.

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``BeaverTriple``, ``BeaverTripleShare``,
``generate_triple``, ``multiply_finalize``, ``multiply_round1``,
``share_triple``, ``run_circuit_mpc``.

Tests only (the parts ``run_circuit_mpc`` runs, which tests drive one
round at a time): ``CircuitMpcParty``, ``MpcResult``,
``mul_gate_levels``.
"""

from repro.mpc.beaver import (
    BeaverTriple,
    BeaverTripleShare,
    generate_triple,
    multiply_finalize,
    multiply_round1,
    share_triple,
)
from repro.mpc.circuit_mpc import (
    CircuitMpcParty,
    MpcResult,
    mul_gate_levels,
    run_circuit_mpc,
)

__all__ = [
    "BeaverTriple",
    "BeaverTripleShare",
    "generate_triple",
    "multiply_finalize",
    "multiply_round1",
    "share_triple",
    "CircuitMpcParty",
    "MpcResult",
    "mul_gate_levels",
    "run_circuit_mpc",
]
