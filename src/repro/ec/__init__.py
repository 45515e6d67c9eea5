"""NIST P-256 group, built from scratch (substrate for NIZKs and crypto)."""

from repro.ec.p256 import (
    GENERATOR,
    INFINITY,
    ORDER,
    EcError,
    Point,
    fixed_base_mult,
    multi_scalar_mult,
    random_scalar,
    reset_op_counter,
    scalar_mult,
    scalar_mult_count,
)

__all__ = [
    "GENERATOR",
    "INFINITY",
    "ORDER",
    "EcError",
    "Point",
    "fixed_base_mult",
    "multi_scalar_mult",
    "random_scalar",
    "reset_op_counter",
    "scalar_mult",
    "scalar_mult_count",
]
