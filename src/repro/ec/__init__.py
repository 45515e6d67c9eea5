"""NIST P-256 group, built from scratch (substrate for NIZKs and crypto).

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``GENERATOR``, ``INFINITY``, ``ORDER``, ``EcError``,
``Point``, ``random_scalar``, ``scalar_mult``.

Paper experiments (Table 2 counts public-key operations):
``reset_op_counter``, ``scalar_mult_count``.

Tests only (the affine form of the fixed-base ladder that
``repro.crypto.box`` runs in Jacobian form): ``fixed_base_mult``.
"""

from repro.ec.p256 import (
    GENERATOR,
    INFINITY,
    ORDER,
    EcError,
    Point,
    fixed_base_mult,
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
    "random_scalar",
    "reset_op_counter",
    "scalar_mult",
    "scalar_mult_count",
]
