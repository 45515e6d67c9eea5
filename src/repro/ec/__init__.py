"""NIST P-256 group, built from scratch (substrate for NIZKs and crypto).

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``GENERATOR``, ``INFINITY``, ``ORDER``, ``EcError``,
``Point``, ``random_scalar``, ``scalar_mult``.

Paper experiments (Table 2 counts public-key operations):
``reset_op_counter``, ``scalar_mult_count``.
"""

from repro.ec.p256 import (
    GENERATOR,
    INFINITY,
    ORDER,
    EcError,
    Point,
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
    "random_scalar",
    "reset_op_counter",
    "scalar_mult",
    "scalar_mult_count",
]
