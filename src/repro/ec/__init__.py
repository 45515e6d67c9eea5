"""NIST P-256 group, built from scratch (substrate for ``repro.crypto``
and the NIZK baseline in ``benchmarks/baselines/``).

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``GENERATOR``, ``ORDER``, ``EcError``, ``Point``,
``random_scalar``, ``scalar_mult``.

Paper experiments (Table 2 counts public-key operations; the NIZK
baseline's identity ciphertext): ``INFINITY``, ``reset_op_counter``,
``scalar_mult_count``.
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
