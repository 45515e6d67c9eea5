"""NIST P-256 group, built from scratch (the box's point type and
constants in ``repro.crypto``; the kernel of the NIZK baseline in
``benchmarks/baselines/`` and of the box oracle in ``tests/``).

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``GENERATOR``, ``ORDER``, ``Point``,
``random_scalar``.

Paper experiments (Table 2 counts public-key operations; the NIZK
baseline's identity ciphertext and scalar products; the
``ec.scalar_mult_ms`` probe): ``INFINITY``, ``reset_op_counter``,
``scalar_mult``, ``scalar_mult_count``.
"""

from repro.ec.p256 import (
    GENERATOR,
    INFINITY,
    ORDER,
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
    "Point",
    "random_scalar",
    "reset_op_counter",
    "scalar_mult",
    "scalar_mult_count",
]
