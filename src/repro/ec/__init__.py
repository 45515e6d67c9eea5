"""NIST P-256 group, built from scratch (the kernel of the NIZK
baseline in ``benchmarks/baselines/`` and of the Table 2 and Figure 7
cost counts; the legacy box oracle in ``tests/`` runs on it too).

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: none (the sealed box runs on X25519).

Paper experiments (Table 2 counts public-key operations; the NIZK
baseline's group, identity ciphertext and scalar products; the
``ec.scalar_mult_ms`` probe): ``GENERATOR``, ``INFINITY``, ``ORDER``,
``Point``, ``random_scalar``, ``reset_op_counter``, ``scalar_mult``,
``scalar_mult_count``.
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
