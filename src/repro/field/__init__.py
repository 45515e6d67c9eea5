"""Finite-field substrate: prime fields, polynomials, NTTs — and the
vectorized batch backend.

Everything in Prio — secret sharing, SNIPs, and AFEs — is arithmetic
over a prime field.  This subpackage is self-contained and has no
dependencies on the rest of the library.

Public surface
--------------

This docstring is the one place the exports are listed
(``tests/test_package_surface.py`` compares it with ``__all__`` and
checks that each name sits in the paragraph naming its callers, so a
batch entry point only tests call cannot accumulate unnoticed).

Used in ``src/``: ``FieldError``, ``PrimeField``, ``FIELD64``,
``FIELD87``, ``FIELD265``, ``GF2``, ``EvaluationDomain``,
``next_power_of_two``, ``lagrange_coefficients_at``,
``lagrange_interpolate``, ``poly_eval``, ``poly_mul``,
``poly_mul_ntt``, ``BatchVector``, ``PreparedWeights``,
``assemble_rows``, ``concat_columns``, ``decode_bytes_batch``,
``encode_bytes_batch``, ``rejection_sample_batch``, ``use_numpy``.

Scalar oracles (the references every batch kernel is tested
against): ``ntt``, ``intt``, ``batch_inverse``, ``poly_add``,
``poly_sub``, ``poly_scale``, ``poly_degree``, ``poly_normalize``.

Test fields and backend probes: ``FIELD_SMALL``, ``FIELD_TINY``,
``backend_name``, ``numpy_available``.

Batched verification
--------------------

The scalar :class:`PrimeField` API performs one Python bigint call per
element.  :mod:`repro.field.batch` provides the same arithmetic over
whole vectors (or batches of vectors) at once, which is what the
client's ``prepare_submissions`` and the servers' batched SNIP
verification (the deployment ``batch_size`` knob) are built on:

* **Limb scheme** — the 87-/265-bit moduli don't fit 64-bit lanes, so
  each element is split into base-``2^24`` limbs stored as parallel
  ``int64`` planes.  24-bit limbs keep every limb exactly three bytes
  and leave 15 bits of lazy-reduction headroom: limb products are 48
  bits, so sums of many products wait for a single carry pass +
  vectorized Barrett reduction.  Batched inner products split weight
  limbs into 12-bit halves and run as exact float64 BLAS products
  (every partial sum an integer below ``2^53``).
  Results are always exact canonical representatives — bit-for-bit
  equal to the scalar path (asserted by the randomized equivalence
  suite in ``tests/field/test_batch_backend.py``).

* **Backend selection** — the numpy backend is used when numpy imports
  successfully and ``REPRO_FORCE_PURE=1`` is not set; otherwise a
  pure-Python fallback with identical semantics runs.  Every entry
  point also takes ``force_pure`` for explicit per-call control.

* **The ``batch_size`` knob** — ``PrioDeployment.create(...,
  batch_size=64)`` makes servers verify submissions in batches of 64:
  one float64 BLAS product per share limb plane
  (:func:`~repro.field.batch.dot_batch_planes`) covers every
  (challenge-weights, submission) pair, amortizing fixed
  costs that the one-at-a-time path pays per submission.  Acceptance
  decisions, statistics, and replay protection remain per submission.
"""

from repro.field.prime_field import FieldError, PrimeField
from repro.field.parameters import (
    FIELD64,
    FIELD87,
    FIELD265,
    FIELD_SMALL,
    FIELD_TINY,
    GF2,
)
from repro.field.poly import (
    lagrange_coefficients_at,
    lagrange_interpolate,
    poly_add,
    poly_degree,
    poly_eval,
    poly_mul,
    poly_normalize,
    poly_scale,
    poly_sub,
)
from repro.field.ntt import (
    EvaluationDomain,
    batch_inverse,
    intt,
    next_power_of_two,
    ntt,
    poly_mul_ntt,
)
from repro.field.batch import (
    BatchVector,
    PreparedWeights,
    assemble_rows,
    backend_name,
    concat_columns,
    decode_bytes_batch,
    encode_bytes_batch,
    numpy_available,
    rejection_sample_batch,
    use_numpy,
)

__all__ = [
    "FieldError",
    "PrimeField",
    "FIELD64",
    "FIELD87",
    "FIELD265",
    "FIELD_SMALL",
    "FIELD_TINY",
    "GF2",
    "lagrange_coefficients_at",
    "lagrange_interpolate",
    "poly_add",
    "poly_degree",
    "poly_eval",
    "poly_mul",
    "poly_normalize",
    "poly_scale",
    "poly_sub",
    "EvaluationDomain",
    "batch_inverse",
    "intt",
    "next_power_of_two",
    "ntt",
    "poly_mul_ntt",
    "BatchVector",
    "PreparedWeights",
    "assemble_rows",
    "backend_name",
    "concat_columns",
    "decode_bytes_batch",
    "encode_bytes_batch",
    "numpy_available",
    "rejection_sample_batch",
    "use_numpy",
]
