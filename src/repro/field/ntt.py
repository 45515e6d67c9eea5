"""Radix-2 number-theoretic transform and evaluation domains.

The SNIP prover needs O(M log M) polynomial arithmetic (Table 2: the
client does ``M log M`` field multiplications).  The paper's prototype
used FFT routines from FLINT via C; this reproduction implements an
iterative in-place radix-2 NTT over the FFT-friendly fields in
:mod:`repro.field.parameters`.

An :class:`EvaluationDomain` is the multiplicative subgroup
``{w^0, w^1, ..., w^{N-1}}`` of order ``N = 2^k``.  The SNIP places the
wire values of the M multiplication gates at the first ``M + 1`` domain
points (index 0 carries the random masking value f(0)/g(0)), so that:

* interpolation and evaluation are NTTs,
* the product polynomial ``h = f * g`` lives on the double-size domain,
  whose *even-indexed* points coincide with the original domain — which
  is exactly what lets servers read multiplication-gate output wires
  straight out of the point-value form of ``h`` (Appendix I,
  "verification without interpolation").
"""

from __future__ import annotations

from typing import Sequence

from repro.field.prime_field import FieldError, PrimeField


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def ntt(field: PrimeField, values: Sequence[int], root: int) -> list[int]:
    """Forward transform: coefficients -> evaluations on the domain of ``root``.

    ``len(values)`` must be a power of two and ``root`` a primitive root
    of unity of exactly that order.  Iterative Cooley-Tukey with
    bit-reversal permutation; all arithmetic on native bigints.
    """
    n = len(values)
    if n < 1 or n & (n - 1) != 0:
        raise FieldError(f"NTT size must be a power of two, got {n}")
    p = field.modulus
    out = list(values)
    if n == 1:
        return out

    # Bit-reversal permutation.
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            out[i], out[j] = out[j], out[i]

    # Butterfly passes with precomputed twiddle tables per stage.
    length = 2
    while length <= n:
        w_len = pow(root, n // length, p)
        half = length >> 1
        # twiddles for this stage
        twiddles = [1] * half
        for i in range(1, half):
            twiddles[i] = (twiddles[i - 1] * w_len) % p
        for start in range(0, n, length):
            for i in range(half):
                lo = out[start + i]
                hi = (out[start + i + half] * twiddles[i]) % p
                out[start + i] = (lo + hi) % p
                out[start + i + half] = (lo - hi) % p
        length <<= 1
    return out


def intt(field: PrimeField, values: Sequence[int], root: int) -> list[int]:
    """Inverse transform: evaluations -> coefficients."""
    n = len(values)
    p = field.modulus
    inv_root = pow(root, -1, p)
    out = ntt(field, values, inv_root)
    n_inv = pow(n, -1, p)
    return [(v * n_inv) % p for v in out]


class EvaluationDomain:
    """The order-``size`` multiplicative subgroup used as an NTT domain.

    Caches the domain points and (per requested ``r``) the Lagrange
    evaluation constants, since the SNIP verifier reuses one ``r`` for
    many submissions (Appendix I fixed-point optimization).
    """

    def __init__(self, field: PrimeField, size: int) -> None:
        if size < 1 or size & (size - 1) != 0:
            raise FieldError(f"domain size must be a power of two, got {size}")
        self.field = field
        self.size = size
        self.root = field.root_of_unity(size)
        p = field.modulus
        points = [1] * size
        for i in range(1, size):
            points[i] = (points[i - 1] * self.root) % p
        self.points: list[int] = points
        self._point_set = set(points)

    def evaluate(self, coeffs: Sequence[int]) -> list[int]:
        """Evaluate a polynomial (degree < size) at every domain point."""
        if len(coeffs) > self.size:
            raise FieldError(
                f"polynomial degree {len(coeffs) - 1} too large for "
                f"domain of size {self.size}"
            )
        padded = list(coeffs) + [0] * (self.size - len(coeffs))
        return ntt(self.field, padded, self.root)

    def interpolate(self, evals: Sequence[int]) -> list[int]:
        """Coefficients of the degree < size polynomial with these values."""
        if len(evals) != self.size:
            raise FieldError(
                f"expected {self.size} evaluations, got {len(evals)}"
            )
        return intt(self.field, evals, self.root)

    def contains_point(self, r: int) -> bool:
        return r % self.field.modulus in self._point_set

    def lagrange_coefficients_at(self, r: int) -> list[int]:
        """Constants ``c_j`` with ``P(r) = sum_j c_j * P(w^j)`` in O(N).

        Closed form over a root-of-unity domain:

            l_j(r) = w^j * (r^N - 1) / (N * (r - w^j))

        ``r`` must lie outside the domain (the SNIP verifier resamples
        in the negligible-probability event that it does not; callers
        that *want* a domain point should read the evaluation directly).
        """
        p = self.field.modulus
        r %= p
        if self.contains_point(r):
            raise FieldError("r must lie outside the evaluation domain")
        n = self.size
        r_n_minus_1 = (pow(r, n, p) - 1) % p
        n_inv = pow(n, -1, p)
        scale = (r_n_minus_1 * n_inv) % p
        # Batch-invert the denominators (r - w^j) with Montgomery's trick.
        denoms = [(r - w) % p for w in self.points]
        inverses = batch_inverse(self.field, denoms)
        return [
            (w * scale % p) * inv % p
            for w, inv in zip(self.points, inverses)
        ]


def batch_inverse(field: PrimeField, values: Sequence[int]) -> list[int]:
    """Invert many nonzero elements with one modular inversion.

    Montgomery's trick: prefix products, a single inversion, then a
    backward sweep.  Turns N inversions into 3N multiplications.
    """
    p = field.modulus
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        if v % p == 0:
            raise FieldError("cannot invert zero")
        acc = (acc * v) % p
        prefix[i] = acc
    inv_acc = pow(acc, -1, p)
    out = [0] * n
    for i in range(n - 1, 0, -1):
        out[i] = (prefix[i - 1] * inv_acc) % p
        inv_acc = (inv_acc * values[i]) % p
    out[0] = inv_acc
    return out


def poly_mul_ntt(
    field: PrimeField,
    a: Sequence[int],
    b: Sequence[int],
    force_pure: bool | None = None,
) -> list[int]:
    """Product of two coefficient-form polynomials via NTT, O(n log n).

    When the numpy batch backend is live, the two forward transforms
    run as one two-row batch NTT and the pointwise product and inverse
    transform stay in limb planes; the pure path is the scalar
    transform pair.  Both produce identical canonical coefficients.
    """
    if not a or not b:
        return []
    out_len = len(a) + len(b) - 1
    size = next_power_of_two(out_len)
    domain = EvaluationDomain(field, size)
    from repro.field.batch import BatchVector, use_numpy

    if use_numpy(force_pure):
        padded = [
            list(a) + [0] * (size - len(a)),
            list(b) + [0] * (size - len(b)),
        ]
        evals = BatchVector.from_ints(field, padded, force_pure).ntt(
            domain.root
        )
        product = evals.take_rows([0]) * evals.take_rows([1])
        coeffs = product.intt(domain.root).row_ints(0)[:out_len]
    else:
        ea = domain.evaluate(a)
        eb = domain.evaluate(b)
        p = field.modulus
        product = [(x * y) % p for x, y in zip(ea, eb)]
        coeffs = domain.interpolate(product)[:out_len]
    # Canonical form: strip trailing zeros so results match poly_mul.
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
