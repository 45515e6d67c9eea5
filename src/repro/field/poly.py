"""Dense polynomial arithmetic over a prime field.

Polynomials are coefficient lists, lowest degree first:
``[c0, c1, c2]`` is ``c0 + c1*x + c2*x^2``.  The zero polynomial is
``[]`` (helpers normalize trailing zeros away).

These routines are the *reference* implementations used by tests and by
small circuits; the SNIP hot path uses the NTT-based routines in
:mod:`repro.field.ntt`, and the two are cross-checked against each
other in the test suite.
"""

from __future__ import annotations

from typing import Sequence

from repro.field.prime_field import FieldError, PrimeField


def poly_normalize(coeffs: Sequence[int]) -> list[int]:
    """Strip trailing zero coefficients (canonical form)."""
    result = list(coeffs)
    while result and result[-1] == 0:
        result.pop()
    return result


def poly_degree(coeffs: Sequence[int]) -> int:
    """Degree of the polynomial; -1 for the zero polynomial."""
    return len(poly_normalize(coeffs)) - 1


def poly_eval(field: PrimeField, coeffs: Sequence[int], x: int) -> int:
    """Evaluate at ``x`` by Horner's rule."""
    p = field.modulus
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_add(
    field: PrimeField, a: Sequence[int], b: Sequence[int]
) -> list[int]:
    p = field.modulus
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return out


def poly_sub(
    field: PrimeField, a: Sequence[int], b: Sequence[int]
) -> list[int]:
    return poly_add(field, a, field.vec_neg(list(b)))


def poly_scale(field: PrimeField, c: int, a: Sequence[int]) -> list[int]:
    return field.vec_scale(c, list(a))


def poly_mul(
    field: PrimeField, a: Sequence[int], b: Sequence[int]
) -> list[int]:
    """Schoolbook product, O(deg(a) * deg(b)).

    Used for small polynomials and as the reference against which the
    NTT product is tested.
    """
    a = poly_normalize(a)
    b = poly_normalize(b)
    if not a or not b:
        return []
    p = field.modulus
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def lagrange_interpolate(
    field: PrimeField, xs: Sequence[int], ys: Sequence[int]
) -> list[int]:
    """Coefficients of the unique degree < n polynomial through the points.

    O(n^2).  This is the generic path the paper's Section 4.2 describes
    ("the servers use polynomial interpolation to construct [f]_i and
    [g]_i"); the production path avoids it via the Appendix I
    optimizations, but small circuits and tests use it directly.
    """
    if len(xs) != len(ys):
        raise FieldError("point count mismatch")
    if len(set(x % field.modulus for x in xs)) != len(xs):
        raise FieldError("interpolation points must be distinct")
    p = field.modulus
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        # numerator polynomial prod_{j != i} (x - x_j), built incrementally
        num = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            num = _mul_linear(field, num, (-xs[j]) % p)
            denom = (denom * (xs[i] - xs[j])) % p
        scale = (ys[i] * pow(denom, -1, p)) % p
        for k, c in enumerate(num):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return poly_normalize(coeffs)


def _mul_linear(field: PrimeField, coeffs: list[int], constant: int) -> list[int]:
    """Multiply ``coeffs`` by the linear factor ``(x + constant)``."""
    p = field.modulus
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] = (out[i] + c * constant) % p
        out[i + 1] = (out[i + 1] + c) % p
    return out


def lagrange_coefficients_at(
    field: PrimeField, xs: Sequence[int], r: int
) -> list[int]:
    """Constants ``c_t`` with ``P(r) = sum_t c_t * P(x_t)``.

    This is the Appendix I "verification without interpolation" trick:
    interpolation-and-evaluation at a *fixed* point ``r`` collapses to a
    precomputable inner product.  O(n^2) here, but computed once per
    choice of ``r`` and amortized over ~2^10 client submissions.
    """
    p = field.modulus
    n = len(xs)
    if len(set(x % p for x in xs)) != n:
        raise FieldError("evaluation points must be distinct")
    out = []
    for i in range(n):
        num = 1
        denom = 1
        for j in range(n):
            if j == i:
                continue
            num = (num * (r - xs[j])) % p
            denom = (denom * (xs[i] - xs[j])) % p
        out.append((num * pow(denom, -1, p)) % p)
    return out
