"""Tests for the from-scratch P-256 implementation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
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
from repro.ec import p256
from repro.ec.p256 import A, B, P


@pytest.fixture
def rng():
    return random.Random(256256)


def test_generator_on_curve():
    assert GENERATOR.is_on_curve()


def test_curve_equation_constants():
    # a = -3 (mod p), the standard P-256 choice.
    assert A == P - 3
    assert (GENERATOR.y**2 - GENERATOR.x**3 - A * GENERATOR.x - B) % P == 0


def test_generator_order():
    assert scalar_mult(ORDER, GENERATOR).infinity
    assert not scalar_mult(ORDER - 1, GENERATOR).infinity


def test_identity_laws(rng):
    p = scalar_mult(random_scalar(rng), GENERATOR)
    assert p + INFINITY == p
    assert INFINITY + p == p
    assert p - p == INFINITY
    assert (-INFINITY) == INFINITY


def test_addition_commutative_and_associative(rng):
    points = [scalar_mult(random_scalar(rng), GENERATOR) for _ in range(3)]
    a, b, c = points
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


def test_scalar_mult_linearity(rng):
    k1, k2 = random_scalar(rng), random_scalar(rng)
    lhs = scalar_mult(k1, GENERATOR) + scalar_mult(k2, GENERATOR)
    rhs = scalar_mult((k1 + k2) % ORDER, GENERATOR)
    assert lhs == rhs


def test_scalar_mult_small_values():
    two_g = scalar_mult(2, GENERATOR)
    assert two_g == GENERATOR + GENERATOR
    assert scalar_mult(0, GENERATOR) == INFINITY
    assert scalar_mult(1, GENERATOR) == GENERATOR


def test_doubling_point_with_y_zero_is_infinity():
    # No P-256 point has y == 0 (x^3 - 3x + b = 0 has no roots), but
    # doubling infinity must stay infinity.
    assert scalar_mult(5, INFINITY) == INFINITY


def test_point_encoding_roundtrip(rng):
    for _ in range(10):
        point = scalar_mult(random_scalar(rng), GENERATOR)
        assert Point.decode(point.encode()) == point
    assert Point.decode(INFINITY.encode()) == INFINITY


def test_encoding_is_compressed():
    assert len(GENERATOR.encode()) == 33


def test_decode_rejects_garbage():
    with pytest.raises(EcError):
        Point.decode(b"\x05" + b"\x00" * 32)
    with pytest.raises(EcError):
        Point.decode(b"\x02" + b"\xff" * 32)  # x >= p
    with pytest.raises(EcError):
        Point.decode(b"\x02" * 10)


def test_decode_rejects_non_curve_x():
    # Find an x with no curve point (about half of all x fail).
    x = 5
    while True:
        candidate = b"\x02" + x.to_bytes(32, "big")
        rhs = (x**3 + A * x + B) % P
        y = pow(rhs, (P + 1) // 4, P)
        if (y * y - rhs) % P != 0:
            with pytest.raises(EcError):
                Point.decode(candidate)
            break
        x += 1


def test_multi_scalar_mult(rng):
    k1, k2 = random_scalar(rng), random_scalar(rng)
    p = scalar_mult(k2, GENERATOR)
    expected = scalar_mult(k1, GENERATOR) + scalar_mult(k2, p)
    assert multi_scalar_mult([(k1, GENERATOR), (k2, p)]) == expected


def test_op_counter(rng):
    reset_op_counter()
    scalar_mult(random_scalar(rng), GENERATOR)
    scalar_mult(random_scalar(rng), GENERATOR)
    assert scalar_mult_count() == 2
    reset_op_counter()
    assert scalar_mult_count() == 0


def test_negation_on_curve(rng):
    p = scalar_mult(random_scalar(rng), GENERATOR)
    assert (-p).is_on_curve()
    assert (-(-p)) == p


@given(k=st.integers(1, 2**64))
@settings(max_examples=20, deadline=None)
def test_double_and_add_consistency(k):
    """k*G equals (k-1)*G + G."""
    assert scalar_mult(k, GENERATOR) == scalar_mult(k - 1, GENERATOR) + GENERATOR


# ----------------------------------------------------------------------
# The two kernels against an affine double-and-add oracle
# ----------------------------------------------------------------------

def _oracle_add(p, q):
    """Textbook affine chord-and-tangent; ``None`` is the identity."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        slope = (3 * x1 * x1 + A) * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    return (x3, (slope * (x1 - x3) - y1) % P)


def _oracle_mult(scalar, point):
    """Right-to-left double-and-add on the unreduced scalar."""
    acc, addend = None, (point.x, point.y)
    while scalar:
        if scalar & 1:
            acc = _oracle_add(acc, addend)
        addend = _oracle_add(addend, addend)
        scalar >>= 1
    return INFINITY if acc is None else Point(*acc)


def _digit_pattern(digit, width, count):
    return sum(digit << (width * i) for i in range(count))


EDGE_SCALARS = (
    [0, 1, 2, 3, ORDER - 2, ORDER - 1, ORDER, ORDER + 1, 2 * ORDER + 5]
    + [1 << k for k in (1, 4, 5, 6, 31, 64, 127, 128, 250, 255, 256)]
    + [(1 << k) - 1 for k in (4, 5, 6, 32, 129, 255, 256, 257)]
    # every fixed-base window the same digit: zero but the top one; the
    # largest without a carry; the one kept positive; the smallest that
    # carries; all ones
    + [1 << 255]
    + [_digit_pattern(d, 5, 51) for d in (15, 16, 17, 31)]
    # every 4-bit and 6-bit window all ones
    + [_digit_pattern(15, 4, 64) % ORDER, _digit_pattern(63, 6, 42)]
)


@pytest.fixture(scope="module")
def some_base():
    return _oracle_mult(0xC0FFEE, GENERATOR)


@pytest.mark.parametrize("scalar", EDGE_SCALARS, ids=hex)
def test_kernels_match_oracle_on_edge_scalars(scalar, some_base):
    for base in (GENERATOR, some_base):
        expected = _oracle_mult(scalar % ORDER, base)
        assert scalar_mult(scalar, base) == expected
        assert fixed_base_mult(scalar, base) == expected


def test_oracle_reaches_the_identity_unreduced():
    # the oracle itself is trusted to know the group order
    assert _oracle_mult(ORDER, GENERATOR) == INFINITY
    assert _oracle_mult(ORDER + 1, GENERATOR) == GENERATOR


def test_kernels_match_oracle_on_random_scalars_and_bases(rng):
    for _ in range(6):
        base = _oracle_mult(random_scalar(rng), GENERATOR)
        assert base.is_on_curve()
        for _ in range(3):
            k = random_scalar(rng)
            expected = _oracle_mult(k, base)
            assert scalar_mult(k, base) == expected
            assert fixed_base_mult(k, base) == expected


@given(k=st.integers(0, 2**300))
@settings(max_examples=40, deadline=None)
def test_fixed_base_equals_variable_base(k, some_base):
    assert fixed_base_mult(k, GENERATOR) == scalar_mult(k, GENERATOR)
    assert fixed_base_mult(k, some_base) == scalar_mult(k, some_base)


def test_wnaf_digits_are_sparse_odd_and_sum_to_the_scalar(rng):
    for scalar in [1, 15, 16, 17, 31, ORDER - 1, random_scalar(rng)]:
        digits = p256._wnaf(scalar)
        assert sum(d << i for i, d in enumerate(digits)) == scalar
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 and abs(digits[i]) < 16 for i in nonzero)
        assert all(b - a >= 5 for a, b in zip(nonzero, nonzero[1:]))


def _rescaled(point, factor):
    """The same point in Jacobian form with ``Z = factor``."""
    return (
        point.x * factor**2 % P, point.y * factor**3 % P, factor % P
    )


def test_mixed_addition_exceptional_cases(some_base):
    q = (some_base.x, some_base.y)
    minus_q = (some_base.x, P - some_base.y)
    same = _rescaled(some_base, 0xABCDEF)
    assert p256._to_affine(p256._jac_add_affine(same, q)) == (
        _oracle_mult(2, some_base)
    )
    assert p256._jac_add_affine(same, minus_q)[2] == 0
    assert p256._jac_add_affine(p256._JAC_INFINITY, q) == (*q, 1)
    other = _rescaled(GENERATOR, 12345)
    assert p256._to_affine(p256._jac_add_affine(other, q)) == (
        GENERATOR + some_base
    )


def test_wnaf_ladder_meets_a_table_entry(monkeypatch):
    """No reduced scalar makes the accumulator equal to the entry it is
    about to add, but the ladder takes any digit string: the wNAF of
    the *unreduced* ``ORDER + 30`` ends in digit 15 with the
    accumulator at ``(ORDER + 15) G = 15 G`` (the doubling branch), and
    that of ``ORDER`` ends in -15 with it at ``15 G`` (the identity)."""
    doublings = []
    real_double = p256._jac_double
    monkeypatch.setattr(
        p256, "_jac_double",
        lambda point: doublings.append(point) or real_double(point),
    )
    digits = p256._wnaf(ORDER + 30)
    assert digits[0] == 15
    assert sum(d << i for i, d in enumerate(digits)) - 15 == ORDER + 15
    result = p256._to_affine(p256._wnaf_ladder(digits, GENERATOR))
    assert result == _oracle_mult(30, GENERATOR)
    # one doubling builds the odd-multiple table, the other is the branch
    assert len(doublings) == 2

    digits = p256._wnaf(ORDER)
    assert digits[0] == -15
    assert p256._wnaf_ladder(digits, GENERATOR)[2] == 0


def test_fixed_base_rejects_invalid_bases():
    with pytest.raises(EcError):
        fixed_base_mult(5, INFINITY)
    with pytest.raises(EcError):
        fixed_base_mult(5, Point(GENERATOR.x, GENERATOR.y + 1))
    # congruent to the generator mod p, but not a canonical encoding
    with pytest.raises(EcError):
        fixed_base_mult(5, Point(GENERATOR.x + P, GENERATOR.y))
    with pytest.raises(EcError):
        fixed_base_mult(5, Point(GENERATOR.x, GENERATOR.y - P))
    # nothing invalid was cached
    assert all(base.is_on_curve() for base in p256._TABLE_CACHE)


def test_fixed_base_table_cache_stays_bounded():
    bound = p256._TABLE_CACHE_SIZE
    base = GENERATOR
    for _ in range(bound + 3):
        base = base + GENERATOR
        assert fixed_base_mult(7, base) == scalar_mult(7, base)
        assert len(p256._TABLE_CACHE) <= bound
    # a base evicted along the way is rebuilt, not lost
    first = GENERATOR + GENERATOR
    assert fixed_base_mult(ORDER - 1, first) == -first


def test_op_counter_counts_one_per_call_of_either_kernel(rng, some_base):
    fixed_base_mult(3, some_base)  # table built outside the count
    reset_op_counter()
    scalar_mult(random_scalar(rng), some_base)
    assert scalar_mult_count() == 1
    fixed_base_mult(random_scalar(rng), some_base)
    assert scalar_mult_count() == 2
    fixed_base_mult(0, GENERATOR)
    scalar_mult(0, INFINITY)
    assert scalar_mult_count() == 4
    reset_op_counter()
    fixed_base_mult(3, _oracle_mult(0xBEEF, GENERATOR))  # builds a table
    assert scalar_mult_count() == 1


def test_table2_exponentiation_counts_unchanged():
    """``benchmarks/bench_table2.py::table2_data`` at M = 32: the NIZK
    baseline's counts are a property of the protocol, not the ladder."""
    from repro.afe import VectorSumAfe
    from repro.field import FIELD87
    from repro.nizk import NizkDeployment, nizk_client_submit
    from repro.snip import build_proof

    m = 32
    rng = random.Random(2)
    afe = VectorSumAfe(FIELD87, length=m, n_bits=1)
    bits = [rng.randrange(2) for _ in range(m)]
    reset_op_counter()
    build_proof(FIELD87, afe.valid_circuit(), afe.encode(bits), rng)
    assert scalar_mult_count() == 0
    deployment = NizkDeployment.create(n_servers=2, length=m, rng=rng)
    reset_op_counter()
    submission = nizk_client_submit(deployment.combined_pub, bits, rng)
    assert scalar_mult_count() == 256
    reset_op_counter()
    deployment.servers[0].process(submission)
    assert scalar_mult_count() == 256


def test_ecdh_agrees_with_openssl(rng):
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.asymmetric import ec

    for _ in range(4):
        ours, theirs = random_scalar(rng), random_scalar(rng)
        their_key = ec.derive_private_key(theirs, ec.SECP256R1())
        their_numbers = their_key.public_key().public_numbers()
        their_point = Point(their_numbers.x, their_numbers.y)
        assert fixed_base_mult(theirs, GENERATOR) == their_point
        assert scalar_mult(theirs, GENERATOR) == their_point
        our_key = ec.derive_private_key(ours, ec.SECP256R1())
        secret = our_key.exchange(ec.ECDH(), their_key.public_key())
        for kernel in (scalar_mult, fixed_base_mult):
            assert kernel(ours, their_point).x.to_bytes(32, "big") == secret
