"""The shipped field parameters check themselves.

``PrimeField`` leaves primality to the caller and documents
``two_adicity`` as the *largest* ``k`` with ``2^k | p - 1`` and
``generator`` as a generator of the full multiplicative group.  These
tests re-derive all three for every NTT-friendly field in
:mod:`repro.field.parameters` from a hard-coded factorisation of
``p - 1``, so a mistyped modulus, adicity or generator cannot ship.
"""

import random

import pytest

from repro.field import FIELD87, PrimeField, parameters
from repro.sharing.prg import _acceptance_rate

#: The distinct primes dividing ``p - 1``, by field name.
P_MINUS_1_PRIMES = {
    "F87": (2, 181),
    "F265": (2, 7, 74903),
    "F64": (2, 3, 5, 17, 257, 65537),
    "F3329": (2, 13),
    "F97": (2, 3),
}

SHIPPED = [
    value for value in vars(parameters).values()
    if isinstance(value, PrimeField)
]
NTT_FIELDS = [f for f in SHIPPED if f.two_adicity > 0]


def is_probable_prime(n, rounds=40):
    """Miller–Rabin with the first twelve primes plus seeded random
    bases (the fixed bases alone are exact below 3.3 * 10^24)."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = random.Random(n)
    bases = small + tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_every_ntt_field_has_a_factorisation():
    assert sorted(f.name for f in NTT_FIELDS) == sorted(P_MINUS_1_PRIMES)


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
def test_modulus_is_prime(field):
    assert is_probable_prime(field.modulus)


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
def test_two_adicity_is_exact(field):
    p_minus_1 = field.modulus - 1
    assert p_minus_1 % (1 << field.two_adicity) == 0
    assert (p_minus_1 >> field.two_adicity) % 2 == 1


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
def test_generator_generates(field):
    p = field.modulus
    primes = P_MINUS_1_PRIMES[field.name]
    # The hard-coded primes are prime and are all of p - 1's factors.
    rest = p - 1
    for q in primes:
        assert is_probable_prime(q)
        while rest % q == 0:
            rest //= q
    assert rest == 1
    for q in primes:
        assert pow(field.generator, (p - 1) // q, p) != 1


def test_field87_acceptance_is_near_one():
    """Seed expansion keeps almost every 87-bit candidate."""
    assert _acceptance_rate(FIELD87) > 0.999
