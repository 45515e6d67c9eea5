"""Standard field parameters for the Prio reproduction.

The paper's prototype benchmarks two FFT-friendly fields (Table 3): an
87-bit field (the default; soundness error (2M+1)/|F| is ~2^-60 for the
largest circuits benchmarked) and a 265-bit field (for deployments that
want to sum very large counters or drive the soundness error below
2^-128 in a single Schwartz-Zippel round).

The original Go/FLINT implementation's exact moduli were not published
in the paper, so this reproduction generated its own with the same
properties.  All parameters below were produced by 40-round
Miller-Rabin searches; the stated generators were checked against the
full factorization of ``p - 1``, and ``tests/field/test_parameters.py``
re-checks primality, exact 2-adicity and every generator.

FIELD87
    ``p = 32761 * 2^72 + 1 = 2^87 - 7 * 2^72 + 1`` (87 bits), with
    ``p - 1 = 2^72 * 181^2`` and generator 3.  2-adicity 72: NTT
    domains far beyond the 2^18 elements the largest benchmark circuit
    needs.  The prime sits just below 2^87 on purpose: PRG seed
    expansion draws uniform 87-bit candidates and rejects those
    ``>= p`` (``sharing.prg``), so acceptance is ``p / 2^87 = 0.99979``
    and almost no PRG output is thrown away (a prime just above 2^86
    would keep only half).  In base 2^24 its limbs are
    ``[1, 0, 0, 0x7ff9]``: ``p = 1 mod 2^24`` and only two limbs are
    non-zero, which keeps the Montgomery reduction's multiply by ``p``
    short.

FIELD265
    ``p = 524321 * 2^245 + 1`` (265 bits, a Proth prime).

FIELD64
    Goldilocks prime ``2^64 - 2^32 + 1``: a fast field for unit tests
    and ablations that do not need the paper's exact widths.

FIELD_SMALL
    ``p = 3329`` (2-adicity 8): small enough to exercise soundness
    *failures* — the Schwartz-Zippel test's (2M+1)/|F| error is
    observable at this size, which the soundness tests exploit.

FIELD_TINY
    ``p = 97``: for exhaustive brute-force checks in tests.

GF2
    The field with two elements.  Additive sharing over GF(2) is XOR
    sharing; the boolean OR/AND AFEs (Section 5.2) aggregate here.
"""

from __future__ import annotations

from repro.field.prime_field import PrimeField

#: 87-bit FFT-friendly field (the paper's default evaluation field).
FIELD87 = PrimeField(
    modulus=32761 * (1 << 72) + 1,
    two_adicity=72,
    generator=3,
    name="F87",
)

#: 265-bit FFT-friendly field (the paper's large evaluation field).
FIELD265 = PrimeField(
    modulus=524321 * (1 << 245) + 1,
    two_adicity=245,
    generator=5,
    name="F265",
)

#: 64-bit Goldilocks field; fast substitute for tests/ablations.
FIELD64 = PrimeField(
    modulus=(1 << 64) - (1 << 32) + 1,
    two_adicity=32,
    generator=7,
    name="F64",
)

#: Small field where soundness error is observable (tests only).
FIELD_SMALL = PrimeField(modulus=3329, two_adicity=8, generator=3, name="F3329")

#: Tiny field for brute-force checks (tests only).
FIELD_TINY = PrimeField(modulus=97, two_adicity=5, generator=5, name="F97")

#: GF(2); sharing here is XOR sharing (boolean OR/AND AFEs).
GF2 = PrimeField(modulus=2, name="GF2")
