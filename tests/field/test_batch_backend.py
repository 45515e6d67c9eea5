"""Randomized backend-equivalence tests for the batch field backend.

The numpy-CRT-limb backend, the pure-Python fallback, and the scalar
``PrimeField`` ops must agree *exactly* — bit for bit — on every
operation, over every shipped modulus, including edge values (0, 1,
p-1) and non-power-of-two lengths.  These are property-style tests:
each run draws fresh random vectors from a seeded rng.
"""

import os
import random

import pytest

from repro.field import (
    FIELD64,
    FIELD87,
    FIELD265,
    FIELD_SMALL,
    FIELD_TINY,
    GF2,
    BatchVector,
    accumulate_rows,
    butterfly,
    dot_rows,
    dot_rows_multi,
    elementwise_mul_rows,
    intt,
    intt_batch,
    ntt,
    ntt_batch,
    numpy_available,
    poly_eval,
    poly_eval_batch,
    use_numpy,
)
from repro.field.ntt import EvaluationDomain

ALL_FIELDS = [FIELD87, FIELD265, FIELD64, FIELD_SMALL, FIELD_TINY, GF2]
NTT_FIELDS = [FIELD87, FIELD265, FIELD64, FIELD_SMALL, FIELD_TINY]

#: both backends — or just the pure one when numpy is absent / forced off
BACKENDS = [True] + ([False] if use_numpy(None) else [])


def backend_id(force_pure):
    return "pure" if force_pure else "numpy"


@pytest.fixture
def rng():
    return random.Random(0xBA7C4)


def random_vector(field, n, rng):
    """Random canonical vector with the edge values planted."""
    vec = [rng.randrange(field.modulus) for _ in range(n)]
    for i, edge in enumerate([0, 1, field.modulus - 1]):
        if i < n:
            vec[rng.randrange(n)] = edge
    return vec


# Non-power-of-two lengths are deliberate: nothing in the elementwise
# or dot paths may assume padding.
LENGTHS = [1, 3, 31, 100]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_elementwise_matches_scalar(field, force_pure, rng):
    p = field.modulus
    for n in LENGTHS:
        a = random_vector(field, n, rng)
        b = random_vector(field, n, rng)
        va = BatchVector.from_ints(field, a, force_pure=force_pure)
        vb = BatchVector.from_ints(field, b, force_pure=force_pure)
        assert (va + vb).to_ints() == field.vec_add(a, b)
        assert (va - vb).to_ints() == field.vec_sub(a, b)
        assert (-va).to_ints() == field.vec_neg(a)
        assert (va * vb).to_ints() == [
            field.mul(x, y) for x, y in zip(a, b)
        ]
        c = rng.randrange(p)
        assert va.scale(c).to_ints() == field.vec_scale(c, a)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_dot_matches_scalar(field, force_pure, rng):
    for n in LENGTHS:
        a = random_vector(field, n, rng)
        b = random_vector(field, n, rng)
        va = BatchVector.from_ints(field, a, force_pure=force_pure)
        assert va.dot(b) == field.inner_product(a, b)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_dot_rows_multi_matches_scalar(field, force_pure, rng):
    n_rows, width = 9, 41
    rows = [random_vector(field, width, rng) for _ in range(n_rows)]
    weights = [random_vector(field, width, rng) for _ in range(3)]
    expected = [
        [field.inner_product(w, row) for row in rows] for w in weights
    ]
    got = dot_rows_multi(field, weights, rows, force_pure=force_pure)
    assert got == expected
    assert dot_rows(field, weights[0], rows, force_pure=force_pure) == \
        expected[0]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_rowwise_helpers_match_scalar(field, force_pure, rng):
    p = field.modulus
    rows_a = [random_vector(field, 17, rng) for _ in range(6)]
    rows_b = [random_vector(field, 17, rng) for _ in range(6)]
    assert elementwise_mul_rows(field, rows_a, rows_b, force_pure) == [
        [x * y % p for x, y in zip(ra, rb)]
        for ra, rb in zip(rows_a, rows_b)
    ]
    assert accumulate_rows(field, rows_a, force_pure) == \
        field.vec_sum(rows_a)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_non_canonical_inputs_are_canonicalized(field, force_pure):
    p = field.modulus
    weird = [-1, -p, p, p + 5, 2**300 + 17, 0, -(2**90), 7]
    expected = [v % p for v in weird]
    vec = BatchVector.from_ints(field, weird, force_pure=force_pure)
    assert vec.to_ints() == expected
    assert dot_rows(field, [1] * len(weird), [weird],
                    force_pure=force_pure) == [sum(expected) % p]


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_ntt_roundtrip_matches_scalar(field, force_pure, rng):
    for size in (2, 8, 32):
        if size > (1 << field.two_adicity):
            continue
        root = field.root_of_unity(size)
        rows = [random_vector(field, size, rng) for _ in range(5)]
        expected = [ntt(field, row, root) for row in rows]
        got = ntt_batch(field, rows, root, force_pure=force_pure)
        assert got == expected
        back = intt_batch(field, got, root, force_pure=force_pure)
        assert back == rows
        assert back == [intt(field, e, root) for e in expected]


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_evaluation_domain_batch_entry_points(force_pure, rng):
    field = FIELD87
    domain = EvaluationDomain(field, 16)
    coeff_rows = [random_vector(field, rng.randrange(1, 17), rng)
                  for _ in range(7)]
    expected = [domain.evaluate(c) for c in coeff_rows]
    got = domain.evaluate_batch(coeff_rows, force_pure=force_pure)
    assert got == expected
    assert domain.interpolate_batch(got, force_pure=force_pure) == [
        domain.interpolate(e) for e in expected
    ]


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_butterfly_matches_scalar(field, force_pure, rng):
    p = field.modulus
    n = 13
    lo = random_vector(field, n, rng)
    hi = random_vector(field, n, rng)
    w = rng.randrange(1, p)
    vlo = BatchVector.from_ints(field, lo, force_pure=force_pure)
    vhi = BatchVector.from_ints(field, hi, force_pure=force_pure)
    out_lo, out_hi = butterfly(vlo, vhi, w)
    assert out_lo.to_ints() == [(x + w * y) % p for x, y in zip(lo, hi)]
    assert out_hi.to_ints() == [(x - w * y) % p for x, y in zip(lo, hi)]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_poly_eval_batch_matches_scalar(field, force_pure, rng):
    coeff_rows = [
        random_vector(field, rng.randrange(1, 12), rng) for _ in range(8)
    ]
    x = rng.randrange(field.modulus)
    assert poly_eval_batch(field, coeff_rows, x, force_pure=force_pure) == [
        poly_eval(field, c, x) for c in coeff_rows
    ]


@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_long_dot_exercises_chunking(force_pure, rng):
    """Dots longer than the lazy-accumulation window must still be exact."""
    field = FIELD64  # smallest max_dot_terms of the shipped fields
    n = 70_001      # odd, and far beyond one chunk
    a = random_vector(field, n, rng)
    b = random_vector(field, n, rng)
    va = BatchVector.from_ints(field, a, force_pure=force_pure)
    assert va.dot(b) == field.inner_product(a, b)


def test_two_backends_agree_when_both_available(rng):
    if not use_numpy(None):
        pytest.skip("numpy backend not active")
    for field in ALL_FIELDS:
        rows = [random_vector(field, 37, rng) for _ in range(5)]
        w = random_vector(field, 37, rng)
        assert dot_rows(field, w, rows, force_pure=False) == \
            dot_rows(field, w, rows, force_pure=True)


def test_force_pure_env_var(rng):
    """REPRO_FORCE_PURE=1 must route auto-selection to the pure backend."""
    field = FIELD87
    vec = [1, 2, 3]
    old = os.environ.get("REPRO_FORCE_PURE")
    os.environ["REPRO_FORCE_PURE"] = "1"
    try:
        assert not use_numpy(None)
        bv = BatchVector.from_ints(field, vec)
        assert bv.backend == "pure"
        assert bv.to_ints() == vec
    finally:
        if old is None:
            del os.environ["REPRO_FORCE_PURE"]
        else:
            os.environ["REPRO_FORCE_PURE"] = old


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_backend_reports_itself():
    if os.environ.get("REPRO_FORCE_PURE") == "1":
        pytest.skip("pure backend forced via environment")
    bv = BatchVector.from_ints(FIELD87, [4, 5])
    assert bv.backend == "numpy"


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_signed_delta_batch_matches_scalar(field, force_pure, rng):
    """The DP noising embedding: (pos - neg) mod p over int64 inputs,
    bit-exact with scalar field arithmetic on both backends, including
    values at and beyond the modulus for small fields."""
    from repro.field.batch import signed_delta_batch

    p = field.modulus
    for n in LENGTHS:
        positives = [rng.randrange(1 << 62) for _ in range(n)]
        negatives = [rng.randrange(1 << 62) for _ in range(n)]
        positives[0] = 0
        negatives[0] = min(n, p - 1)
        batch = signed_delta_batch(
            field, positives, negatives, force_pure=force_pure
        )
        assert batch.shape == (n,)
        assert batch.backend == ("pure" if force_pure else "numpy")
        assert batch.to_ints() == [
            (a - b) % p for a, b in zip(positives, negatives)
        ]


def _adversarial_rows(field, size, rng):
    """Rows that drive the lazy-butterfly value bound to its worst case
    (every sum at its ceiling, every difference at its floor), plus one
    random row."""
    top = field.modulus - 1
    spike = [0] * size
    spike[rng.randrange(size)] = top
    return [
        [top] * size,
        [0] * size,
        [0, top] * (size // 2),
        [top, 0] * (size // 2),
        spike,
        random_vector(field, size, rng),
    ]


def _ntt_sizes(field, largest=4096):
    size = 2
    while size <= min(largest, 1 << field.two_adicity):
        yield size
        size *= 2


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
def test_lazy_ntt_kernel_matches_scalar_on_adversarial_rows(field, rng):
    """The lazy-Montgomery plane NTT against the scalar oracle: every
    shipped modulus, sizes 2..4096, 2-D and 1-D shapes."""
    if not use_numpy(None):
        pytest.skip("exercises the numpy NTT kernel")
    for size in _ntt_sizes(field):
        root = field.root_of_unity(size)
        rows = _adversarial_rows(field, size, rng)
        forward = [ntt(field, row, root) for row in rows]
        inverse = [intt(field, row, root) for row in rows]
        batched = BatchVector.from_ints(field, rows, force_pure=False)
        assert batched.ntt(root).to_ints() == forward
        assert batched.intt(root).to_ints() == inverse
        # 1-D shape, on the rows with the most and the least structure
        for i in (0, len(rows) - 1):
            single = BatchVector.from_ints(field, rows[i], force_pure=False)
            assert single.ntt(root).to_ints() == forward[i]
            assert single.intt(root).to_ints() == inverse[i]


def _coset_oracle(field, f_row, g_row):
    """h on the double domain from the scalar transforms: f*g on the
    even points, a twisted size-N transform pair on the odd points."""
    p = field.modulus
    size = len(f_row)
    root = field.root_of_unity(size)
    w2 = field.root_of_unity(2 * size)

    def odd_points(evals):
        coeffs = intt(field, evals, root)
        return ntt(
            field, [c * pow(w2, k, p) % p for k, c in enumerate(coeffs)], root
        )

    h = [0] * (2 * size)
    h[0::2] = [a * b % p for a, b in zip(f_row, g_row)]
    h[1::2] = [
        a * b % p for a, b in zip(odd_points(f_row), odd_points(g_row))
    ]
    return h


@pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("force_pure", BACKENDS, ids=backend_id)
def test_coset_extend_product_matches_scalar_oracle(field, force_pure, rng):
    from repro.field.batch import coset_extend_product

    def check(f_rows, g_rows):
        got = coset_extend_product(
            BatchVector.from_ints(field, f_rows, force_pure=force_pure),
            BatchVector.from_ints(field, g_rows, force_pure=force_pure),
        )
        assert got.backend == backend_id(force_pure)
        assert got.to_ints() == [
            _coset_oracle(field, f, g) for f, g in zip(f_rows, g_rows)
        ]

    # B = 1, N = 2: the sum1 shape (one mul gate)
    check([random_vector(field, 2, rng)], [random_vector(field, 2, rng)])
    # the 2N domain must exist: N <= 2^(two_adicity - 1)
    largest = min(512, 1 << (field.two_adicity - 1))
    for size in _ntt_sizes(field, largest):
        rows = _adversarial_rows(field, size, rng)
        check(rows, rows[::-1])
    # m + 1 = N/2 + 1: the vec256 shape (N = 512), zero-padded tails
    size = largest
    used = size // 2 + 1
    padded = [
        random_vector(field, used, rng) + [0] * (size - used)
        for _ in range(4)
    ]
    check(padded[:2], padded[2:])


def test_ntt_exact_fallback_on_headroom_starved_modulus():
    """The lazy-butterfly guard must fall back to the exact per-stage
    path — and still match the scalar NTT bit for bit.

    Every shipped modulus leaves lazy headroom, so this builds a
    24-bit NTT-friendly prime (one 24-bit limb, no slack: the guard
    ``(c_in + 2·stages)·p <= base^L`` fails even for canonical input,
    ``c_in = 1``) to exercise the fallback.
    """
    if not use_numpy(None):
        pytest.skip("exercises the numpy NTT kernel")
    from repro.field import PrimeField
    from repro.field.batch import LIMB_BITS, _ctx, coset_extend_product

    field = PrimeField(
        modulus=33 * (1 << 18) + 1, two_adicity=18, generator=10,
        name="F8650753",
    )
    size = 16
    n_stages = size.bit_length() - 1
    # The point of this field: the lazy guard is off at this size.
    assert (1 + 2 * n_stages) * field.modulus > (1 << LIMB_BITS)
    assert not _ctx(field).lazy_ntt_fits(size, 1)
    rng = random.Random(0xFA11)
    rows = [
        [field.rand(rng) for _ in range(size)] for _ in range(5)
    ] + [[0] * size, [field.modulus - 1] * size]
    root = field.root_of_unity(size)
    batched = BatchVector.from_ints(field, rows, force_pure=False)
    assert batched.ntt(root).to_ints() == [
        ntt(field, row, root) for row in rows
    ]
    assert batched.intt(root).to_ints() == [
        intt(field, row, root) for row in rows
    ]
    # The fused prover sweep takes the canonical route on such a field.
    assert coset_extend_product(batched, batched).to_ints() == [
        _coset_oracle(field, row, row) for row in rows
    ]
