"""Tests for the least-squares regression and R^2 AFEs."""

import random

import pytest

np = pytest.importorskip("numpy")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afe import AfeError, LinRegAfe, R2Afe, pair_indices
from repro.field import FIELD87, FIELD265


@pytest.fixture
def rng():
    return random.Random(42424)


def synthetic_dataset(rng, d, n, n_bits, coeffs):
    """Integer dataset approximately following y = c0 + sum c_i x_i."""
    data = []
    max_x = (1 << (n_bits // 2)) - 1
    for _ in range(n):
        x = [rng.randrange(max_x) for _ in range(d)]
        y = coeffs[0] + sum(c * xi for c, xi in zip(coeffs[1:], x))
        y += rng.randrange(-3, 4)
        y = max(0, min((1 << n_bits) - 1, y))
        data.append((x, y))
    return data


def test_pair_indices():
    assert pair_indices(1) == [(0, 0)]
    assert pair_indices(2) == [(0, 0), (0, 1), (1, 1)]
    assert len(pair_indices(5)) == 15


def test_shapes_and_gate_counts():
    afe = LinRegAfe(FIELD87, dimension=2, n_bits=14)
    # moments: 2 + 3 + 1 + 2 = 8; bits: 3*14 = 42
    assert afe.k_prime == 8
    assert afe.k == 8 + 42
    circuit = afe.valid_circuit()
    # products: 3 pairs + 2 cross = 5; bits: 42
    assert circuit.n_mul_gates == 47


def test_1d_recovers_line(rng):
    """The paper's 2-variable example: fit h(x) = c0 + c1 x."""
    afe = LinRegAfe(FIELD87, dimension=1, n_bits=14)
    data = [( [x], 3 * x + 10 ) for x in range(1, 40)]
    encodings = [afe.encode(point) for point in data]
    coeffs = afe.decode(afe.aggregate(encodings), len(data))
    assert abs(coeffs[0] - 10) < 1e-6
    assert abs(coeffs[1] - 3) < 1e-6


@pytest.mark.parametrize("d", [2, 4])
def test_multidimensional_fit_close_to_numpy(d, rng):
    afe = LinRegAfe(FIELD265, dimension=d, n_bits=14)
    true_coeffs = [7] + [rng.randrange(1, 5) for _ in range(d)]
    data = synthetic_dataset(rng, d, 200, 14, true_coeffs)
    encodings = [afe.encode(point) for point in data]
    coeffs = afe.decode(afe.aggregate(encodings), len(data))

    xs = np.array([[1.0] + [float(v) for v in x] for x, _ in data])
    ys = np.array([float(y) for _, y in data])
    reference, *_ = np.linalg.lstsq(xs, ys, rcond=None)
    assert np.allclose(coeffs, reference, atol=1e-6)


def test_encoding_validates(rng):
    afe = LinRegAfe(FIELD87, dimension=2, n_bits=8)
    enc = afe.encode(([10, 20], 55))
    assert afe.check_valid(enc)


def test_faked_cross_moment_rejected():
    """The robustness story of Section 5.3: a malicious client cannot
    claim x*y products that disagree with its x and y."""
    afe = LinRegAfe(FIELD87, dimension=2, n_bits=8)
    enc = afe.encode(([10, 20], 55))
    d = afe.dimension
    # x_i * y cross moments start after d + pairs + 1 entries.
    cross_start = d + len(afe.pairs) + 1
    enc[cross_start] = (enc[cross_start] + 100) % FIELD87.modulus
    assert not afe.check_valid(enc)


def test_faked_pair_moment_rejected():
    afe = LinRegAfe(FIELD87, dimension=2, n_bits=8)
    enc = afe.encode(([10, 20], 55))
    enc[afe.dimension] = (enc[afe.dimension] + 1) % FIELD87.modulus
    assert not afe.check_valid(enc)


def test_out_of_range_feature_rejected():
    afe = LinRegAfe(FIELD87, dimension=1, n_bits=8)
    with pytest.raises(AfeError):
        afe.encode(([256], 0))
    with pytest.raises(AfeError):
        afe.encode(([1, 2], 0))  # wrong arity


def test_singular_system_raises():
    afe = LinRegAfe(FIELD87, dimension=1, n_bits=8)
    # All x identical -> singular normal equations.
    data = [([5], 10), ([5], 12)]
    sigma = afe.aggregate([afe.encode(p) for p in data])
    with pytest.raises(AfeError):
        afe.decode(sigma, len(data))


def test_predict_helper():
    afe = LinRegAfe(FIELD87, dimension=2, n_bits=8)
    assert afe.predict([1.0, 2.0, 3.0], [10, 20]) == 1 + 20 + 60
    with pytest.raises(AfeError):
        afe.predict([1.0], [10, 20])


def test_bad_construction():
    with pytest.raises(AfeError):
        LinRegAfe(FIELD87, dimension=0, n_bits=8)
    with pytest.raises(AfeError):
        LinRegAfe(FIELD87, dimension=1, n_bits=0)


# ----------------------------------------------------------------------
# R^2
# ----------------------------------------------------------------------


def test_r2_perfect_model():
    weights = [2, 3]  # y = 2 + 3x
    afe = R2Afe(FIELD87, weights, n_bits=10)
    data = [([x], 2 + 3 * x) for x in range(1, 20)]
    sigma = afe.aggregate([afe.encode(p) for p in data])
    assert abs(afe.decode(sigma, len(data)) - 1.0) < 1e-9


def test_r2_imperfect_model(rng):
    weights = [0, 2]
    afe = R2Afe(FIELD87, weights, n_bits=12)
    data = []
    for x in range(1, 60):
        noise = rng.randrange(0, 7)
        data.append(([x], 2 * x + noise))
    sigma = afe.aggregate([afe.encode(p) for p in data])
    r2 = afe.decode(sigma, len(data))
    assert 0.9 < r2 < 1.0


def test_r2_encoding_validates():
    afe = R2Afe(FIELD87, [1, 2, 3], n_bits=8)
    enc = afe.encode(([5, 9], 44))
    assert afe.check_valid(enc)
    # Two square-check gates + (d+1)*b bit gates.
    assert afe.valid_circuit().n_mul_gates == 2 + 3 * 8


def test_r2_faked_residual_rejected():
    afe = R2Afe(FIELD87, [1, 2], n_bits=8)
    enc = afe.encode(([7], 15))
    enc[2] = (enc[2] + 1) % FIELD87.modulus
    assert not afe.check_valid(enc)


def test_r2_errors():
    afe = R2Afe(FIELD87, [0, 1], n_bits=8)
    with pytest.raises(AfeError):
        afe.decode([1, 2, 3], 1)  # needs >= 2 clients
    with pytest.raises(AfeError):
        afe.decode([1, 2], 5)  # wrong sigma length
    with pytest.raises(AfeError):
        R2Afe(FIELD87, [1], n_bits=8)  # no slope
    # zero label variance
    data = [([1], 5), ([2], 5)]
    sigma = afe.aggregate([afe.encode(p) for p in data])
    with pytest.raises(AfeError):
        afe.decode(sigma, 2)


@given(
    slope=st.integers(1, 5),
    intercept=st.integers(0, 10),
    n=st.integers(3, 15),
)
@settings(max_examples=30, deadline=None)
def test_1d_regression_property(slope, intercept, n):
    """Exact linear data is recovered exactly (up to float epsilon)."""
    afe = LinRegAfe(FIELD265, dimension=1, n_bits=12)
    data = [([x + 1], intercept + slope * (x + 1)) for x in range(n)]
    sigma = afe.aggregate([afe.encode(p) for p in data])
    if n >= 2:
        coeffs = afe.decode(sigma, n)
        assert abs(coeffs[0] - intercept) < 1e-5
        assert abs(coeffs[1] - slope) < 1e-5
