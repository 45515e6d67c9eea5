"""Least-squares regression and R^2 AFEs (Sections 5.3, Appendix G).

``LinRegAfe`` trains a d-dimensional linear model without the servers
ever seeing a training example.  Each client holds a feature vector
``x = (x_1..x_d)`` of b-bit integers and a b-bit label y, and encodes

    ( x_1..x_d,                       d      first moments
      {x_i * x_j} for i <= j,         d(d+1)/2   second moments
      y,
      {x_i * y},                      d      cross moments
      bits(x_1)..bits(x_d), bits(y) )        range-check payload

The servers aggregate only the moment prefix (k'); the decoded sums
fill the normal equations (the paper's equation (1), generalized),
which numpy solves for the coefficients.  Valid checks every bit and
every claimed product:  ``(d + 1) * b`` bit-check gates plus
``d(d+1)/2 + d`` product gates.

``R2Afe`` (Appendix G) evaluates a *public* linear model: clients
encode ``(y, y^2, (y - y_hat)^2, x, bits...)`` and the decoded sums
give the R^2 coefficient of determination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

try:  # numpy solves the normal equations; encoding and proving need none
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    np = None

from repro.afe.base import Afe, AfeError, bits_of
from repro.circuit.circuit import Circuit, CircuitBuilder
from repro.circuit.gadgets import assert_binary_decomposition, assert_product
from repro.field.prime_field import PrimeField


def pair_indices(d: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, in row-major order."""
    return [(i, j) for i in range(d) for j in range(i, d)]


class LinRegAfe(Afe):
    """d-dimensional least-squares regression on b-bit features."""

    leakage = (
        "the least-squares coefficients plus the full moment matrix "
        "(feature means, covariance, and feature-label correlations)"
    )

    def __init__(self, field: PrimeField, dimension: int, n_bits: int) -> None:
        if dimension < 1:
            raise AfeError("dimension must be positive")
        if n_bits < 1:
            raise AfeError("need at least one bit")
        self.field = field
        self.dimension = dimension
        self.n_bits = n_bits
        self.pairs = pair_indices(dimension)
        d = dimension
        #: moment prefix: x (d), x_i x_j (d(d+1)/2), y (1), x_i y (d)
        self.n_moments = d + len(self.pairs) + 1 + d
        #: bits: one decomposition per feature and for the label
        self.n_bit_elements = (d + 1) * n_bits
        self.k = self.n_moments + self.n_bit_elements
        self.k_prime = self.n_moments
        self.name = f"linreg-d{dimension}-{n_bits}bit"

    # ------------------------------------------------------------------

    def encode(
        self, value: tuple[Sequence[int], int], rng=None
    ) -> list[int]:
        """``value = (features, label)`` with b-bit integer components."""
        del rng
        features, label = value
        if len(features) != self.dimension:
            raise AfeError(
                f"expected {self.dimension} features, got {len(features)}"
            )
        f = self.field
        out: list[int] = []
        out.extend(features)
        out.extend(f.mul(features[i], features[j]) for i, j in self.pairs)
        out.append(label)
        out.extend(f.mul(x, label) for x in features)
        for x in features:
            out.extend(bits_of(x, self.n_bits))
        out.extend(bits_of(label, self.n_bits))
        return out

    def valid_circuit(self) -> Circuit:
        builder = CircuitBuilder(self.field, name=self.name)
        d = self.dimension
        feature_wires = builder.inputs(d)
        pair_wires = builder.inputs(len(self.pairs))
        label_wire = builder.input()
        cross_wires = builder.inputs(d)
        bit_wires = [builder.inputs(self.n_bits) for _ in range(d + 1)]

        for (i, j), claimed in zip(self.pairs, pair_wires):
            assert_product(builder, feature_wires[i], feature_wires[j], claimed)
        for x_wire, claimed in zip(feature_wires, cross_wires):
            assert_product(builder, x_wire, label_wire, claimed)
        for value_wire, bits in zip(feature_wires + [label_wire], bit_wires):
            assert_binary_decomposition(builder, value_wire, bits)
        return builder.build()

    # ------------------------------------------------------------------

    def moment_sums(self, sigma: Sequence[int], n_clients: int) -> dict:
        """Split the aggregated prefix into named moment sums."""
        if len(sigma) != self.k_prime:
            raise AfeError("wrong sigma length")
        d = self.dimension
        n_pairs = len(self.pairs)
        sum_x = list(sigma[:d])
        sum_xx = list(sigma[d : d + n_pairs])
        sum_y = sigma[d + n_pairs]
        sum_xy = list(sigma[d + n_pairs + 1 :])
        return {
            "n": n_clients,
            "sum_x": sum_x,
            "sum_xx": sum_xx,
            "sum_y": sum_y,
            "sum_xy": sum_xy,
        }

    def decode(self, sigma: Sequence[int], n_clients: int) -> list[float]:
        """Solve the normal equations; returns ``[c_0, c_1, ..., c_d]``.

        The (d+1)x(d+1) system (paper eq. (1) generalized):

            [ n       sum_x^T  ] [c0]   [ sum_y  ]
            [ sum_x   sum_xx   ] [c ] = [ sum_xy ]
        """
        if n_clients < 1:
            raise AfeError("cannot fit a model to zero clients")
        if np is None:
            raise AfeError("solving the normal equations needs numpy")
        m = self.moment_sums(sigma, n_clients)
        d = self.dimension
        size = d + 1
        a = np.zeros((size, size), dtype=float)
        b = np.zeros(size, dtype=float)
        a[0, 0] = float(n_clients)
        for i in range(d):
            a[0, i + 1] = a[i + 1, 0] = float(m["sum_x"][i])
        for (i, j), value in zip(self.pairs, m["sum_xx"]):
            a[i + 1, j + 1] = a[j + 1, i + 1] = float(value)
        b[0] = float(m["sum_y"])
        for i in range(d):
            b[i + 1] = float(m["sum_xy"][i])
        try:
            solution = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise AfeError(f"normal equations are singular: {exc}") from exc
        return [float(c) for c in solution]

    def predict(self, coefficients: Sequence[float], features: Sequence[int]) -> float:
        if len(coefficients) != self.dimension + 1:
            raise AfeError("coefficient vector has wrong length")
        return coefficients[0] + sum(
            c * float(x) for c, x in zip(coefficients[1:], features)
        )


class R2Afe(Afe):
    """R^2 of a fixed public linear model (Appendix G).

    The model is ``y_hat = w_0 + sum_i w_i x_i`` with integer weights
    (fixed-point scaling is the caller's concern).  Encoding:
    ``(y, y^2, (y - y_hat)^2, x_1..x_d, bits(x_i)..., bits(y))``;
    k' = 3 (only the three leading sums aggregate).

    Valid: y^2 via one square gate; the residual square via one more
    (y - y_hat is an affine function of the encoding!); plus range
    checks.  This matches the paper's "only two multiplications" for
    the model checks.
    """

    leakage = (
        "the R^2 coefficient plus the mean and variance of the labels"
    )

    def __init__(
        self,
        field: PrimeField,
        weights: Sequence[int],
        n_bits: int,
    ) -> None:
        if len(weights) < 2:
            raise AfeError("weights must include an intercept and >= 1 slope")
        self.field = field
        self.weights = [w % field.modulus for w in weights]
        self.dimension = len(weights) - 1
        self.n_bits = n_bits
        d = self.dimension
        self.k = 3 + d + (d + 1) * n_bits
        self.k_prime = 3
        self.name = f"r2-d{d}-{n_bits}bit"

    def predict_int(self, features: Sequence[int]) -> int:
        f = self.field
        acc = self.weights[0]
        for w, x in zip(self.weights[1:], features):
            acc = f.add(acc, f.mul(w, x))
        return acc

    def encode(
        self, value: tuple[Sequence[int], int], rng=None
    ) -> list[int]:
        del rng
        features, label = value
        if len(features) != self.dimension:
            raise AfeError("feature vector has wrong length")
        f = self.field
        residual = f.sub(label, self.predict_int(features))
        out = [label, f.mul(label, label), f.mul(residual, residual)]
        out.extend(features)
        for x in features:
            out.extend(bits_of(x, self.n_bits))
        out.extend(bits_of(label, self.n_bits))
        return out

    def valid_circuit(self) -> Circuit:
        builder = CircuitBuilder(self.field, name=self.name)
        y = builder.input()
        y2 = builder.input()
        residual2 = builder.input()
        xs = builder.inputs(self.dimension)
        bit_wires = [builder.inputs(self.n_bits) for _ in range(self.dimension)]
        y_bits = builder.inputs(self.n_bits)

        from repro.circuit.gadgets import assert_square

        assert_square(builder, y, y2)
        # y_hat is affine in the inputs: w0 + sum w_i x_i.
        y_hat = builder.constant(self.weights[0])
        for w, x in zip(self.weights[1:], xs):
            y_hat = builder.add(y_hat, builder.mul_const(w, x))
        residual = builder.sub(y, y_hat)
        assert_square(builder, residual, residual2)
        for x, bits in zip(xs, bit_wires):
            assert_binary_decomposition(builder, x, bits)
        assert_binary_decomposition(builder, y, y_bits)
        return builder.build()

    def decode(self, sigma: Sequence[int], n_clients: int) -> float:
        """R^2 = 1 - sum (y - y_hat)^2 / (n * Var(y))."""
        if len(sigma) != self.k_prime:
            raise AfeError("wrong sigma length")
        if n_clients < 2:
            raise AfeError("R^2 needs at least two clients")
        sum_y, sum_y2, sum_residual2 = sigma
        var_y = Fraction(sum_y2, n_clients) - Fraction(sum_y, n_clients) ** 2
        if var_y == 0:
            raise AfeError("labels have zero variance; R^2 undefined")
        total_ss = float(var_y) * n_clients
        return 1.0 - float(sum_residual2) / total_ss
