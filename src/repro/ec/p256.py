"""NIST P-256 elliptic-curve group, implemented from scratch.

The paper's NIZK comparison system "uses OpenSSL's NIST P256 code" via
a Go wrapper; with no crypto libraries available offline, this module
provides the same group: the short-Weierstrass curve
``y^2 = x^3 - 3x + b`` over the P-256 prime, with Jacobian-coordinate
arithmetic and two scalar-multiplication kernels that share one mixed
(Jacobian + affine) addition:

* :func:`scalar_mult` — any base.  The scalar is recoded to signed
  width-5 wNAF and walked from the top: one doubling per bit, one
  mixed addition per nonzero digit (~43 of 256) out of the table
  ``Q, 3Q, .., 15Q``, which is made affine with a single inversion.
* :func:`fixed_base_mult` — a base that recurs.  A table of
  ``d * 2^(5i) * Q`` for every 5-bit window ``i`` and digit
  ``d = 1..16`` is built on the first use of ``Q`` and cached; a
  multiplication is then one mixed addition per nonzero signed window
  digit (at most 52) and no doubling at all, about five times faster.
  Only the box *sender* uses it (:func:`repro.crypto.box.seal`: the
  generator and each server's long-term key); servers, signatures and
  the NIZK baseline stay on :func:`scalar_mult` and never pay for a
  table.

Neither kernel is constant-time, and neither was the 4-bit ladder they
replaced: the digits of a secret scalar choose which table entry is
read and whether an addition happens at all, and Python's integers are
variable-time underneath.  That is in keeping with a reproduction whose
subject is the cost of the protocol, not a hardened library.

It serves three consumers:

* :mod:`repro.nizk` — ElGamal bit encryptions and Chaum-Pedersen proofs
  (the baseline Prio is compared against in Figures 4-7);
* :mod:`repro.crypto` — the ECIES "box" construction standing in for
  NaCl box, and Schnorr signatures for client registration;
* benchmarks — exponentiation counts and measured scalar-mult times
  feed Table 2 and the Figure 7 SNARK cost model.

A module-level operation counter records scalar multiplications (one
per call of either kernel) so the benchmarks can report exact
"exponentiation" counts without profiling.
"""

from __future__ import annotations

from dataclasses import dataclass

# Curve parameters (FIPS 186-4, curve P-256).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
#: order of the base point (a prime)
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


class EcError(ValueError):
    """Raised for invalid points or encodings."""


# ----------------------------------------------------------------------
# Operation counting (benchmark instrumentation)
# ----------------------------------------------------------------------

_scalar_mult_count = 0


def reset_op_counter() -> None:
    global _scalar_mult_count
    _scalar_mult_count = 0


def scalar_mult_count() -> int:
    """Scalar multiplications ("exponentiations") since the last reset."""
    return _scalar_mult_count


# ----------------------------------------------------------------------
# Points
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """An affine point; ``Point.INFINITY`` is the group identity."""

    x: int
    y: int
    infinity: bool = False

    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        x, y = self.x, self.y
        return (y * y - (x * x * x + A * x + B)) % P == 0

    def __add__(self, other: "Point") -> "Point":
        return _to_affine(_jac_add(_to_jacobian(self), _to_jacobian(other)))

    def __neg__(self) -> "Point":
        if self.infinity:
            return self
        return Point(self.x, (-self.y) % P)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "Point":
        return scalar_mult(scalar, self)

    # -- serialization -------------------------------------------------

    def encode(self) -> bytes:
        """SEC1 compressed encoding (33 bytes; identity is b'\\x00')."""
        if self.infinity:
            return b"\x00"
        prefix = 0x02 | (self.y & 1)
        return bytes([prefix]) + self.x.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "Point":
        if data == b"\x00":
            return INFINITY
        if len(data) != 33 or data[0] not in (0x02, 0x03):
            raise EcError("bad point encoding")
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise EcError("x out of range")
        rhs = (x * x * x + A * x + B) % P
        # p = 3 (mod 4): sqrt by exponentiation.
        y = pow(rhs, (P + 1) // 4, P)
        if (y * y - rhs) % P != 0:
            raise EcError("point not on curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return cls(x, y)


INFINITY = Point(0, 0, infinity=True)
GENERATOR = Point(GX, GY)


# ----------------------------------------------------------------------
# Jacobian arithmetic (x = X/Z^2, y = Y/Z^3)
# ----------------------------------------------------------------------

_JacPoint = tuple[int, int, int]  # Z == 0 encodes infinity
_AffinePoint = tuple[int, int]  # never the identity

_JAC_INFINITY: _JacPoint = (1, 1, 0)


def _to_jacobian(point: Point) -> _JacPoint:
    if point.infinity:
        return _JAC_INFINITY
    return (point.x, point.y, 1)


def _jac_double(point: _JacPoint) -> _JacPoint:
    x, y, z = point
    if z == 0 or y == 0:
        return _JAC_INFINITY
    # dbl-2001-b (a = -3 specialisation).
    delta = z * z % P
    gamma = y * y % P
    beta = x * gamma % P
    alpha = 3 * (x - delta) * (x + delta) % P
    x3 = (alpha * alpha - 8 * beta) % P
    z3 = ((y + z) * (y + z) - gamma - delta) % P
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % P
    return (x3, y3, z3)


def _jac_add(p1: _JacPoint, p2: _JacPoint) -> _JacPoint:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 % P * z2z2 % P
    s2 = y2 * z1 % P * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return _JAC_INFINITY
        return _jac_double(p1)
    h = (u2 - u1) % P
    i = (2 * h) * (2 * h) % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * s1 * j) % P
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) % P * h % P
    return (x3, y3, z3)


def _jac_add_affine(p1: _JacPoint, q: _AffinePoint) -> _JacPoint:
    """Mixed addition: Jacobian ``p1`` plus the affine, non-identity
    ``q`` (``Z2 == 1`` saves five of the general formula's sixteen
    multiplications).  The one addition both kernels are built on."""
    x1, y1, z1 = p1
    x2, y2 = q
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1 % P * z1z1 - y1) % P
    if h == 0:
        if r != 0:
            return _JAC_INFINITY
        return _jac_double(p1)
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - y1 * hhh) % P
    return (x3, y3, z1 * h % P)


def _affine_many(points: list[_JacPoint]) -> list[_AffinePoint]:
    """Affine ``(x, y)`` of every Jacobian point (none the identity)
    with one field inversion for the whole list (Montgomery's trick:
    invert the running product, then peel it back off; the same sweep
    as :func:`repro.field.ntt.batch_inverse`, fused with the coordinate
    conversion and kept here so the curve imports nothing)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % P
    inv = pow(acc, -1, P)
    out = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        z_inv = inv * before % P
        inv = inv * z % P
        z_inv2 = z_inv * z_inv % P
        out.append((x * z_inv2 % P, y * z_inv2 % P * z_inv % P))
    out.reverse()
    return out


def _to_affine(jac: _JacPoint) -> Point:
    if jac[2] == 0:
        return INFINITY
    return Point(*_affine_many([jac])[0])


# ----------------------------------------------------------------------
# Variable base: signed wNAF over an affine odd-multiple table
# ----------------------------------------------------------------------

_WNAF_WIDTH = 5
_WNAF_MASK = (1 << _WNAF_WIDTH) - 1
_WNAF_HALF = 1 << (_WNAF_WIDTH - 1)


def _wnaf(scalar: int) -> list[int]:
    """Width-5 non-adjacent form, least significant digit first: every
    nonzero digit is odd, below 16 in magnitude, and followed by at
    least four zeros (~43 nonzero digits for a 256-bit scalar)."""
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & _WNAF_MASK
            if digit > _WNAF_HALF:
                digit -= _WNAF_MASK + 1
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    return digits


def _wnaf_ladder(digits: list[int], point: Point) -> _JacPoint:
    """``sum(d * 2^i) * point`` for wNAF ``digits`` (LSB first): one
    inlined doubling per digit, one mixed addition per nonzero digit
    from the table ``point, 3 * point, .., 15 * point``."""
    base = _to_jacobian(point)
    twice = _jac_double(base)
    odd = [base]
    for _ in range(1, _WNAF_HALF // 2):
        odd.append(_jac_add(odd[-1], twice))
    table = _affine_many(odd)
    x, y, z = _JAC_INFINITY
    for digit in reversed(digits):
        if z:
            # dbl-2001-b (a = -3); y == 0 lands on z == 0, the identity
            delta = z * z % P
            gamma = y * y % P
            beta = x * gamma % P
            alpha = 3 * (x - delta) * (x + delta) % P
            z = 2 * y * z % P
            x = (alpha * alpha - 8 * beta) % P
            y = (alpha * (4 * beta - x) - 8 * gamma * gamma) % P
        if digit:
            qx, qy = table[abs(digit) >> 1]
            if digit < 0:
                qy = P - qy
            x, y, z = _jac_add_affine((x, y, z), (qx, qy))
    return (x, y, z)


def scalar_mult(scalar: int, point: Point) -> Point:
    """``scalar * point`` for any base (signed width-5 wNAF)."""
    global _scalar_mult_count
    _scalar_mult_count += 1
    scalar %= ORDER
    if scalar == 0 or point.infinity:
        return INFINITY
    return _to_affine(_wnaf_ladder(_wnaf(scalar), point))


# ----------------------------------------------------------------------
# Fixed base: one table entry per signed window, no doublings
# ----------------------------------------------------------------------

#: Window width of the fixed-base tables.  Row ``i`` of a table holds
#: ``d * 2^(5 i) * base`` for ``d = 1 .. 16`` in affine form; a
#: multiplication recodes the scalar into 52 digits in ``[-15, 16]``
#: and adds one entry (negated for a negative digit) per nonzero digit.
#: Measured on the 2-vCPU benchmark host, table build / multiply in ms:
#: 4 bits 4.3 / 0.33, 5 bits 7.0 / 0.28, 6 bits 11.3 / 0.23.  A sealing
#: client's first submission builds three tables (the generator, two
#: servers); the benchmark's set-up elsewhere gets ~29 ms cheaper (that
#: submission's four multiplications, and the ~130 wNAF ones of key
#: generation and the warm-up batch's opens), so five bits (21 ms of
#: builds) is the widest window that does not make set-up slower.
_FIXED_WIDTH = 5
_FIXED_MASK = (1 << _FIXED_WIDTH) - 1
_FIXED_HALF = 1 << (_FIXED_WIDTH - 1)
#: enough rows that the top digit of a scalar below 2^256 never carries
_FIXED_ROWS = 256 // _FIXED_WIDTH + 1

_FixedTable = list[list[_AffinePoint]]

#: Tables by base point.  A sealing client uses s + 1 bases (the
#: generator and its s servers' keys); a process that cycles through
#: more than the bound starts over rather than grow.
_TABLE_CACHE: dict[Point, _FixedTable] = {}
_TABLE_CACHE_SIZE = 32


def _fixed_base_table(point: Point) -> _FixedTable:
    """The cached table of ``point``, validated and built on a miss."""
    table = _TABLE_CACHE.get(point)
    if table is not None:
        return table
    # The one validation of a fixed base: a multiple of the identity
    # or of an off-curve point is a constant anyone can compute.
    if (
        point.infinity
        or not (0 <= point.x < P and 0 <= point.y < P)
        or not point.is_on_curve()
    ):
        raise EcError("fixed base must be a finite point on the curve")
    jac = []
    base = _to_jacobian(point)
    for _ in range(_FIXED_ROWS):
        row = [base]
        for d in range(2, _FIXED_HALF + 1):
            if d & 1:
                row.append(_jac_add(row[-1], base))
            else:
                row.append(_jac_double(row[d // 2 - 1]))
        jac.extend(row)
        base = _jac_double(row[-1])
    flat = _affine_many(jac)
    table = [
        flat[i:i + _FIXED_HALF] for i in range(0, len(flat), _FIXED_HALF)
    ]
    if len(_TABLE_CACHE) >= _TABLE_CACHE_SIZE:
        _TABLE_CACHE.clear()
    _TABLE_CACHE[point] = table
    return table


def _fixed_base_jacobian(scalar: int, point: Point) -> _JacPoint:
    """``scalar * point`` left in Jacobian form, so a caller with
    several results (the box seal) can share one inversion."""
    global _scalar_mult_count
    table = _fixed_base_table(point)
    _scalar_mult_count += 1
    scalar %= ORDER
    acc = _JAC_INFINITY
    carry = 0
    for row in table:
        digit = (scalar & _FIXED_MASK) + carry
        scalar >>= _FIXED_WIDTH
        carry = digit > _FIXED_HALF
        if carry:
            digit -= _FIXED_MASK + 1
        if digit > 0:
            acc = _jac_add_affine(acc, row[digit - 1])
        elif digit < 0:
            x, y = row[-digit - 1]
            acc = _jac_add_affine(acc, (x, P - y))
    return acc


def fixed_base_mult(scalar: int, point: Point) -> Point:
    """``scalar * point`` for a base that recurs (the generator, a
    server's long-term key): the first call per base builds and caches
    its table, every later one is ~52 mixed additions.

    Raises :class:`EcError` for the identity or an off-curve base.
    """
    return _to_affine(_fixed_base_jacobian(scalar, point))


def multi_scalar_mult(pairs: list[tuple[int, Point]]) -> Point:
    """Sum of scalar multiples (simple loop; adequate for the baseline)."""
    acc = _JAC_INFINITY
    for scalar, point in pairs:
        acc = _jac_add(acc, _to_jacobian(scalar_mult(scalar, point)))
    return _to_affine(acc)


def random_scalar(rng) -> int:
    """A uniform nonzero scalar mod the group order."""
    return rng.randrange(1, ORDER)
