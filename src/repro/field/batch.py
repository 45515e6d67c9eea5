"""Vectorized batch field arithmetic — the throughput backend.

Prio's server cost is dominated by per-submission field arithmetic:
polynomial evaluation inside SNIP checking and share accumulation
(Sections 4-6; the NSDI evaluation's throughput figures all measure
exactly these paths).  The scalar :class:`~repro.field.prime_field.PrimeField`
API performs one Python bigint operation per element; this module
performs the same arithmetic over *whole vectors (or batches of
vectors) at once*, with two interchangeable backends:

numpy limb backend (``"numpy"``)
    The 87-/265-bit moduli do not fit in 64-bit SIMD lanes, so each
    element is split into base-``2^24`` limbs stored as parallel
    ``int64`` planes (shape ``(L, *vector_shape)``).  24-bit limbs —
    rather than the 30-bit limbs a CRT residue system would use — keep
    every limb exactly three bytes (so wire-format bytes convert to
    limbs with pure numpy) and leave 15 bits of headroom per lane:
    limb products are 48 bits, so *lazy reduction* can accumulate
    many products in an ``int64`` lane before a single carry pass.
    Batched inner products (the verifier's round 1) run on BLAS
    instead: weight limbs split into 12-bit halves make every product
    smaller than ``2^36``, so a float64 matrix product per share limb
    plane sums up to ``2^17`` of them exactly, with no lane or summation
    order to worry about.  The prover's NTT puts its short spans on
    BLAS too: matrix levels (radix 8 on FIELD87) whose whole 24-bit limb
    products, at most 32 per output, sum below ``2^53`` against cached
    twiddle matrices, then one Montgomery reduction per level
    (:func:`_ntt_lazy`).
    Canonical reduction mod ``p`` is a
    vectorized Barrett reduction (HAC 14.42 in radix ``2^24``), so
    every op returns exact canonical representatives — the backend is
    bit-for-bit equivalent to the scalar path, which the randomized
    equivalence suite asserts.

pure-Python backend (``"pure"``)
    The same API implemented with scalar bigint loops.  Selected
    automatically when numpy is unavailable, or forced with the
    environment variable ``REPRO_FORCE_PURE=1`` (the CI matrix runs
    the whole test suite both ways).

Backend selection happens at call time via :func:`use_numpy`; every
public entry point also takes ``force_pure`` for explicit control.

The high-level entry point is :class:`BatchVector` (elementwise
add/sub/mul/scale, row sums, NTTs over whole vectors).

Plane-resident ingest
---------------------

Profiling the batched verifier showed that the remaining majority of
server time was not field math but the *crossing*: wire bytes ->
``int.from_bytes`` -> Python bigints -> limb planes, plus one scalar
PRG expansion per seed packet.  The byte codecs here close that gap —
the 24-bit limb radix was chosen so each limb is exactly three wire
bytes.  Limb ``i`` of every fixed-width big-endian record in a joined
byte blob is then one strided big-endian ``u4`` view, ending ``3i``
bytes before each record's end (:func:`_limb_window`), so bytes become
planes with no padded copy, and a range check reads only the top limb
of every record (:func:`_ge_modulus`):

* :func:`decode_bytes_batch` maps concatenated big-endian wire bodies
  straight to ``(L, B, n)`` int64 planes (checked variant rejects
  out-of-range elements; ``check=False`` Barrett-canonicalizes),
* :func:`encode_bytes_batch` is the inverse,
* :func:`rejection_sample_batch` is the vectorized core of the PRG:
  masked top limbs of the stream's candidate records -> ``< p``
  acceptance flags -> each row's first ``n`` survivors at its
  ``cumsum`` offset in the flat survivor list -> limb planes of just
  those records, bit-exact with the scalar sampler in
  :mod:`repro.sharing.prg`,
* :func:`assemble_rows` stacks rows of existing batches (plane copies,
  no re-encode) into the per-server ``(B, z_len)`` share matrix, and
* :func:`dot_batch_planes` applies prepared weight functionals to an
  already-ingested batch.

Together these keep a verification batch in limb-plane form from the
socket to the accept/reject verdict.  The remaining Python-int
boundaries are deliberate and tiny: per-submission round-1/round-2
scalars (four elements each), the Beaver-triple columns (three ints
per submission), and the final published aggregate.
"""

from __future__ import annotations

import os
import sys
from typing import Sequence

from repro.field.prime_field import FieldError, PrimeField

#: OpenBLAS starts its helper threads when it loads, and each spins for
#: about 0.1 s of CPU before it sleeps.  Where this import is what loads
#: numpy, the variable is set for that load only, so none is started;
#: it is removed again, so no child process inherits it.
_LOAD_ONE_BLAS_THREAD = (
    "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules
)
if _LOAD_ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:  # numpy is optional: every code path has a pure-Python fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_FORCE_PURE
    _np = None
finally:
    if _LOAD_ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

#: limb radix: 3 bytes per limb, 15 bits of lazy-reduction headroom
LIMB_BITS = 24
LIMB_BASE = 1 << LIMB_BITS
LIMB_MASK = LIMB_BASE - 1

_M48 = (1 << 48) - 1

#: the float64 inner product splits weight limbs into halves this wide,
#: so a half-limb x limb product is below 2^36 ...
_HALF_BITS = LIMB_BITS // 2
_HALF_MASK = (1 << _HALF_BITS) - 1
#: ... and this many of them sum below 2^53, where float64 is exact
_FLOAT_EXACT_TERMS = 1 << (53 - _HALF_BITS - LIMB_BITS)
#: whole limb x limb products (below 2^48) that sum below 2^53: the
#: NTT's matrix levels keep L * radix at or below this
_FLOAT_EXACT_PRODUCTS = 1 << (53 - 2 * LIMB_BITS)
#: the NTT's matrix levels merge sub-transforms of at most this length:
#: a level over length-S sub-transforms needs S matrices, so the longer
#: spans stay radix-2 (see _ntt_lazy)
_MATRIX_SPAN_CAP = 64
#: multiply-adds of the largest float64 product the NTT issues at once:
#: OpenBLAS runs a product of at most 2^18 on the calling thread, and
#: waking a second thread costs more than these products take
_GEMM_SINGLE_THREAD_MACS = 1 << 18


def numpy_available() -> bool:
    """True iff numpy imported successfully."""
    return _np is not None


def _openblas(stem: str):
    """OpenBLAS's ``stem`` function, from the library numpy loaded.

    Found the way threadpoolctl finds it: the stem with an optional
    ``scipy_`` prefix and an optional ``64_`` or ``_64`` suffix (numpy
    2.4's wheel exports ``scipy_openblas_set_num_threads64_``).  The
    lookup goes through numpy's core extension, whose handle also
    searches the libraries it links.  None where numpy is absent or
    links no OpenBLAS.
    """
    if _np is None:
        return None
    import ctypes

    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            function = getattr(lib, prefix + stem + suffix, None)
            if function is not None:
                return function
    return None


def _pin_blas_threads() -> None:
    """One OpenBLAS thread, unless ``OPENBLAS_NUM_THREADS`` names a
    count.  Set on the loaded library, so it also holds where numpy was
    imported before this module (see ``repro``'s docstring)."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    set_threads = _openblas("openblas_set_num_threads")
    if set_threads is not None:
        set_threads(1)


_pin_blas_threads()


def use_numpy(force_pure: bool | None = None) -> bool:
    """Resolve the backend for one call.

    ``force_pure=True`` always selects the pure backend; ``False``
    demands numpy (raises if missing); ``None`` (the default) uses
    numpy when available unless ``REPRO_FORCE_PURE=1`` is set.
    """
    if force_pure is True:
        return False
    if force_pure is False:
        if _np is None:
            raise FieldError("numpy backend requested but numpy is missing")
        return True
    if _np is None:
        return False
    return os.environ.get("REPRO_FORCE_PURE") != "1"


def backend_name(force_pure: bool | None = None) -> str:
    return "numpy" if use_numpy(force_pure) else "pure"


#: below this many total elements (rows x row width) a batch operation
#: pays more in numpy dispatch than the limb planes save
TINY_BATCH_ELEMENTS = 512


def tiny_batch_force_pure(
    total_elements: int, force_pure: bool | None = None
) -> bool | None:
    """Resolve ``force_pure``, preferring pure Python for tiny batches.

    Both backends are bit-exact, so auto-selection (``None``) may pick
    by work size: a batch of one over a few gates runs faster as plain
    bigint loops.  Explicit ``True``/``False`` is passed through.
    """
    if force_pure is None and total_elements < TINY_BATCH_ELEMENTS:
        return True
    return force_pure


# ----------------------------------------------------------------------
# Per-field limb context (numpy backend)
# ----------------------------------------------------------------------


class _LimbContext:
    """Cached limb-decomposition constants for one modulus."""

    __slots__ = (
        "field", "modulus", "n_limbs", "p_planes", "p_ext_planes",
        "mu_planes", "max_dot_terms", "p_terms", "p_neg_inv", "ntt_radix",
        "_twiddle_cache", "_plan_cache", "_coset_cache",
    )

    def __init__(self, field: PrimeField) -> None:
        p = field.modulus
        self.field = field
        self.modulus = p
        bits = p.bit_length()
        self.n_limbs = max(1, -(-bits // LIMB_BITS))
        L = self.n_limbs
        self.p_planes = _np.array(_int_limbs(p, L), dtype=_np.int64)
        self.p_ext_planes = _np.array(_int_limbs(p, L + 1), dtype=_np.int64)
        mu = (1 << (2 * L * LIMB_BITS)) // p
        self.mu_planes = _np.array(_int_limbs(mu, L + 1), dtype=_np.int64)
        # One chunk of the float64 inner product (_np_matvec) is exact
        # while (a) its half-limb x limb sums stay integers below 2^53:
        # terms <= 2^17; (b) folding them into int64 limbs cannot
        # overflow: terms*L*2^37 <= 2^62 (binds only past 256 limbs);
        # and (c) the total fits Barrett's input domain:
        # terms*p^2 < 2^(48L).  F64 is held to 2^16 by (c); every other
        # shipped modulus to 2^17 by (a).
        self.max_dot_terms = max(1, min(
            _FLOAT_EXACT_TERMS,
            (1 << (61 - _HALF_BITS - LIMB_BITS)) // L,
            1 << max(0, 2 * L * LIMB_BITS - 2 * bits),
        ))
        # Montgomery REDC constants (odd moduli only; GF(2) never
        # transforms): the non-zero limbs of p as (index, limb) pairs —
        # REDC multiplies by nothing else — and -p^-1 mod base.
        self.p_terms = [
            (j, limb) for j, limb in enumerate(_int_limbs(p, L)) if limb
        ]
        self.p_neg_inv = (-pow(p, -1, LIMB_BASE)) % LIMB_BASE if p & 1 else 0
        # Radix of the NTT's matrix levels: the largest power of two R
        # with (a) L*R limb products per output summing below 2^53 and
        # (b) 2R*p <= base^L, so a level's REDC of R products of
        # canonical weights by values below 2p stays below 2p.  A
        # radix-2 level reduces every element where a butterfly reduces
        # half, so below R = 4 (FIELD265) there are no matrix levels.
        radix = 1
        while (2 * radix * L <= _FLOAT_EXACT_PRODUCTS
               and 4 * radix * p <= 1 << (LIMB_BITS * L)):
            radix *= 2
        self.ntt_radix = radix if radix >= 4 else 1
        self._twiddle_cache: dict = {}
        self._plan_cache: dict = {}
        self._coset_cache: dict = {}

    def twiddle_planes(self, root: int, length: int):
        """Limb planes of ``[root^0 .. root^{length-1}]`` (cached).

        Canonical form: only the exact-fallback NTT reads these.
        """
        key = (root, length)
        cached = self._twiddle_cache.get(key)
        if cached is None:
            cached = _encode(
                self, _power_row(self.modulus, 1, root, length)
            ).reshape(self.n_limbs, length)
            self._twiddle_cache[key] = cached
        return cached

    def mont_planes(self, values: Sequence[int]):
        """Canonical ints -> Montgomery-form limb planes (``v*R mod p``)."""
        p = self.modulus
        r = (1 << (LIMB_BITS * self.n_limbs)) % p
        return _encode(self, [v * r % p for v in values])

    def ntt_plan(self, root: int, n: int):
        """The cached constants of a size-``n`` :func:`_ntt_lazy`.

        ``(levels, stages)``.  ``levels`` holds ``(radix, matrices)``
        per matrix level, merging sub-transforms of length 1, R, R^2 ...
        while that length is at most ``_MATRIX_SPAN_CAP`` (the last
        level's radix shrinks to fit ``n``; see :func:`_level_matrices`).
        ``stages`` holds, per radix-2 stage above them, the
        Montgomery-form twiddles ``[w^0 .. w^(half-1)]`` for ``w =
        root^(n / (2 half))``, shaped ``(L, half)``; a first stage's
        lone twiddle is 1 and never multiplied, so its slot is None.
        """
        key = (root, n)
        cached = self._plan_cache.get(key)
        if cached is None:
            p = self.modulus
            levels = []
            span = 1
            while 1 < self.ntt_radix and span < n and span <= _MATRIX_SPAN_CAP:
                radix = min(self.ntt_radix, n // span)
                w = pow(root, n // (radix * span), p)
                levels.append((radix, _level_matrices(self, w, span, radix)))
                span *= radix
            stages = []
            while span < n:
                w = pow(root, n // (2 * span), p)
                stages.append(
                    self.mont_planes(_power_row(p, 1, w, span))
                    if span > 1 else None
                )
                span *= 2
            cached = self._plan_cache[key] = (levels, stages)
        return cached

    def coset_constants(self, n: int):
        """``(w_N^-1, w_N, twist)`` for the prover's coset extension.

        ``twist`` is the Montgomery-form row ``N^-1 * w_2N^k`` for
        ``k < N``: one Montgomery multiply by it turns the unscaled
        inverse transform's output into the coefficients of
        ``f(w_2N * x)``, still in ordinary (non-Montgomery) form.
        """
        cached = self._coset_cache.get(n)
        if cached is None:
            p = self.modulus
            root = self.field.root_of_unity(n)
            twist = _power_row(
                p, pow(n, -1, p), self.field.root_of_unity(2 * n), n
            )
            cached = (pow(root, -1, p), root, self.mont_planes(twist))
            self._coset_cache[n] = cached
        return cached

    def lazy_ntt_fits(self, n: int, c_in: int) -> bool:
        """Can a size-``n`` lazy NTT run on inputs below ``c_in * p``?

        Every stage adds at most ``2p`` to the value bound (see
        :func:`_np_ntt`), and the result must still fit ``L`` limbs.
        """
        n_stages = n.bit_length() - 1
        return (c_in + 2 * n_stages) * self.modulus <= (
            1 << (LIMB_BITS * self.n_limbs)
        )


_CTX_CACHE: dict[int, _LimbContext] = {}


def _ctx(field: PrimeField) -> _LimbContext:
    ctx = _CTX_CACHE.get(field.modulus)
    if ctx is None:
        ctx = _CTX_CACHE[field.modulus] = _LimbContext(field)
    return ctx


def _int_limbs(x: int, n_limbs: int) -> list[int]:
    return [(x >> (LIMB_BITS * i)) & LIMB_MASK for i in range(n_limbs)]


def _power_row(p: int, first: int, ratio: int, length: int) -> list[int]:
    """``[first * ratio^k mod p for k < length]``."""
    row = [first % p] * length
    for k in range(1, length):
        row[k] = row[k - 1] * ratio % p
    return row


# ----------------------------------------------------------------------
# numpy limb kernels.  Convention: limb planes come FIRST — an array of
# shape (n_limbs, *element_shape) — so each plane is contiguous and
# every kernel pass streams over cache-friendly memory.
# ----------------------------------------------------------------------


def _encode(ctx: _LimbContext, values: Sequence[int]):
    """Python ints (canonical, in [0, p)) -> limb planes (L, n).

    Two limbs per 48-bit chunk, extracted with object-dtype ufuncs
    (numpy's C-level loop over PyNumber shift/mask is the cheapest
    list->numpy crossing measured).  The top chunk is deliberately
    left unmasked: values too wide for the field surface as an
    ``OverflowError`` or an out-of-range limb, which
    :func:`_encode_checked` turns into a canonicalizing retry instead
    of silent truncation.
    """
    L = ctx.n_limbs
    n = len(values)
    planes = _np.zeros((L, n), dtype=_np.int64)
    if n == 0:
        return planes
    obj = _np.array(values if isinstance(values, list) else list(values),
                    dtype=object)
    for chunk in range(0, L, 2):
        shift = 48 * (chunk // 2)
        col = (obj >> shift) if shift else obj
        if chunk + 2 < L:
            col = col & _M48
        col64 = col.astype(_np.int64)
        if chunk + 1 < L:
            planes[chunk] = col64 & LIMB_MASK
            planes[chunk + 1] = col64 >> LIMB_BITS
        else:
            planes[chunk] = col64
    return planes


def _encode_checked(ctx: _LimbContext, values: Sequence[int]):
    """Encode with a vectorized canonicality check.

    The optimistic mask/shift encode is only correct for canonical
    inputs; rather than paying a Python ``% p`` per element up front,
    encode first and verify the limb planes numerically (negative or
    oversized inputs surface as out-of-range limbs or values >= p).
    Only on violation — or Python ints too wide for int64 lanes — is
    the slow canonicalizing pass taken.
    """
    try:
        planes = _encode(ctx, values)
    except (OverflowError, TypeError):
        return _encode(ctx, [v % ctx.modulus for v in values])
    if planes.size:
        in_range = bool(
            (planes >= 0).all() and (planes <= LIMB_MASK).all()
        )
        if in_range:
            _, ge_p = _borrow_sub(
                planes,
                ctx.p_planes.reshape((-1,) + (1,) * (planes.ndim - 1)),
            )
            in_range = not bool(ge_p.any())
        if not in_range:
            return _encode(ctx, [v % ctx.modulus for v in values])
    return planes


def _decode(ctx: _LimbContext, planes) -> list[int]:
    """Limb planes (L, n) -> canonical Python ints."""
    L = planes.shape[0]
    flat = planes.reshape(L, -1)
    cols = []
    for chunk in range(0, L, 2):
        col = flat[chunk]
        if chunk + 1 < L:
            col = col | (flat[chunk + 1] << LIMB_BITS)
        cols.append(col.tolist())
    out = cols[0]
    for idx in range(1, len(cols)):
        shift = 48 * idx
        out = [acc | (c << shift) for acc, c in zip(out, cols[idx])]
    return out


def _carry(planes, width: int):
    """Propagate carries so every plane is a 24-bit limb.

    Input entries must be nonnegative int64; the true value must fit in
    ``width`` limbs (the final carry out must be zero).
    """
    m = planes.shape[0]
    out = _np.zeros((width,) + planes.shape[1:], dtype=_np.int64)
    out[:m] = planes
    for i in range(width - 1):
        c = out[i] >> LIMB_BITS
        out[i] &= LIMB_MASK
        out[i + 1] += c
    return out


def _borrow_sub(a, b_planes):
    """``a - b`` limbwise with borrow; returns (diff mod base^W, ok).

    ``a`` has shape (W, ...); ``b_planes`` is broadcastable to it.
    ``ok`` is True where no final borrow occurred (i.e. a >= b).
    """
    W = a.shape[0]
    out = _np.empty_like(a)
    borrow = _np.zeros(a.shape[1:], dtype=_np.int64)
    for i in range(W):
        t = a[i] - b_planes[i] - borrow
        borrow = (t < 0).astype(_np.int64)
        out[i] = t + (borrow << LIMB_BITS)
    return out, borrow == 0


def _cond_sub(a, mod_planes, times: int = 1):
    """Subtract ``mod`` wherever ``a >= mod``, up to ``times`` times."""
    for _ in range(times):
        d, ok = _borrow_sub(a, mod_planes.reshape(
            (-1,) + (1,) * (a.ndim - 1)))
        a = _np.where(ok, d, a)
    return a


def _conv(a, b):
    """Limb convolution of normalized planes; result is lazy (no carry).

    ``a``: (la, *s1), ``b``: (lb, *s2) with broadcastable tails.
    Safe while ``min(la, lb) < 2^15`` (48-bit products, int64 lanes).
    """
    la, lb = a.shape[0], b.shape[0]
    tail = _np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = _np.zeros((la + lb - 1,) + tail, dtype=_np.int64)
    for i in range(la):
        ai = a[i]
        for j in range(lb):
            out[i + j] += ai * b[j]
    return out


def _barrett(ctx: _LimbContext, planes):
    """Barrett-reduce normalized planes (value < base^(2L)) mod p.

    HAC Algorithm 14.42 in radix 2^24, vectorized over the element
    axes; returns canonical (L, ...) planes.  Inputs narrower than 2L
    planes (a lazy NTT result, a small-row product) keep their width:
    the quotient estimate only reads the planes that exist.
    """
    L = ctx.n_limbs
    x = planes
    if x.shape[0] < L + 1:
        padded = _np.zeros((L + 1,) + x.shape[1:], dtype=_np.int64)
        padded[: x.shape[0]] = x
        x = padded
    q1 = x[L - 1:]                                   # floor(x / b^(L-1))
    q2 = _carry(_conv(q1, ctx.mu_planes.reshape(
        (L + 1,) + (1,) * (x.ndim - 1))), x.shape[0] + 3)
    q3 = q2[L + 1:]                                  # floor(q2 / b^(L+1))
    # r2 = q3 * p mod b^(L+1): truncated convolution over p's non-zero
    # limbs, carries kept inside the window (the carry out of limb L is
    # dropped).
    tail = x.shape[1:]
    r2 = _np.zeros((L + 1,) + tail, dtype=_np.int64)
    for i in range(min(L + 1, q3.shape[0])):
        qi = q3[i]
        for j, limb in ctx.p_terms:
            if i + j <= L:
                r2[i + j] += qi * limb
    for i in range(L):
        c = r2[i] >> LIMB_BITS
        r2[i] &= LIMB_MASK
        r2[i + 1] += c
    r2[L] &= LIMB_MASK
    r1 = x[: L + 1]
    r, _ok = _borrow_sub(r1, r2)                     # mod b^(L+1)
    r = _cond_sub(r, ctx.p_ext_planes, times=2)
    return r[:L]


def _np_add(ctx, a, b):
    s = _carry(a + b, ctx.n_limbs + 1)
    return _cond_sub(s, ctx.p_ext_planes)[: ctx.n_limbs]


def _np_sub(ctx, a, b):
    # a - b + p, limbwise (entries may be transiently negative).
    t = a - b + ctx.p_planes.reshape((ctx.n_limbs,) + (1,) * (a.ndim - 1))
    out = _np.empty((ctx.n_limbs + 1,) + a.shape[1:], dtype=_np.int64)
    carry = _np.zeros(a.shape[1:], dtype=_np.int64)
    for i in range(ctx.n_limbs):
        v = t[i] + carry
        carry = v >> LIMB_BITS           # arithmetic shift: floor division
        out[i] = v & LIMB_MASK
    out[ctx.n_limbs] = carry
    return _cond_sub(out, ctx.p_ext_planes)[: ctx.n_limbs]


def _np_neg(ctx, a):
    zero = _np.zeros_like(a)
    return _np_sub(ctx, zero, a)


def _np_mul(ctx, a, b):
    return _barrett(ctx, _carry(_conv(a, b), 2 * ctx.n_limbs))


def _np_scale(ctx, c: int, a):
    c_planes = _np.array(
        _int_limbs(c % ctx.modulus, ctx.n_limbs), dtype=_np.int64
    ).reshape((ctx.n_limbs,) + (1,) * (a.ndim - 1))
    return _np_mul(ctx, a, c_planes)


def _small_row_split(ctx, values):
    """Split a scalar row into single-limb ``(pos, neg)`` int64 arrays.

    Succeeds when every canonical entry ``c`` satisfies ``c < base`` or
    ``p - c < base`` (coefficients like ``±1`` and ``±2^i`` — all of
    the compiled Valid-circuit coefficient rows), so that
    ``x*c = x*pos - x*neg`` with both products single-limb-by-plane
    (lazy entries < 2^48, no limb convolution).  Returns None when any
    entry is full-width.
    """
    p = ctx.modulus
    base = 1 << LIMB_BITS
    pos = [0] * len(values)
    neg = [0] * len(values)
    for i, v in enumerate(values):
        v %= p
        if v < base:
            pos[i] = v
        elif p - v < base:
            neg[i] = p - v
        else:
            return None
    return (
        _np.array(pos, dtype=_np.int64),
        _np.array(neg, dtype=_np.int64),
    )


def _np_mul_small_row(ctx, planes, values):
    """Broadcast-multiply canonical planes by a row of *small* scalars.

    The :func:`_small_row_split` products fold through one carry and
    one Barrett pass via ``x*pos + (p << 24) - x*neg`` — the pad is 0
    mod p and exceeds any ``x*neg``, so the total stays nonnegative
    (the carry loop's arithmetic shifts absorb transiently negative
    limbs, exactly as in ``_np_sub``).  Returns None when any entry is
    full-width or the padded total would leave Barrett's ``base^(2L)``
    domain; callers then take the convolution path.
    """
    pad = ctx.modulus << LIMB_BITS
    width = -((2 * pad).bit_length() // -LIMB_BITS)
    if width > 2 * ctx.n_limbs:
        return None
    split = _small_row_split(ctx, values)
    if split is None:
        return None
    pos, neg = split
    lazy = _np.zeros((width,) + planes.shape[1:], dtype=_np.int64)
    lazy[: ctx.n_limbs] = planes * pos - planes * neg
    lazy += _np.array(_int_limbs(pad, width), dtype=_np.int64).reshape(
        (width,) + (1,) * (planes.ndim - 1)
    )
    return _barrett(ctx, _carry(lazy, width))


def _np_sum_axis(ctx, planes, axis: int):
    """Sum canonical planes along an element axis, reduced mod p."""
    n_terms = planes.shape[axis]
    if n_terms == 0:
        raise FieldError("vec_sum of no vectors")
    limit = min(ctx.max_dot_terms, 1 << (63 - LIMB_BITS))
    total = None
    for start in range(0, n_terms, limit):
        idx = [slice(None)] * planes.ndim
        idx[axis] = slice(start, start + limit)
        lazy = planes[tuple(idx)].sum(axis=axis)
        part = _barrett(ctx, _carry(lazy, 2 * ctx.n_limbs))
        total = part if total is None else _np_add(ctx, total, part)
    return total


def _np_matvec(ctx, split, m_planes):
    """Batched inner products: split weights x rows (L, B, D).

    ``split`` is :meth:`PreparedWeights.split`: the ``(L, 2, K, D)``
    low/high 12-bit halves of every weight limb, flattened to one
    ``(2LK, D)`` float64 matrix.  Returns canonical planes (L, K, B) —
    ``out[k, b] = sum_d w[k, d] * m[b, d] mod p``.

    Per chunk of ``max_dot_terms`` columns and per share limb plane
    ``j``, one BLAS product gives every half-limb sum at once; each is
    an integer below ``2^53``, hence exact whatever order or threading
    BLAS sums in.  Back in int64, low halves land on limb ``i + j`` and
    high halves (worth ``2^12`` more) split across limbs ``i + j`` and
    ``i + j + 1``; one carry and one Barrett pass reduce the chunk.
    The float64 copy is made one ``(B, d)`` plane at a time: as fast
    as converting all ``L`` at once, at ``1/L`` of the memory.
    """
    L = ctx.n_limbs
    K = split.shape[0] // (2 * L)
    B, D = m_planes.shape[1], m_planes.shape[2]
    total = None
    for start in range(0, D, ctx.max_dot_terms):
        sl = slice(start, start + ctx.max_dot_terms)
        acc = _np.zeros((2 * L, K, B), dtype=_np.int64)
        for j in range(L):
            plane = m_planes[j, :, sl].astype(_np.float64)
            halves = (split[:, sl] @ plane.T).astype(_np.int64).reshape(
                L, 2, K, B
            )
            lo, hi = halves[:, 0], halves[:, 1]
            acc[j:j + L] += lo + ((hi & _HALF_MASK) << _HALF_BITS)
            acc[j + 1:j + L + 1] += hi >> _HALF_BITS
        carried = _carry(acc, 2 * L + 1)
        assert not carried[2 * L].any(), "dot chunk left Barrett's domain"
        part = _barrett(ctx, carried[:2 * L])
        total = part if total is None else _np_add(ctx, total, part)
    if total is None:                                # D == 0
        return _np.zeros((L, K, B), dtype=_np.int64)
    return total


def _mont_mul(ctx, a, w):
    """Lazy Montgomery product ``a * w * R^-1 mod p``, ``R = base^L``.

    ``a`` holds normalized limbs of any value below ``R``; ``w`` is a
    canonical value, so with ``w = v*R mod p`` (see
    :meth:`_LimbContext.mont_planes`) the result is ``a * v`` in
    ordinary form: one limb convolution, then :func:`_redc`.  Returns
    ``L`` uncarried nonnegative planes whose value lies in ``[0, 2p)``:
    ``(a*w + m*p) / R < p + p``.
    """
    L = ctx.n_limbs
    tail = _np.broadcast_shapes(a.shape[1:], w.shape[1:])
    t = _np.empty((2 * L,) + tail, dtype=_np.int64)
    t[2 * L - 1] = 0
    tmp = _np.empty(tail, dtype=_np.int64)
    for i in range(L):
        for j in range(L):
            if i == 0 or j == L - 1:                 # first touch of t[i+j]
                _np.multiply(a[i], w[j], out=t[i + j])
            else:
                t[i + j] += _np.multiply(a[i], w[j], out=tmp)
    return _redc(ctx, t, tmp)


def _redc(ctx, t, tmp):
    """Montgomery reduction ``T / R mod p`` of uncarried planes ``t``.

    ``t`` holds ``2L`` nonnegative planes of a value ``T``, each below
    ``2^53``, the top one zero; it is reduced in place.  Limb by limb,
    each step picks ``m`` with ``t + m * p * base^i = 0 mod
    base^(i+1)`` and adds ``m`` times the *non-zero* limbs of ``p`` —
    for ``p = 1 mod base`` (every NTT-friendly shipped modulus) ``m``
    is a negation and the low-limb product a plain add.  Returns the
    planes from ``L`` up, uncarried and nonnegative, of ``(T + M*p) /
    R < T / R + p``.  ``tmp`` is a scratch plane.
    """
    neg_inv = ctx.p_neg_inv
    L = ctx.n_limbs
    for i in range(L):
        if neg_inv == LIMB_MASK:
            m = _np.negative(t[i], out=tmp)
        else:
            m = _np.bitwise_and(t[i], LIMB_MASK, out=tmp)
            m *= neg_inv
        m &= LIMB_MASK
        for j, limb in ctx.p_terms:
            t[i + j] += m if limb == 1 else m * limb
        t[i] >>= LIMB_BITS
        t[i + 1] += t[i]
    return t[L:]


def _level_matrices(ctx, w: int, span: int, radix: int):
    """The float64 matrices of one NTT matrix level (see :func:`_ntt_lazy`).

    The level merges ``radix`` sub-transforms of length ``span`` into
    one of length ``radix * span``, whose root ``w`` has that order:
    ``out[j + span*k] = sum_m w^(rev(m) * (j + span*k)) * sub_m[j]``,
    ``rev`` the bit reversal on ``log2(radix)`` bits (the radix-2
    gather's order of the sub-transforms).  Position ``j`` gets matrix
    ``G_j[k, m]`` in Montgomery form, laid out block-Toeplitz over
    limbs as ``((2L - 1) * radix, L * radix)``: the weight's limb ``a``
    times the data's limb ``b`` lands on output limb ``a + b``.  Built
    from one power row and one :meth:`_LimbContext.mont_planes` call.
    """
    L = ctx.n_limbs
    length = radix * span
    powers = ctx.mont_planes(_power_row(ctx.modulus, 1, w, length))
    rev = _bit_reverse_permutation(radix)
    positions = _np.arange(span)[:, None, None] + span * _np.arange(
        radix
    )[None, :, None]
    weights = powers[:, rev * positions % length]    # (L, span, k, m)
    mats = _np.zeros((span, 2 * L - 1, radix, L, radix))
    for a in range(L):
        for b in range(L):
            mats[:, a + b, :, b, :] = weights[a]
    return mats.reshape(span, (2 * L - 1) * radix, L * radix)


def _matrix_level(ctx, x, span: int, radix: int, mats):
    """One matrix level of :func:`_ntt_lazy` on normalized (L, B, n)
    planes of values below ``2p``: the same bound, normalized, out.

    The planes go to float64 as ``(span, L * radix, B * n / (radix *
    span))``, one column per (row, group) and position ``j``; one
    batched product per column chunk multiplies each by its ``G_j``,
    every sum an integer below ``2^53`` (at most ``L * radix <= 32``
    limb products), hence exact.  Back in int64 and natural order, one
    REDC and one carry finish the level.  Chunks keep every 2-D product
    at or below ``_GEMM_SINGLE_THREAD_MACS``.
    """
    L = ctx.n_limbs
    _, rows, n = x.shape
    groups = n // (radix * span)
    cols = rows * groups
    data = x.reshape(L, rows, groups, radix, span).transpose(
        4, 0, 3, 1, 2
    ).astype(_np.float64, order="C").reshape(span, L * radix, cols)
    prod = _np.empty((span, mats.shape[1], cols))
    step = max(1, _GEMM_SINGLE_THREAD_MACS // mats[0].size)
    for start in range(0, cols, step):
        chunk = slice(start, start + step)
        _np.matmul(mats, data[..., chunk], out=prod[..., chunk])
    t = _np.empty((2 * L, rows, groups, radix, span), dtype=_np.int64)
    t[2 * L - 1] = 0
    t[:2 * L - 1] = prod.reshape(
        span, 2 * L - 1, radix, rows, groups
    ).transpose(1, 3, 4, 2, 0)
    reduced = _redc(ctx, t, _np.empty(t.shape[1:], dtype=_np.int64))
    return _carry(reduced, L).reshape(L, rows, n)


def _ntt_lazy(ctx, planes, root: int, c_in: int):
    """Size-``n`` NTT over the last axis, *without* the final
    canonicalization: uncarried nonnegative limbs of values below
    ``c_in * p`` in (``c_in`` of 1 or 2), normalized limbs of values
    below ``(c_in + 2 * stages) * p`` out.  The caller checks
    :meth:`_LimbContext.lazy_ntt_fits` first.

    After the bit-reversal gather and one carry, the short spans run as
    *matrix levels* (:func:`_matrix_level`): each merges ``R``
    sub-transforms of length ``S`` (1, R, R^2 ... up to
    ``_MATRIX_SPAN_CAP``) with one exact float64 product per position
    against cached twiddle-folded matrices, then one REDC: values stay
    below ``2p``.  ``R = ctx.ntt_radix``: 8 on FIELD87 and FIELD64, 32
    on one-limb moduli, none on FIELD265, where every stage is radix-2.
    Longer spans run as lazy radix-2 Montgomery butterflies (see
    :func:`_np_ntt`), each adding ``2p`` to the bound.
    """
    lead = planes.shape[1:-1]
    n = planes.shape[-1]
    L = ctx.n_limbs
    levels, stages = ctx.ntt_plan(root, n)
    # Without matrix levels the first radix-2 stages pair elements a
    # few slots apart, which as views of the natural order would hand
    # numpy inner loops of length 2, 4, 8...  So the gather then also
    # transposes each row to (n1, n / n1) — position inside a size-n1
    # block first, block index last — where those stages pair whole
    # contiguous rows; one transposing copy restores natural order for
    # the spans from n1 up.
    n1 = n if levels else 1 << ((n.bit_length() - 1) // 2)
    out = _carry(planes[..., _bit_reverse_permutation(n, n1)], L)
    out = out.reshape(L, -1, n)
    half = 1
    for radix, mats in levels:
        out = _matrix_level(ctx, out, half, radix, mats)
        half *= radix
    # A first radix-2 stage adds c_in*p to keep lo - hi nonnegative
    # and doubles the bound (2*c_in <= c_in + 2); every later stage adds
    # a Montgomery product in [0, 2p), so 2p.
    offsets = [_int_limbs(c * ctx.modulus, L) for c in (c_in, 2)]
    inner = n // n1
    for tw in stages:
        if half == n1 and inner > 1:
            out = _np.ascontiguousarray(
                out.reshape(L, -1, n1, inner).swapaxes(-1, -2)
            )
            inner = 1
        shaped = out.reshape(L, -1, n // (2 * half * inner), 2 * half, inner)
        lo = shaped[..., :half, :]
        hi = shaped[..., half:, :]
        if tw is None:
            t, offset = hi, offsets[0]
        else:
            t = _mont_mul(ctx, hi, tw.reshape(L, 1, 1, half, 1))
            offset = offsets[1]
        # s = lo + t and d = lo - t + offset: carried, never compared
        # against p; exact mod p throughout.
        for i in range(L):
            vs = lo[i] + t[i]
            vd = lo[i] - t[i]
            vd += offset[i]
            if i:
                vs += carry_s
                vd += carry_d
            carry_s = vs >> LIMB_BITS
            carry_d = vd >> LIMB_BITS
            _np.bitwise_and(vs, LIMB_MASK, out=lo[i])
            _np.bitwise_and(vd, LIMB_MASK, out=hi[i])
        half <<= 1
    return out.reshape((L,) + lead + (n,))


def _np_ntt(ctx, planes, root: int):
    """NTT over the last axis of (L, B, n) planes.

    The transform is *lazy Montgomery* when the limb headroom allows
    (all shipped moduli): :func:`_ntt_lazy`.  Values stay in ordinary
    form; only the twiddles are cached in Montgomery form ``w*R mod p``
    (``R = base^L``), so a twiddle product is limb products plus a REDC
    that multiplies by the non-zero limbs of ``p`` alone
    (:func:`_redc`).  The short spans run as matrix levels, each an
    exact float64 product against twiddle-folded matrices followed by
    one REDC, which keeps values below ``2p``.  The longer spans are
    radix-2 butterflies whose product ``t = hi*w`` (:func:`_mont_mul`)
    lands in ``[0, 2p)`` whatever ``hi`` was; sums ``lo + t`` skip the
    conditional subtraction and differences add a flat ``2p`` instead
    of comparing, so such a stage is convolution/carry passes with no
    limb comparisons, and the value bound grows by ``2p`` per stage.
    Canonical inputs end below ``(1 + 2*stages)*p``, which the guard
    ``(c_in + 2*stages)*p <= base^L`` keeps inside ``L`` normalized
    limbs.  One Barrett pass at the end canonicalizes, making the
    output bit-identical to the exact per-stage path
    (:func:`_np_ntt_exact`, the fallback for headroom-starved moduli).
    """
    n = planes.shape[-1]
    if n == 1:
        return planes
    if not ctx.lazy_ntt_fits(n, 1):
        return _np_ntt_exact(ctx, planes, root)
    return _barrett(ctx, _ntt_lazy(ctx, planes, root, 1))


def _np_ntt_exact(ctx, planes, root: int):
    """The NTT with every stage canonical: Barrett twiddle products,
    compared adds and subtracts.  Needs no headroom above ``p``."""
    n = planes.shape[-1]
    out = _np.ascontiguousarray(planes[..., _bit_reverse_permutation(n)])
    p = ctx.modulus
    L = ctx.n_limbs
    length = 2
    while length <= n:
        half = length >> 1
        tw = ctx.twiddle_planes(pow(root, n // length, p), half)
        shaped = out.reshape(out.shape[:-1] + (n // length, length))
        lo = shaped[..., :half]
        hi = shaped[..., half:]
        t = _np_mul(ctx, hi, tw.reshape(
            (L,) + (1,) * (shaped.ndim - 2) + (half,)))
        new_lo = _np_add(ctx, lo, t)
        new_hi = _np_sub(ctx, lo, t)
        shaped[..., :half] = new_lo
        shaped[..., half:] = new_hi
        length <<= 1
    return out


def _np_coset_product(ctx, f, g):
    """``h = f*g`` on the size-2N domain from ``(L, B, N)`` evaluations.

    The double domain's even points coincide with the small domain
    (``w_2N^2 = w_N``), so h's even evaluations are products of the
    *input* rows.  The odd points ``f(w_2N * w_N^j)`` are the size-N
    transform of the ``w_2N^k``-twisted coefficients, and the whole
    round trip stays in lazy planes: unscaled inverse transform (no
    canonicalization) -> one Montgomery multiply by the cached
    ``N^-1 * w_2N^k`` row (back below ``2p``) -> forward transform from
    that lazy input.  Even and odd limb products share one carry and
    one Barrett pass on the interleaved ``(B, 2N)`` result.
    """
    L, B, n = f.shape
    inv_root, root, twist = ctx.coset_constants(n)
    fg = _np.concatenate([f, g], axis=1)
    coeffs = _ntt_lazy(ctx, fg, inv_root, 1)
    odd = _ntt_lazy(
        ctx, _mont_mul(ctx, coeffs, twist.reshape(L, 1, n)), root, 2
    )
    lazy = _np.empty((2 * L - 1, B, 2 * n), dtype=_np.int64)
    lazy[..., 0::2] = _conv(f, g)
    lazy[..., 1::2] = _conv(odd[:, :B], odd[:, B:])
    return _barrett(ctx, _carry(lazy, 2 * L))


_BIT_REVERSE_CACHE: dict = {}


def _bit_reverse_permutation(n: int, n1: int = 1):
    """Bit-reversal of ``range(n)`` as a cached contiguous index array.

    With ``n1 > 1`` the permutation is composed with the ``(n/n1, n1)
    -> (n1, n/n1)`` transpose that :func:`_ntt_lazy` starts from.
    """
    key = (n, n1)
    perm = _BIT_REVERSE_CACHE.get(key)
    if perm is None:
        rev = [0]
        while len(rev) < n:
            rev = [2 * r for r in rev] + [2 * r + 1 for r in rev]
        perm = _BIT_REVERSE_CACHE[key] = _np.ascontiguousarray(
            _np.array(rev, dtype=_np.intp).reshape(n // n1, n1).T
        ).reshape(n)
    return perm


# ----------------------------------------------------------------------
# BatchVector: the public batch abstraction
# ----------------------------------------------------------------------


class BatchVector:
    """A vector — or a batch of equal-length vectors — of field elements.

    Elements are always canonical representatives in ``[0, p)``;
    every operation is exact field arithmetic, bit-for-bit equal to
    the scalar :class:`PrimeField` ops.  Shapes are 1-D ``(n,)`` or
    2-D ``(rows, n)``; elementwise operators require matching shapes.

    Construction converts from Python ints once; chains of batch ops
    stay inside the backend representation until :meth:`to_ints`.
    """

    __slots__ = ("field", "shape", "_data", "_numpy")

    def __init__(self, field, shape, data, is_numpy):
        self.field = field
        self.shape = shape
        self._data = data
        self._numpy = is_numpy

    # -- construction ---------------------------------------------------

    @classmethod
    def from_ints(
        cls,
        field: PrimeField,
        values,
        force_pure: bool | None = None,
    ) -> "BatchVector":
        """Build from a flat sequence or a sequence of equal-length rows."""
        rows = list(values)
        p = field.modulus
        if rows and isinstance(rows[0], (list, tuple)):
            width = len(rows[0])
            flat: list[int] = []
            for row in rows:
                if len(row) != width:
                    raise FieldError("ragged batch rows")
                flat.extend(row)
            shape = (len(rows), width)
        else:
            flat = list(rows)
            shape = (len(flat),)
        if use_numpy(force_pure):
            ctx = _ctx(field)
            planes = _encode_checked(ctx, flat).reshape((ctx.n_limbs,) + shape)
            return cls(field, shape, planes, True)
        flat = [v % p for v in flat]
        if len(shape) == 2:
            w = shape[1]
            data = [flat[i * w:(i + 1) * w] for i in range(shape[0])]
        else:
            data = flat
        return cls(field, shape, data, False)

    @classmethod
    def zeros(
        cls, field: PrimeField, shape, force_pure: bool | None = None
    ) -> "BatchVector":
        shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
        if use_numpy(force_pure):
            ctx = _ctx(field)
            return cls(
                field, shape,
                _np.zeros((ctx.n_limbs,) + shape, dtype=_np.int64), True,
            )
        if len(shape) == 2:
            return cls(
                field, shape, [[0] * shape[1] for _ in range(shape[0])], False
            )
        return cls(field, shape, [0] * shape[0], False)

    # -- extraction -----------------------------------------------------

    def to_ints(self):
        """Back to plain Python ints (nested lists mirroring shape)."""
        if not self._numpy:
            if len(self.shape) == 2:
                return [list(r) for r in self._data]
            return list(self._data)
        flat = _decode(_ctx(self.field), self._data)
        if len(self.shape) == 2:
            w = self.shape[1]
            return [flat[i * w:(i + 1) * w] for i in range(self.shape[0])]
        return flat

    def row_ints(self, i: int) -> list[int]:
        """One row of a 2-D batch as plain Python ints."""
        if len(self.shape) != 2:
            raise FieldError("row_ints needs a 2-D batch")
        if self._numpy:
            return _decode(_ctx(self.field), self._data[:, i, :])
        return list(self._data[i])

    def set_row_ints(self, i: int, values: Sequence[int]) -> None:
        """Overwrite row ``i`` of a 2-D batch with canonical ints."""
        if len(self.shape) != 2:
            raise FieldError("set_row_ints needs a 2-D batch")
        values = list(values)
        if len(values) != self.shape[1]:
            raise FieldError("row width mismatch")
        if self._numpy:
            self._data[:, i, :] = _encode_checked(_ctx(self.field), values)
        else:
            self._data[i] = [v % self.field.modulus for v in values]

    def row(self, i: int) -> "BatchVector":
        """Row ``i`` of a 2-D batch as a 1-D batch (plane view, no copy)."""
        if len(self.shape) != 2:
            raise FieldError("row needs a 2-D batch")
        shape = (self.shape[1],)
        if self._numpy:
            return BatchVector(self.field, shape, self._data[:, i, :], True)
        return BatchVector(self.field, shape, list(self._data[i]), False)

    def column(self, j: int) -> "BatchVector":
        """Column ``j`` of a 2-D batch as a 1-D batch (plane view).

        The batched verifier reads its per-submission Beaver-triple
        columns this way without ever decoding them to Python ints.
        """
        if len(self.shape) != 2:
            raise FieldError("column needs a 2-D batch")
        shape = (self.shape[0],)
        if self._numpy:
            return BatchVector(self.field, shape, self._data[:, :, j], True)
        return BatchVector(
            self.field, shape, [row[j] for row in self._data], False
        )

    def take_rows(self, indices: Sequence[int]) -> "BatchVector":
        """A new batch holding the selected rows (in the given order)."""
        if len(self.shape) != 2:
            raise FieldError("take_rows needs a 2-D batch")
        indices = list(indices)
        shape = (len(indices), self.shape[1])
        if self._numpy:
            return BatchVector(
                self.field, shape, self._data[:, indices, :], True
            )
        return BatchVector(
            self.field, shape, [list(self._data[i]) for i in indices], False
        )

    def take_columns(self, indices: Sequence[int]) -> "BatchVector":
        """A new batch holding the selected columns (in the given order).

        The column-axis dual of :meth:`take_rows`; repeats are allowed.
        This is the compiled-circuit plan's gather primitive: every
        single-term affine form (a mul gate reading an input wire
        directly, the common case in the Figure 7 circuits) evaluates
        as one column gather over the batch's base matrix.
        """
        if len(self.shape) != 2:
            raise FieldError("take_columns needs a 2-D batch")
        indices = list(indices)
        shape = (self.shape[0], len(indices))
        if self._numpy:
            return BatchVector(
                self.field, shape, self._data[:, :, indices], True
            )
        return BatchVector(
            self.field, shape,
            [[row[j] for j in indices] for row in self._data], False,
        )

    def set_columns(
        self, indices: Sequence[int], values: "BatchVector"
    ) -> None:
        """Overwrite the selected columns of a 2-D batch in place.

        ``values`` must be a 2-D batch on the same backend with one
        column per index — how the compiled plan scatters each level's
        mul-gate outputs back into the base matrix for later levels to
        read.
        """
        if len(self.shape) != 2:
            raise FieldError("set_columns needs a 2-D batch")
        if not isinstance(values, BatchVector):
            raise FieldError("expected a BatchVector operand")
        if values.field.modulus != self.field.modulus:
            raise FieldError("field mismatch")
        if values._numpy != self._numpy:
            raise FieldError("backend mismatch between operands")
        indices = list(indices)
        if values.shape != (self.shape[0], len(indices)):
            raise FieldError("set_columns value shape mismatch")
        if self._numpy:
            self._data[:, :, indices] = values._data
        else:
            for row, vrow in zip(self._data, values._data):
                for j, v in zip(indices, vrow):
                    row[j] = v

    def rows_zero(self) -> "list[bool]":
        """Per-row all-zero test of a 2-D batch.

        Row ``i`` is True iff every element in it is zero — the batched
        validity verdict over a batch of assertion-wire values, computed
        as one limb comparison without decoding (canonical
        representatives make zero the unique all-limbs-zero encoding).
        A zero-width batch is vacuously all-valid.
        """
        if len(self.shape) != 2:
            raise FieldError("rows_zero needs a 2-D batch")
        if self.shape[1] == 0:
            return [True] * self.shape[0]
        if self._numpy:
            return (~(self._data != 0).any(axis=(0, 2))).tolist()
        return [all(v == 0 for v in row) for row in self._data]

    def slice_columns(self, width: int) -> "BatchVector":
        """The first ``width`` columns (the Aggregate step's truncation)."""
        if width > self.shape[-1]:
            raise FieldError("slice width larger than batch width")
        shape = self.shape[:-1] + (width,)
        if self._numpy:
            return BatchVector(self.field, shape, self._data[..., :width], True)
        if len(self.shape) == 2:
            return BatchVector(
                self.field, shape, [row[:width] for row in self._data], False
            )
        return BatchVector(self.field, shape, self._data[:width], False)

    @property
    def backend(self) -> str:
        return "numpy" if self._numpy else "pure"

    @property
    def force_pure(self) -> "bool | None":
        """A ``force_pure`` argument that reproduces this batch's backend."""
        return False if self._numpy else True

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        return (
            f"BatchVector({self.field.name}, shape={self.shape}, "
            f"backend={self.backend})"
        )

    # -- internals ------------------------------------------------------

    def _like(self, data) -> "BatchVector":
        return BatchVector(self.field, self.shape, data, self._numpy)

    def _check(self, other: "BatchVector") -> None:
        if not isinstance(other, BatchVector):
            raise FieldError("expected a BatchVector operand")
        if other.field.modulus != self.field.modulus:
            raise FieldError("field mismatch")
        if other.shape != self.shape:
            raise FieldError(f"shape mismatch: {self.shape} vs {other.shape}")
        if other._numpy != self._numpy:
            raise FieldError("backend mismatch between operands")

    def _zip_pure(self, other, op):
        f = self.field
        if len(self.shape) == 2:
            return [
                [op(f, x, y) for x, y in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ]
        return [op(f, x, y) for x, y in zip(self._data, other._data)]

    # -- elementwise ops ------------------------------------------------

    def __add__(self, other: "BatchVector") -> "BatchVector":
        self._check(other)
        if self._numpy:
            return self._like(_np_add(_ctx(self.field), self._data, other._data))
        return self._like(self._zip_pure(other, PrimeField.add))

    def __sub__(self, other: "BatchVector") -> "BatchVector":
        self._check(other)
        if self._numpy:
            return self._like(_np_sub(_ctx(self.field), self._data, other._data))
        return self._like(self._zip_pure(other, PrimeField.sub))

    def __mul__(self, other: "BatchVector") -> "BatchVector":
        self._check(other)
        if self._numpy:
            return self._like(_np_mul(_ctx(self.field), self._data, other._data))
        return self._like(self._zip_pure(other, PrimeField.mul))

    def __neg__(self) -> "BatchVector":
        if self._numpy:
            return self._like(_np_neg(_ctx(self.field), self._data))
        f = self.field
        if len(self.shape) == 2:
            return self._like([f.vec_neg(r) for r in self._data])
        return self._like(f.vec_neg(self._data))

    def scale(self, c: int) -> "BatchVector":
        """Multiply every element by the scalar ``c``."""
        if self._numpy:
            return self._like(_np_scale(_ctx(self.field), c, self._data))
        f = self.field
        if len(self.shape) == 2:
            return self._like([f.vec_scale(c, r) for r in self._data])
        return self._like(f.vec_scale(c, self._data))

    def add_scalar(self, c: int) -> "BatchVector":
        """Add the scalar ``c`` to every element.

        The leader-only affine constants of the batched verification
        functionals fold in through this — one broadcast limb add, no
        per-submission Python loop.
        """
        c %= self.field.modulus
        if c == 0:
            return self
        if self._numpy:
            ctx = _ctx(self.field)
            c_planes = _np.array(
                _int_limbs(c, ctx.n_limbs), dtype=_np.int64
            ).reshape((ctx.n_limbs,) + (1,) * len(self.shape))
            return self._like(_np_add(ctx, self._data, c_planes))
        f = self.field
        if len(self.shape) == 2:
            return self._like(
                [[f.add(v, c) for v in row] for row in self._data]
            )
        return self._like([f.add(v, c) for v in self._data])

    def mul_row(self, values: Sequence[int]) -> "BatchVector":
        """Multiply every row elementwise by the same length-n vector.

        The batched prover's twist step (odd-point evaluation of h
        without a double-size NTT) multiplies every coefficient row by
        one shared power vector — a broadcast plane multiply, no
        per-row Python loop.  Rows whose entries are all small (or
        negated-small) mod p — every compiled Valid-circuit coefficient
        row — skip the limb convolution entirely
        (:func:`_np_mul_small_row`); full-width rows like the NTT twist
        powers take the general path.
        """
        if len(self.shape) != 2:
            raise FieldError("mul_row needs a 2-D batch")
        values = list(values)
        if len(values) != self.shape[1]:
            raise FieldError("row width mismatch in mul_row")
        if self._numpy:
            ctx = _ctx(self.field)
            fast = _np_mul_small_row(ctx, self._data, values)
            if fast is not None:
                return self._like(fast)
            row_planes = _encode_checked(ctx, values).reshape(
                ctx.n_limbs, 1, self.shape[1]
            )
            return self._like(_np_mul(ctx, self._data, row_planes))
        f = self.field
        return self._like(
            [
                [f.mul(x, v) for x, v in zip(row, values)]
                for row in self._data
            ]
        )

    def add_row(self, values: Sequence[int]) -> "BatchVector":
        """Add the same length-n vector to every row.

        The compiled plans' affine-gather schedules finish with this —
        the ubiquitous ``x - 1`` mul input of one-hot and bit-check
        circuits is a column gather plus one broadcast row add: a lazy
        limb add, one carry, one conditional subtraction; no Barrett,
        no convolution.
        """
        if len(self.shape) != 2:
            raise FieldError("add_row needs a 2-D batch")
        values = list(values)
        if len(values) != self.shape[1]:
            raise FieldError("row width mismatch in add_row")
        if self._numpy:
            ctx = _ctx(self.field)
            row_planes = _encode_checked(ctx, values).reshape(
                ctx.n_limbs, 1, self.shape[1]
            )
            return self._like(_np_add(ctx, self._data, row_planes))
        f = self.field
        return self._like(
            [
                [f.add(x, v) for x, v in zip(row, values)]
                for row in self._data
            ]
        )

    def is_zero(self) -> "list[bool]":
        """Per-element zero test of a 1-D batch.

        Canonical representatives make this a pure limb comparison —
        the batched accept/reject decision never decodes the combined
        round-2 planes to ints.
        """
        if len(self.shape) != 1:
            raise FieldError("is_zero needs a 1-D batch")
        if self._numpy:
            return [
                not nz for nz in (self._data != 0).any(axis=0).tolist()
            ]
        return [v == 0 for v in self._data]

    # -- reductions -----------------------------------------------------

    def sum_rows(self) -> "BatchVector":
        """Column-wise sum of a 2-D batch (the Aggregate step)."""
        if len(self.shape) != 2:
            raise FieldError("sum_rows needs a 2-D batch")
        if self._numpy:
            data = _np_sum_axis(_ctx(self.field), self._data, axis=1)
            return BatchVector(self.field, (self.shape[1],), data, True)
        return BatchVector(
            self.field, (self.shape[1],),
            self.field.vec_sum(self._data), False,
        )

    # -- NTT ------------------------------------------------------------

    def ntt(self, root: int) -> "BatchVector":
        """Forward NTT along the last axis (length must be a power of 2)."""
        n = self.shape[-1]
        if n < 1 or n & (n - 1) != 0:
            raise FieldError(f"NTT size must be a power of two, got {n}")
        if self._numpy:
            planes = self._data if len(self.shape) == 2 else \
                self._data[:, None, :]
            out = _np_ntt(_ctx(self.field), planes, root)
            if len(self.shape) == 1:
                out = out[:, 0, :]
            return self._like(out)
        from repro.field.ntt import ntt as _scalar_ntt

        if len(self.shape) == 2:
            return self._like(
                [_scalar_ntt(self.field, row, root) for row in self._data]
            )
        return self._like(_scalar_ntt(self.field, self._data, root))

    def intt(self, root: int) -> "BatchVector":
        """Inverse NTT along the last axis."""
        n = self.shape[-1]
        p = self.field.modulus
        out = self.ntt(pow(root, -1, p))
        return out.scale(pow(n, -1, p))


# ----------------------------------------------------------------------
# Wire-byte codecs and ingest kernels: big-endian wire bodies <-> limb
# planes with pure numpy (3 wire bytes per 24-bit limb), plus the
# vectorized PRG rejection sampler and batch assembly.
# ----------------------------------------------------------------------


#: zero bytes joined after the last record, so the four-byte top-limb
#: window of a record narrower than four bytes stays inside the blob
_WINDOW_TAIL = bytes(3)


def _limb_window(blob, size: int, count: int, limb: int, index=None, out=None):
    """Limb ``limb`` of ``count`` back-to-back ``size``-byte records.

    ``blob`` holds the big-endian records followed by
    :data:`_WINDOW_TAIL`.  Limb ``i`` is the low three bytes of the four
    ending ``3i`` bytes before a record's end, so across all records it
    is one strided ``>u4`` view at byte offset ``size - 4 - 3i``.  A
    top limb narrower than that (negative offset) is viewed from the
    record's first byte instead and shifted right past the bytes that
    belong to the next record.  ``index`` reads a subset of records.
    Returns the limbs as a new uint32 array, or writes them into
    ``out`` (an int64 plane).
    """
    offset = size - 4 - 3 * limb
    words = _np.ndarray((count,), ">u4", blob, max(offset, 0), (size,))
    if index is not None:
        words = words[index]
    if out is None:
        out = words.astype(_np.uint32)
    else:
        out[...] = words
    if offset < 0:
        out >>= -8 * offset
    else:
        out &= LIMB_MASK
    return out


def _ge_modulus(ctx: _LimbContext, blob, size: int, count: int, top):
    """``value >= p`` flags of ``count`` records with top limbs ``top``.

    Lexicographic compare from the top limb.  Only records still tied
    with ``p`` read their next limb, as an index subset, so the compare
    is about two passes over ``top``: a uniform record ties the top limb
    of a shipped modulus with probability 2^-15 or less, except F265,
    whose one-bit top limb sends half its records to a second limb.
    """
    L = ctx.n_limbs
    p = ctx.p_planes.tolist()          # Python ints keep uint32 compares
    ge = top > p[L - 1]
    tied = _np.flatnonzero(top == p[L - 1])
    for i in range(L - 2, -1, -1):
        if not tied.size:
            return ge
        limb = _limb_window(blob, size, count, i, index=tied)
        ge[tied[limb > p[i]]] = True
        tied = tied[limb == p[i]]
    ge[tied] = True
    return ge


def _planes_to_bytes(ctx: _LimbContext, planes, width: int):
    """Canonical ``(L, ...)`` planes -> uint8 array ``(..., width)``.

    Inverse of the limb windows :func:`decode_bytes_batch` reads;
    canonical values never carry bits above ``width`` bytes, so the
    high pad is provably zero.
    """
    L = ctx.n_limbs
    grouped = _np.empty(planes.shape[1:] + (L, 3), dtype=_np.uint8)
    for g in range(L):
        limb = planes[L - 1 - g]
        grouped[..., g, 0] = (limb >> 16) & 0xFF
        grouped[..., g, 1] = (limb >> 8) & 0xFF
        grouped[..., g, 2] = limb & 0xFF
    flat = grouped.reshape(planes.shape[1:] + (3 * L,))
    return flat[..., 3 * L - width:]


def _out_of_range_error(row: int, element: int) -> FieldError:
    """A :class:`FieldError` carrying the offending batch position.

    ``batch_row``/``batch_element`` let callers that decoded a *subset*
    of a larger batch (e.g. the EXPLICIT packets of a mixed upload
    batch) remap the position to their own indexing before reporting.
    """
    exc = FieldError(
        f"encoded value out of range at batch row {row}, element {element}"
    )
    exc.batch_row = row
    exc.batch_element = element
    return exc


def decode_bytes_batch(
    field: PrimeField,
    bodies: Sequence[bytes],
    force_pure: bool | None = None,
    check: bool = True,
) -> BatchVector:
    """Decode equal-length wire bodies straight into a ``(B, n)`` batch.

    Each body is the fixed-width big-endian element vector the wire
    format ships (``field.encode_vector`` layout).  On the numpy
    backend the bytes land in limb planes without any per-element
    ``int.from_bytes`` — one strided window read per limb
    (:func:`_limb_window`) straight off the joined bodies.

    ``check=True`` (the default, matching ``field.decode_vector``)
    rejects elements >= p with a :class:`FieldError` naming the batch
    position; ``check=False`` Barrett-reduces them instead, which is
    what the unchecked PRG candidate path wants.
    """
    bodies = list(bodies)
    size = field.encoded_size
    if not bodies:
        return BatchVector.zeros(field, (0, 0), force_pure)
    if len(bodies[0]) % size != 0:
        raise FieldError("vector encoding is not a whole number of elements")
    n = len(bodies[0]) // size
    for body in bodies:
        if len(body) != n * size:
            raise FieldError("ragged bodies in byte batch")
    if not use_numpy(force_pure):
        p = field.modulus
        rows = []
        for r, body in enumerate(bodies):
            row = []
            for i in range(0, len(body), size):
                value = int.from_bytes(body[i : i + size], "big")
                if value >= p:
                    if check:
                        raise _out_of_range_error(r, i // size)
                    value %= p
                row.append(value)
            rows.append(row)
        return BatchVector(field, (len(bodies), n), rows, False)
    ctx = _ctx(field)
    L = ctx.n_limbs
    B = len(bodies)
    count = B * n
    planes = _np.empty((L, B, n), dtype=_np.int64)
    if count:
        blob = b"".join(bodies) + _WINDOW_TAIL
        flat = planes.reshape(L, count)
        _limb_window(blob, size, count, L - 1, out=flat[L - 1])
        ge_p = _ge_modulus(ctx, blob, size, count, flat[L - 1])
        out_of_range = bool(ge_p.any())
        if out_of_range and check:
            # argmax of the flat flags is the row-major first offender
            raise _out_of_range_error(*divmod(int(ge_p.argmax()), n))
        for i in range(L - 1):
            _limb_window(blob, size, count, i, out=flat[i])
        if out_of_range:
            planes = _barrett(ctx, planes)
    return BatchVector(field, (B, n), planes, True)


def encode_bytes_batch(
    field: PrimeField,
    batch: "BatchVector | Sequence[Sequence[int]]",
    force_pure: bool | None = None,
) -> list[bytes]:
    """Encode a 2-D batch back to one wire body per row.

    Inverse of :func:`decode_bytes_batch`: each returned ``bytes`` is
    bit-identical to ``field.encode_vector`` of that row.
    """
    if not isinstance(batch, BatchVector):
        batch = BatchVector.from_ints(field, list(batch), force_pure)
    if len(batch.shape) != 2:
        raise FieldError("encode_bytes_batch needs a 2-D batch")
    if not batch._numpy:
        # repro: allow(plane-discipline) - pure backend stores int rows;
        # there is no plane blob to slice, so per-row encode is the path
        return [field.encode_vector(row) for row in batch._data]
    ctx = _ctx(field)
    size = field.encoded_size
    flat = _planes_to_bytes(ctx, batch._data, size)
    B = batch.shape[0]
    blob = _np.ascontiguousarray(flat).reshape(B, -1)
    return [blob[b].tobytes() for b in range(B)]


def rejection_sample_batch(
    field: PrimeField,
    blob,
    shape: tuple[int, int],
    length: int,
) -> tuple[BatchVector, list[int]]:
    """Vectorized PRG rejection sampling (numpy backend only).

    ``blob`` (bytes or a uint8 array) holds ``shape = (B, n_cand)``
    rows of ``n_cand`` fixed-width big-endian candidate records, one
    row per PRG stream, back to back, followed by at least
    ``len(_WINDOW_TAIL)`` bytes the limb windows read past the last
    record; :func:`repro.sharing.prg.expand_seed_batch` writes its
    keystream straight into such a buffer.  Candidates are masked to
    the modulus bit width and accepted where ``< p`` — exactly the
    scalar sampler's rule, so survivors are bit-identical to
    :func:`repro.sharing.prg.expand_seed` on the same stream.  Returns
    the ``(B, length)`` batch plus the indices of rows that held fewer
    than ``length`` survivors (left zero-filled; the caller retries
    those through the scalar sampler).

    Only the top limb of every candidate is read (masked, then range
    checked by :func:`_ge_modulus`).  The flat indices of the accepted
    candidates list each row's survivors in stream order, row after
    row, so row ``b``'s first ``length`` sit at its ``cumsum`` offset;
    just those records are gathered and split into limb planes.
    """
    if _np is None:
        raise FieldError("rejection_sample_batch needs the numpy backend")
    ctx = _ctx(field)
    L = ctx.n_limbs
    size = field.encoded_size
    B, n_cand = shape
    count = B * n_cand
    if len(blob) < count * size + len(_WINDOW_TAIL):
        raise FieldError(
            f"candidate blob holds {len(blob)} bytes; {B} rows of "
            f"{n_cand} records need {count * size} plus "
            f"{len(_WINDOW_TAIL)} of tail"
        )
    if B == 0 or length == 0:
        return BatchVector.zeros(field, (B, length), False), []
    top_mask = ((1 << field.bits) - 1) >> (LIMB_BITS * (L - 1))
    top = _limb_window(blob, size, count, L - 1)
    top &= top_mask
    accept = ~_ge_modulus(ctx, blob, size, count, top)
    counts = accept.reshape(B, n_cand).sum(axis=1)
    short = counts < length
    short_rows = _np.flatnonzero(short).tolist()
    survivors = _np.flatnonzero(accept)
    if not survivors.size:
        return BatchVector.zeros(field, (B, length), False), short_rows
    planes = _np.empty((L, B, length), dtype=_np.int64)
    pick = (_np.cumsum(counts) - counts)[:, None] + _np.arange(length)
    if short_rows:
        # a short row runs into later rows' survivors, or past the last
        # one; it is zeroed below, so any in-bounds index will do
        _np.minimum(pick, survivors.size - 1, out=pick)
    record = _np.dtype((_np.void, size))
    gathered = _np.zeros(B * length * size + len(_WINDOW_TAIL), _np.uint8)
    _np.take(
        _np.ndarray((count,), record, blob), survivors[pick.ravel()],
        out=gathered[: B * length * size].view(record),
    )
    flat = planes.reshape(L, B * length)
    for i in range(L):
        _limb_window(gathered, size, B * length, i, out=flat[i])
    flat[L - 1] &= top_mask
    if short_rows:
        planes[:, short, :] = 0
    return BatchVector(field, (B, length), planes, True), short_rows


def assemble_rows(
    field: PrimeField,
    sources: Sequence["tuple[BatchVector, int] | Sequence[int]"],
    force_pure: bool | None = None,
) -> BatchVector:
    """Stack heterogeneous row sources into one ``(B, n)`` batch.

    Each source is either a ``(BatchVector, row_index)`` pair — the row
    planes are copied, never re-encoded through Python ints — or a
    plain ``Sequence[int]`` row (the scalar-fallback seam).  This is
    how a server merges SEED-expanded and EXPLICIT-decoded packets
    into the single share matrix that batched verification consumes.
    """
    B = len(sources)
    if B == 0:
        return BatchVector.zeros(field, (0, 0), force_pure)
    first = sources[0]
    # Zero-copy fast path: every source is row i of the same batch, in
    # order, covering it exactly — the batch *is* the share matrix.
    if (
        isinstance(first, tuple)
        and first[0].shape[0] == B
        and first[0].backend == backend_name(force_pure)
        and all(
            isinstance(src, tuple) and src[0] is first[0] and src[1] == j
            for j, src in enumerate(sources)
        )
    ):
        return first[0]
    width = first[0].shape[-1] if isinstance(first, tuple) else len(first)
    if use_numpy(force_pure):
        ctx = _ctx(field)
        out = _np.empty((ctx.n_limbs, B, width), dtype=_np.int64)
        for j, src in enumerate(sources):
            if isinstance(src, tuple):
                bv, r = src
                if bv.shape[-1] != width:
                    raise FieldError("row width mismatch in assemble_rows")
                if bv._numpy:
                    out[:, j, :] = bv._data[:, r, :]
                else:
                    out[:, j, :] = _encode_checked(ctx, list(bv._data[r]))
            else:
                row = list(src)
                if len(row) != width:
                    raise FieldError("row width mismatch in assemble_rows")
                out[:, j, :] = _encode_checked(ctx, row)
        return BatchVector(field, (B, width), out, True)
    rows = []
    for src in sources:
        # repro: allow(plane-discipline) - pure fallback: sources mix
        # batches and raw rows, so assembly goes through ints by design
        row = src[0].row_ints(src[1]) if isinstance(src, tuple) else list(src)
        if len(row) != width:
            raise FieldError("row width mismatch in assemble_rows")
        rows.append(row)
    return BatchVector.from_ints(field, rows, force_pure)


def interleave_columns(even: BatchVector, odd: BatchVector) -> BatchVector:
    """Merge two ``(B, n)`` batches into ``(B, 2n)``, alternating columns.

    ``out[:, 2j] = even[:, j]`` and ``out[:, 2j + 1] = odd[:, j]`` —
    how :func:`coset_extend_product`'s canonical route assembles h over
    the double domain from its even (free) and odd (twisted-NTT) halves
    without decoding planes.
    """
    if len(even.shape) != 2 or even.shape != odd.shape:
        raise FieldError("interleave_columns needs matching 2-D batches")
    if even._numpy != odd._numpy:
        raise FieldError("backend mismatch between operands")
    B, n = even.shape
    if even._numpy:
        out = _np.empty(
            (even._data.shape[0], B, 2 * n), dtype=_np.int64
        )
        out[..., 0::2] = even._data
        out[..., 1::2] = odd._data
        return BatchVector(even.field, (B, 2 * n), out, True)
    rows = [
        [x for pair in zip(er, orow) for x in pair]
        for er, orow in zip(even._data, odd._data)
    ]
    return BatchVector(even.field, (B, 2 * n), rows, False)


def coset_extend_product(f: BatchVector, g: BatchVector) -> BatchVector:
    """``h = f * g`` on the size-2N domain, from evaluations on size N.

    ``f`` and ``g`` are ``(B, N)`` batches of polynomial evaluations on
    the order-N subgroup (N a power of two); row ``b`` of the ``(B,
    2N)`` result holds the product polynomial's evaluations on the
    order-2N subgroup.  This is the SNIP prover's whole deterministic
    sweep: even points are ``f[j] * g[j]`` outright, odd points come
    from interpolating, twisting the coefficients by ``w_2N^k`` and
    re-evaluating — a size-N transform pair, never a size-2N one.  The
    numpy backend runs it as one fused kernel that stays in lazy limb
    planes between the transforms (:func:`_np_coset_product`); results
    are canonical and bit-identical on both backends.
    """
    f._check(g)
    if len(f.shape) != 2:
        raise FieldError("coset_extend_product needs 2-D batches")
    field = f.field
    B, n = f.shape
    if n == 0 or n & (n - 1) != 0:
        raise FieldError(f"NTT size must be a power of two, got {n}")
    if f._numpy:
        ctx = _ctx(field)
        if ctx.lazy_ntt_fits(n, 2):
            return BatchVector(
                field, (B, 2 * n),
                _np_coset_product(ctx, f._data, g._data), True,
            )
    # Pure backend, or a modulus without lazy headroom: the same sweep
    # through the canonical batch ops.
    p = field.modulus
    root = field.root_of_unity(n)
    twist = _power_row(p, pow(n, -1, p), field.root_of_unity(2 * n), n)
    coeffs_scaled = stack_rows([f, g]).ntt(pow(root, -1, p))
    odd = coeffs_scaled.mul_row(twist).ntt(root)
    return interleave_columns(
        f * g,
        odd.take_rows(range(B)) * odd.take_rows(range(B, 2 * B)),
    )


def concat_columns(
    field: PrimeField,
    parts: "Sequence[BatchVector | Sequence[Sequence[int]]]",
    force_pure: bool | None = None,
) -> BatchVector:
    """Stack 2-D parts side by side into one ``(B, sum-of-widths)`` batch.

    The column-axis dual of :func:`assemble_rows`: each part is either a
    2-D :class:`BatchVector` (its limb planes are copied directly, never
    decoded through Python ints) or a sequence of ``B`` equal-length int
    rows (encoded once).  The batched client prover assembles the
    ``x || f0 g0 || h || a b c`` submission matrix this way — the AFE
    encodings and the per-submission proof scalars are Python ints by
    nature, while the bulky ``h`` evaluations arrive as planes from the
    batch NTT and join without an int crossing.
    """
    parts = list(parts)
    if not parts:
        raise FieldError("concat_columns needs at least one part")
    widths: list[int] = []
    n_rows: int | None = None
    for part in parts:
        if isinstance(part, BatchVector):
            if len(part.shape) != 2:
                raise FieldError("concat_columns needs 2-D parts")
            rows, width = part.shape
        else:
            rows = len(part)
            width = len(part[0]) if rows else 0
            for row in part:
                if len(row) != width:
                    raise FieldError("ragged rows in concat_columns part")
        if n_rows is None:
            n_rows = rows
        elif rows != n_rows:
            raise FieldError(
                f"row-count mismatch in concat_columns: {rows} vs {n_rows}"
            )
        widths.append(width)
    total = sum(widths)
    if use_numpy(force_pure):
        ctx = _ctx(field)
        out = _np.zeros((ctx.n_limbs, n_rows, total), dtype=_np.int64)
        col = 0
        for part, width in zip(parts, widths):
            if width == 0:
                continue
            if isinstance(part, BatchVector) and part._numpy:
                out[:, :, col:col + width] = part._data
            else:
                rows = part._data if isinstance(part, BatchVector) else part
                flat = [v for row in rows for v in row]
                out[:, :, col:col + width] = _encode_checked(
                    ctx, flat
                ).reshape(ctx.n_limbs, n_rows, width)
            col += width
        return BatchVector(field, (n_rows, total), out, True)
    p = field.modulus
    rows_out: list[list[int]] = [[] for _ in range(n_rows)]
    for part in parts:
        if isinstance(part, BatchVector):
            # repro: allow(plane-discipline) - pure fallback: one
            # materialization per *part*, not per submission row
            for i, row in enumerate(part.to_ints()):
                rows_out[i].extend(row)
        else:
            for i, row in enumerate(part):
                rows_out[i].extend(v % p for v in row)
    return BatchVector(field, (n_rows, total), rows_out, False)


def stack_rows(parts: "Sequence[BatchVector]") -> BatchVector:
    """Stack 2-D batches on top of each other along the row axis.

    The row-axis dual of :func:`concat_columns` for plane parts: all
    parts must share width and backend, and their limb planes are
    copied directly (never decoded).  :func:`coset_extend_product`
    stacks the f-rows on top of the g-rows this way to ride one
    ``(2B, N)`` NTT pair.
    """
    parts = list(parts)
    if not parts:
        raise FieldError("stack_rows needs at least one part")
    width = None
    is_numpy = parts[0]._numpy
    for part in parts:
        if not isinstance(part, BatchVector) or len(part.shape) != 2:
            raise FieldError("stack_rows needs 2-D BatchVector parts")
        if width is None:
            width = part.shape[1]
        elif part.shape[1] != width:
            raise FieldError(
                f"width mismatch in stack_rows: {part.shape[1]} vs {width}"
            )
        if part._numpy != is_numpy:
            raise FieldError("backend mismatch between stack_rows parts")
    n_rows = sum(part.shape[0] for part in parts)
    if is_numpy:
        data = _np.concatenate([part._data for part in parts], axis=1)
        return BatchVector(parts[0].field, (n_rows, width), data, True)
    rows = [list(row) for part in parts for row in part._data]
    return BatchVector(parts[0].field, (n_rows, width), rows, False)


def segment_sum_columns(
    batch: BatchVector, offsets: Sequence[int]
) -> BatchVector:
    """Field-sum contiguous column segments: ``(B, nnz) -> (B, n_out)``.

    Output column ``j`` is the sum of input columns
    ``offsets[j]:offsets[j+1]`` mod p; ``offsets`` is a CSR-style
    monotone index list with a final sentinel equal to the input width,
    and every segment must be non-empty (``np.add.reduceat`` would
    silently misbehave on empty segments, so they are rejected — the
    compiled-circuit plan pads empty affine forms with an explicit zero
    term instead).  On numpy this is one ``reduceat`` per limb plane
    with lazy accumulation; segments longer than the lazy-sum safety
    limit (never reached by real circuits) fall back to per-segment
    chunked sums.
    """
    if len(batch.shape) != 2:
        raise FieldError("segment_sum_columns needs a 2-D batch")
    offsets = list(offsets)
    if len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != batch.shape[1]:
        raise FieldError("segment offsets must span the batch width")
    n_out = len(offsets) - 1
    lengths = [offsets[i + 1] - offsets[i] for i in range(n_out)]
    if any(length <= 0 for length in lengths):
        raise FieldError("segment_sum_columns segments must be non-empty")
    shape = (batch.shape[0], n_out)
    if batch._numpy:
        ctx = _ctx(batch.field)
        # Lazy per-limb sums of S canonical values stay exact while
        # S * 2^24 < 2^63 (int64 lanes) and S * p < base^(2L)
        # (Barrett's domain); max_dot_terms is a stricter bound than
        # either, so reuse it as the guard.
        limit = min(ctx.max_dot_terms, 1 << (63 - LIMB_BITS))
        if max(lengths) <= limit:
            lazy = _np.add.reduceat(batch._data, offsets[:-1], axis=2)
            data = _barrett(ctx, _carry(lazy, 2 * ctx.n_limbs))
        else:
            cols = [
                _np_sum_axis(
                    ctx, batch._data[:, :, offsets[i]:offsets[i + 1]], axis=2
                )
                for i in range(n_out)
            ]
            data = _np.stack(cols, axis=2)
        return BatchVector(batch.field, shape, data, True)
    p = batch.field.modulus
    rows = [
        [
            sum(row[offsets[i]:offsets[i + 1]]) % p
            for i in range(n_out)
        ]
        for row in batch._data
    ]
    return BatchVector(batch.field, shape, rows, False)


def sparse_affine_columns(
    base: BatchVector,
    srcs: Sequence[int],
    coeffs: Sequence[int],
    offsets: Sequence[int],
) -> BatchVector:
    """Fused sparse-affine apply: ``out[:, j] = sum_i c_i * base[:, s_i]``.

    The compiled plans' general schedule — gather the ``srcs`` columns
    of a ``(B, n_base)`` batch, scale by the coefficient row, field-sum
    each CSR segment ``offsets[j]:offsets[j+1]`` — as one kernel with a
    single modular reduction.  When every coefficient is small or
    negated-small mod p (every real Valid circuit: ``±1``/``±2^i``
    rows) and segments fit the int64 lazy headroom, the nnz-wide
    intermediate never sees a carry: two broadcast multiplies on the
    gathered planes, one ``reduceat`` per limb, then one Barrett pass
    on the narrow ``(B, n_out)`` result — per-segment ``S_j * (p<<24)``
    pads keep the signed lazy totals nonnegative exactly as in
    :func:`_np_mul_small_row`.  Full-width coefficients or oversized
    segments fall back to the exact gather / ``mul_row`` /
    :func:`segment_sum_columns` pipeline.
    """
    if len(base.shape) != 2:
        raise FieldError("sparse_affine_columns needs a 2-D batch")
    srcs = list(srcs)
    coeffs = list(coeffs)
    offsets = list(offsets)
    if len(srcs) != len(coeffs):
        raise FieldError("srcs/coeffs length mismatch")
    if len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != len(srcs):
        raise FieldError("segment offsets must span the term list")
    n_out = len(offsets) - 1
    lengths = [offsets[i + 1] - offsets[i] for i in range(n_out)]
    if any(length <= 0 for length in lengths):
        raise FieldError("sparse_affine_columns segments must be non-empty")
    if base._numpy:
        ctx = _ctx(base.field)
        L = ctx.n_limbs
        B = base.shape[0]
        pad = ctx.modulus << LIMB_BITS
        max_len = max(lengths) if lengths else 1
        # Lazy headroom: S products of magnitude < 2^48 plus the pad
        # limbs must stay inside int64 lanes, and the padded segment
        # total 2 * S * (p << 24) inside Barrett's base^(2L) domain.
        width = -((2 * max_len * pad).bit_length() // -LIMB_BITS)
        split = (
            _small_row_split(ctx, coeffs)
            if max_len <= (1 << (62 - 2 * LIMB_BITS)) and width <= 2 * L
            else None
        )
        if split is not None:
            pos, neg = split
            gathered = base._data[:, :, srcs]
            terms = gathered * pos - gathered * neg
            lazy = _np.add.reduceat(terms, offsets[:-1], axis=2)
            widened = _np.zeros((width, B, n_out), dtype=_np.int64)
            widened[:L] = lazy
            pads = _np.array(
                [_int_limbs(length * pad, width) for length in lengths],
                dtype=_np.int64,
            ).T.reshape(width, 1, n_out)
            widened += pads
            return BatchVector(
                base.field,
                (B, n_out),
                _barrett(ctx, _carry(widened, width)),
                True,
            )
        out = base.take_columns(srcs)
        if any(c != 1 for c in coeffs):
            out = out.mul_row(coeffs)
        return segment_sum_columns(out, offsets)
    p = base.field.modulus
    rows = [
        [
            sum(
                row[srcs[i]] * coeffs[i]
                for i in range(offsets[j], offsets[j + 1])
            )
            % p
            for j in range(n_out)
        ]
        for row in base._data
    ]
    return BatchVector(base.field, (base.shape[0], n_out), rows, False)


def signed_delta_batch(
    field: PrimeField,
    positives,
    negatives,
    force_pure: bool | None = None,
) -> BatchVector:
    """``(positives - negatives) mod p`` as a 1-D batch, vectorized.

    ``positives``/``negatives`` are equal-length sequences of small
    nonnegative integers — anything numpy can view as ``int64`` (e.g.
    batched Poisson draws).  This is the signed-embedding seam the
    distributed differential-privacy noising uses: each server's noise
    share is a difference of two Polya draws, and mapping it into the
    field plane-resident means the noised accumulator never crosses to
    Python ints before ``publish()``.

    On the numpy backend the limb split is ``L`` shift-and-mask passes
    over the ``int64`` input followed by one vectorized modular
    subtraction — no per-component Python-int field ops anywhere.
    """
    if use_numpy(force_pure):
        ctx = _ctx(field)
        pos = _np.asarray(positives, dtype=_np.int64)
        neg = _np.asarray(negatives, dtype=_np.int64)
        if pos.ndim != 1 or pos.shape != neg.shape:
            raise FieldError("signed_delta_batch needs equal 1-D inputs")
        if pos.size and (bool((pos < 0).any()) or bool((neg < 0).any())):
            raise FieldError("signed_delta_batch inputs must be nonnegative")
        if field.modulus.bit_length() <= 63:
            modulus = _np.int64(field.modulus)
            pos = pos % modulus
            neg = neg % modulus
        # else: any int64 value is already < p, hence canonical.
        L = ctx.n_limbs
        pos_planes = _np.zeros((L,) + pos.shape, dtype=_np.int64)
        neg_planes = _np.zeros((L,) + neg.shape, dtype=_np.int64)
        for i in range(L):
            shift = LIMB_BITS * i
            if shift >= 63:
                break  # int64 inputs have no bits there; a >=64-bit
                # numpy shift would also be undefined, not zero
            pos_planes[i] = (pos >> shift) & LIMB_MASK
            neg_planes[i] = (neg >> shift) & LIMB_MASK
        return BatchVector(
            field, pos.shape, _np_sub(ctx, pos_planes, neg_planes), True
        )
    p = field.modulus
    positives = [int(v) for v in positives]
    negatives = [int(v) for v in negatives]
    if len(positives) != len(negatives):
        raise FieldError("signed_delta_batch needs equal 1-D inputs")
    if any(v < 0 for v in positives) or any(v < 0 for v in negatives):
        raise FieldError("signed_delta_batch inputs must be nonnegative")
    return BatchVector(
        field, (len(positives),),
        [(a - b) % p for a, b in zip(positives, negatives)], False,
    )


def dot_batch_planes(
    field: PrimeField,
    weights_list: "Sequence[Sequence[int]] | PreparedWeights",
    batch: BatchVector,
) -> BatchVector:
    """Batched functionals, plane-resident: ``out[k, b] = w_k . row_b``.

    The unified verification core: the share matrix arrives as limb
    planes (from :func:`assemble_rows`) and the per-submission round
    scalars come back as a ``(K, B)`` :class:`BatchVector` — no
    list-of-ints crossing at all, so the round-1/round-2 message
    algebra downstream can stay in plane form too.
    """
    if not isinstance(weights_list, PreparedWeights):
        weights_list = PreparedWeights(field, weights_list)
    if len(batch.shape) != 2:
        raise FieldError("dot_batch_planes needs a 2-D batch")
    B, D = batch.shape
    if D != weights_list.width:
        raise FieldError(
            f"weight width {weights_list.width} vs batch width {D}"
        )
    K = weights_list.n_weights
    if B == 0:
        return BatchVector.zeros(field, (K, 0), force_pure=batch.force_pure)
    if batch._numpy:
        ctx = _ctx(field)
        out = _np_matvec(ctx, weights_list.split(ctx), batch._data)
        return BatchVector(field, (K, B), out, True)
    return BatchVector(
        field, (K, B),
        [
            [field.inner_product(w, row) for row in batch._data]
            for w in weights_list.weights_list
        ],
        False,
    )


class PreparedWeights:
    """Weight vectors pre-validated (and pre-split) for reuse.

    The verifier applies the same challenge functionals to every batch
    under a context; preparing them once pays the list->limb conversion
    and the float64 half-limb split (:meth:`split`) once per epoch.
    Transparent to the pure backend (the original rows are kept).
    """

    __slots__ = ("field", "n_weights", "width", "weights_list", "_split")

    def __init__(
        self, field: PrimeField, weights_list: Sequence[Sequence[int]]
    ) -> None:
        self.field = field
        self.weights_list = [list(w) for w in weights_list]
        self.n_weights = len(self.weights_list)
        self.width = len(self.weights_list[0]) if self.weights_list else 0
        for w in self.weights_list:
            if len(w) != self.width:
                raise FieldError("ragged weight vectors")
        self._split = None

    def split(self, ctx: "_LimbContext"):
        """The ``(2LK, D)`` float64 half-limb matrix :func:`_np_matvec`
        multiplies by: row ``(i, h, k)`` holds the low (``h = 0``) or
        high 12 bits of weight ``k``'s limb ``i``."""
        if self._split is None:
            flat: list[int] = []
            for w in self.weights_list:
                flat.extend(w)
            planes = _encode_checked(ctx, flat).reshape(
                ctx.n_limbs, self.n_weights, self.width
            )
            halves = _np.stack(
                [planes & _HALF_MASK, planes >> _HALF_BITS], axis=1
            )
            self._split = halves.reshape(
                2 * ctx.n_limbs * self.n_weights, self.width
            ).astype(_np.float64)
        return self._split
