"""PRG-compressed secret sharing (Appendix I, first optimization).

The naive way to split ``x in F^L`` into ``s`` shares ships ``s * L``
field elements.  Instead, the first ``s - 1`` shares are the output of a
pseudo-random generator on a short seed, and only the last share is an
explicit vector:

    [x]_i = PRG(seed_i)            for i < s
    [x]_s = x - sum_{i<s} PRG(seed_i)

Total upload: ``L + O(1)`` elements — a ~5x bandwidth saving in the
paper's five-server deployment.

The paper's prototype uses AES in counter mode; this reproduction uses
the SHAKE-256 XOF from ``hashlib`` (the only keyed PRG available
offline), which has the same interface contract: a short uniform seed
expands to an unbounded pseudorandom stream.  Field elements are
derived from the stream by rejection sampling so they are uniform in
``[0, p)`` with no modular bias.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Sequence

from repro.field.prime_field import FieldError, PrimeField

#: Seed length in bytes (128-bit security, matching the paper's lambda).
SEED_SIZE = 16

class PrgStream:
    """An incremental SHAKE-256 output stream with a byte cursor.

    ``hashlib``'s SHAKE objects only expose one-shot ``digest(n)``, so
    every buffer growth re-digests the stream prefix from scratch.  The
    produced bytes are memoized in ``_buffer`` (repeated small reads
    just slice it), growth is geometric (total digest work stays linear
    in bytes read), and callers that know their total demand up front
    pass ``reserve`` so the first read digests once for the whole
    expansion instead of growing through it.
    """

    def __init__(
        self, seed: bytes, domain: bytes = b"prio-prg", reserve: int = 0
    ) -> None:
        if len(seed) != SEED_SIZE:
            raise FieldError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
        self._xof = hashlib.shake_256(domain + b"\x00" + seed)
        self._buffer = b""
        self._cursor = 0
        self._reserve = max(0, reserve)

    def read(self, n: int) -> bytes:
        needed = self._cursor + n
        if needed > len(self._buffer):
            new_size = max(needed, 2 * len(self._buffer), self._reserve, 256)
            self._buffer = self._xof.digest(new_size)
        if self._cursor == 0 and n == len(self._buffer):
            # The whole-buffer read (a reserved one-shot expansion):
            # skip the slice copy.
            self._cursor = n
            return self._buffer
        out = self._buffer[self._cursor : self._cursor + n]
        self._cursor += n
        return out


def _acceptance_rate(field: PrimeField) -> float:
    """Probability that a masked candidate lands in ``[0, p)``.

    Candidates are uniform ``field.bits``-bit integers, so this is
    ``p / 2^bits`` — 0.99979 for F87 and ~1 for Goldilocks, primes just
    below a power of two, but about 0.5 for F265 (``2^264 < p``: the
    lone top bit buys almost no range).
    """
    return field.modulus / (1 << field.bits)


def _candidates_for(field: PrimeField, n_elements: int) -> int:
    """Candidates to draw so ``n_elements`` survive rejection w.h.p.

    The draws needed for ``n`` survivors at acceptance ``a`` are
    negative binomial: mean ``n/a``, standard deviation
    ``sqrt(n(1-a))/a``.  The budget is the draws for ``n`` survivors
    plus five standard deviations plus six more, which covers the
    skewed tail at small ``n`` (five deviations alone draw 10
    candidates for one survivor at ``a = 0.5``, short 1 time in
    1 000).  A row then falls short with probability below 1e-6 on
    every shipped field, at every length.
    """
    if n_elements <= 0:
        return 0
    accept = _acceptance_rate(field)
    slack = 5.0 * math.sqrt(n_elements * (1.0 - accept)) + 6.0
    return math.ceil((n_elements + slack) / accept)


def expand_seed(field: PrimeField, seed: bytes, length: int) -> list[int]:
    """Expand a seed into ``length`` uniform field elements.

    Rejection sampling: draw ``encoded_size`` bytes, mask to the modulus
    bit width, retry on >= p.  Acceptance is purely positional in the
    XOF stream (candidate ``j`` occupies bytes ``[j*size, (j+1)*size)``
    regardless of read chunking), which is what lets the vectorized
    :func:`expand_seed_batch` reproduce this function bit for bit.
    """
    p = field.modulus
    bits = field.bits
    size = field.encoded_size
    excess_bits = size * 8 - bits
    mask = (1 << bits) - 1
    stream = PrgStream(seed, reserve=size * _candidates_for(field, length))
    out: list[int] = []
    while len(out) < length:
        chunk = stream.read(size * _candidates_for(field, length - len(out)))
        for offset in range(0, len(chunk) - size + 1, size):
            candidate = int.from_bytes(chunk[offset : offset + size], "big")
            if excess_bits:
                candidate &= mask
            if candidate < p:
                out.append(candidate)
                if len(out) == length:
                    break
    return out


def expand_seed_batch(
    field: PrimeField,
    seeds: Sequence[bytes],
    length: int,
    force_pure: bool | None = None,
):
    """Expand many seeds in one vectorized sweep.

    Row ``i`` of the returned ``(len(seeds), length)``
    :class:`~repro.field.batch.BatchVector` is bit-identical to
    ``expand_seed(field, seeds[i], length)``: the XOF streams are
    digested per seed (C-speed hashing), and the joined digests go to
    :func:`repro.field.batch.rejection_sample_batch`, which range-checks
    every candidate's top limb as a strided window over those bytes and
    splits only the first ``length`` survivors of each row into limb
    planes — cheap enough that on F87, which rejects almost nothing,
    the SHAKE digest is a third of the stage at 12 021 elements and
    over half at 1 540.  The rare row whose candidate budget still
    falls short (below 1e-6 per row) is retried through the scalar
    sampler — same stream, same survivors.
    """
    from repro.field.batch import BatchVector, rejection_sample_batch, use_numpy

    seeds = list(seeds)
    if not use_numpy(force_pure):
        if not seeds:
            return BatchVector.zeros(field, (0, max(0, length)), force_pure)
        return BatchVector.from_ints(
            field,
            # repro: allow(plane-discipline) - pure-backend fallback IS
            # the scalar path; it defines the bytes the batch must match
            [expand_seed(field, seed, length) for seed in seeds],
            force_pure,
        )
    if not seeds or length <= 0:
        return BatchVector.zeros(field, (len(seeds), max(0, length)), False)
    size = field.encoded_size
    n_bytes = size * _candidates_for(field, length)
    byte_rows = [
        PrgStream(seed, reserve=n_bytes).read(n_bytes) for seed in seeds
    ]
    batch, short_rows = rejection_sample_batch(field, byte_rows, length)
    for row in short_rows:
        # repro: allow(plane-discipline) - scalar retry only for rows
        # whose candidate budget fell short (below 1e-6 per row)
        batch.set_row_ints(row, expand_seed(field, seeds[row], length))
    return batch


def new_seed(rng=None) -> bytes:
    """A fresh PRG seed; cryptographic from ``os.urandom`` by default.

    Tests pass a deterministic ``random.Random`` for reproducibility.
    """
    if rng is None:
        return os.urandom(SEED_SIZE)
    return rng.randbytes(SEED_SIZE)


def prg_share_vector(
    field: PrimeField, xs: Sequence[int], n_shares: int, rng=None
) -> tuple[list[bytes], list[int]]:
    """Split ``xs`` into ``n_shares - 1`` seeds plus one explicit vector.

    Returns ``(seeds, explicit_share)``: party ``i < n_shares - 1``
    receives ``seeds[i]``; the last party receives ``explicit_share``.
    """
    if n_shares < 1:
        raise FieldError(f"need at least one share, got {n_shares}")
    p = field.modulus
    seeds = [new_seed(rng) for _ in range(n_shares - 1)]
    last = [v % p for v in xs]
    for seed in seeds:
        # repro: allow(plane-discipline) - scalar sharing API: the loop
        # is over servers (small constant), not over submissions
        expanded = expand_seed(field, seed, len(last))
        last = [(a - b) % p for a, b in zip(last, expanded)]
    return seeds, last


def prg_reconstruct_vector(
    field: PrimeField,
    seeds: Sequence[bytes],
    explicit_share: Sequence[int],
) -> list[int]:
    """Recombine a PRG-compressed sharing (inverse of ``prg_share_vector``)."""
    total = [v % field.modulus for v in explicit_share]
    p = field.modulus
    for seed in seeds:
        # repro: allow(plane-discipline) - scalar reconstruction API:
        # loop is over servers (small constant), not over submissions
        expanded = expand_seed(field, seed, len(total))
        total = [(a + b) % p for a, b in zip(total, expanded)]
    return total
