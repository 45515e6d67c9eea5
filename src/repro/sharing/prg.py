"""PRG-compressed secret sharing (Appendix I, first optimization).

The naive way to split ``x in F^L`` into ``s`` shares ships ``s * L``
field elements.  Instead, the first ``s - 1`` shares are the output of a
pseudo-random generator on a short seed, and only the last share is an
explicit vector:

    [x]_i = PRG(seed_i)            for i < s
    [x]_s = x - sum_{i<s} PRG(seed_i)

Total upload: ``L + O(1)`` elements — a ~5x bandwidth saving in the
paper's five-server deployment.

The paper's prototype runs the PRG as AES in counter mode.  Here the
stream is fixed-key AES-128, the block function the VDAF draft's
``XofFixedKeyAes128`` uses: with ``x_lo`` / ``x_hi`` the first / last
8 bytes of a block and ``sigma(x) = x_hi || (x_hi XOR x_lo)``, block
``i`` of seed ``s`` is

    x = s XOR LE128(i),    block_i = AES_K(sigma(x)) XOR sigma(x)

and the stream is the blocks in order.  The key ``K`` is public and
fixed per ``domain`` (SHAKE-256 over a label and the domain), so one
cipher context expands every seed: :func:`expand_seed_batch` builds
all of a batch's blocks in one numpy pass and encrypts them in one
OpenSSL call, instead of paying a key schedule per seed.  The draft
derives ``K`` with TurboSHAKE128 over a per-report binder, which
``hashlib`` lacks, so this stream does not interoperate with VDAF.
``docs/ANALYSIS.md`` ("Seed expansion: fixed-key AES") gives the
security argument and what one key per domain costs.

AES runs on OpenSSL through the ``cryptography`` package, a required
dependency, imported at the first expansion; without it that
expansion raises :class:`ModuleNotFoundError` naming the package.
Cipher contexts are cached per thread, never shared across threads
and never held by an object that could be pickled.  Field elements
are derived from the stream by rejection sampling so they are uniform
in ``[0, p)`` with no modular bias.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import threading
from array import array
from typing import Sequence

from repro.field.prime_field import FieldError, PrimeField

#: Seed length in bytes (128-bit security, matching the paper's lambda).
SEED_SIZE = 16

#: AES block length in bytes: the stream's unit of computation.
BLOCK_SIZE = 16

_DOMAIN = b"prio-prg"

_local = threading.local()


@functools.lru_cache(maxsize=None)
def _fixed_key(domain: bytes) -> bytes:
    """The public AES-128 key of ``domain``'s stream, derived once."""
    label = b"prio-prg fixed-key aes128\x00"
    return hashlib.shake_256(label + domain).digest(16)


def _encryptor(domain: bytes):
    """This thread's AES-128-ECB context under ``domain``'s fixed key.

    ECB over whole blocks keeps no state between calls, so a context is
    reused for every expansion on its thread.
    """
    contexts = _local.__dict__.setdefault("contexts", {})
    context = contexts.get(domain)
    if context is None:
        try:
            from cryptography.hazmat.primitives.ciphers import (
                Cipher,
                algorithms,
                modes,
            )
        except ImportError as exc:
            raise ModuleNotFoundError(
                "seed expansion runs AES-128 on OpenSSL and needs the "
                "'cryptography' package",
                name="cryptography",
            ) from exc
        cipher = Cipher(algorithms.AES(_fixed_key(domain)), modes.ECB())
        context = contexts[domain] = cipher.encryptor()
    return context


def _check_seed(seed: bytes) -> None:
    if len(seed) != SEED_SIZE:
        raise FieldError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")


@functools.lru_cache(maxsize=16)
def _sigma_terms(first_block: int, n_blocks: int) -> tuple[int, int]:
    """``(repeat, counters)`` for blocks ``first_block ..``, each one
    little-endian integer over ``n_blocks`` blocks: ``repeat`` has a 1
    at the start of every block, ``counters`` holds ``LE64(i)`` in the
    high half of block ``i``.  Cached: building them is most of a short
    read, and a deployment reads the same few shapes again and again."""
    counters = array("Q", bytes(2 * 8 * n_blocks))
    counters[1::2] = array("Q", range(first_block, first_block + n_blocks))
    if sys.byteorder == "big":
        counters.byteswap()
    ones = (b"\x01" + bytes(BLOCK_SIZE - 1)) * n_blocks
    return int.from_bytes(ones, "little"), int.from_bytes(counters, "little")


def _keystream(
    seed: bytes, first_block: int, n_blocks: int, domain: bytes
) -> bytes:
    """Blocks ``first_block .. first_block + n_blocks`` of ``seed``'s
    stream, in one OpenSSL call and a few bigint operations.

    For ``i < 2^64``, ``x_hi`` is the seed's high half and ``x_hi XOR
    x_lo`` is ``s_hi XOR s_lo XOR i``: every sigma input is one 16-byte
    pattern, XORed with block ``i``'s counter.
    """
    lo = int.from_bytes(seed[:8], "little")
    hi = int.from_bytes(seed[8:], "little")
    repeat, counters = _sigma_terms(first_block, n_blocks)
    sigma = (hi | (hi ^ lo) << 64) * repeat ^ counters
    n_bytes = BLOCK_SIZE * n_blocks
    out = _encryptor(domain).update(sigma.to_bytes(n_bytes, "little"))
    return (int.from_bytes(out, "little") ^ sigma).to_bytes(n_bytes, "little")


def _keystream_rows(seeds: Sequence[bytes], n_blocks: int, domain: bytes):
    """Blocks ``0 .. n_blocks`` of every seed's stream, row after row.

    Returns one uint8 array: the ``len(seeds) * n_blocks`` blocks, then
    ``BLOCK_SIZE - 1`` bytes of slack (OpenSSL's output bound, and the
    tail :func:`~repro.field.batch.rejection_sample_batch` reads past
    the last record).  Every seed's sigma inputs are written into that
    array in one numpy pass, encrypted in place by one ``update_into``,
    and XORed back in, so the batch needs no second buffer.
    """
    import numpy as np

    words = np.frombuffer(b"".join(seeds), "<u8").reshape(-1, 2)
    hi, mix = words[:, 1:], (words[:, 0] ^ words[:, 1])[:, None]
    counters = np.arange(n_blocks, dtype="<u8")
    n_bytes = len(seeds) * n_blocks * BLOCK_SIZE
    out = np.empty(n_bytes + BLOCK_SIZE - 1, np.uint8)
    blocks = out[:n_bytes].view("<u8").reshape(len(seeds), n_blocks, 2)
    blocks[:, :, 0] = hi
    np.bitwise_xor(mix, counters, out=blocks[:, :, 1])
    _encryptor(domain).update_into(out[:n_bytes], out)
    blocks[:, :, 0] ^= hi
    blocks[:, :, 1] ^= mix
    blocks[:, :, 1] ^= counters
    return out


class PrgStream:
    """One seed's stream under ``domain``, read through a byte cursor.

    Block ``i`` is computed from ``i`` directly, so a read costs just
    the blocks it covers, wherever the cursor stands.
    """

    def __init__(self, seed: bytes, domain: bytes = _DOMAIN) -> None:
        _check_seed(seed)
        self._seed = bytes(seed)
        self._domain = domain
        self._cursor = 0

    def read(self, n: int) -> bytes:
        """The next ``n`` bytes of the stream."""
        if n < 0:
            raise FieldError(f"cannot read a negative byte count ({n})")
        start = self._cursor
        end = self._cursor = start + n
        if n == 0:
            return b""
        first = start // BLOCK_SIZE
        blocks = _keystream(
            self._seed, first, -(-end // BLOCK_SIZE) - first, self._domain
        )
        offset = start - first * BLOCK_SIZE
        return blocks[offset : offset + n]


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


@functools.lru_cache(maxsize=128)
def _row_candidates(field: PrimeField, n_elements: int) -> int:
    """:func:`_candidates_for` rounded up to whole stream blocks.

    A row of that many ``encoded_size`` records is whole AES blocks, so
    rows sit back to back in one batch blob and every read of the
    scalar sampler starts on a block.  Acceptance is positional, so the
    rounding never changes which candidates survive.
    """
    unit = BLOCK_SIZE // math.gcd(field.encoded_size, BLOCK_SIZE)
    return -(-_candidates_for(field, n_elements) // unit) * unit


def expand_seed(field: PrimeField, seed: bytes, length: int) -> list[int]:
    """Expand a seed into ``length`` uniform field elements.

    Rejection sampling: draw ``encoded_size`` bytes, mask to the modulus
    bit width, retry on >= p.  Acceptance is purely positional in the
    stream (candidate ``j`` occupies bytes ``[j*size, (j+1)*size)``
    regardless of read chunking), which is what lets the vectorized
    :func:`expand_seed_batch` reproduce this function bit for bit.
    """
    _check_seed(seed)
    p = field.modulus
    size = field.encoded_size
    mask = (1 << field.bits) - 1
    # local names: the candidate loop is most of a short expansion,
    # such as a one-value client prepare
    from_bytes = int.from_bytes
    out: list[int] = []
    append = out.append
    block = 0
    while len(out) < length:
        n_cand = _row_candidates(field, length - len(out))
        n_blocks = size * n_cand // BLOCK_SIZE
        chunk = _keystream(seed, block, n_blocks, _DOMAIN)
        block += n_blocks
        for offset in range(0, len(chunk), size):
            candidate = from_bytes(chunk[offset : offset + size], "big") & mask
            if candidate < p:
                append(candidate)
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
    ``expand_seed(field, seeds[i], length)``.  On numpy, every seed's
    candidate budget of stream blocks comes out of one OpenSSL call
    (:func:`_keystream_rows`) as one blob, rows back to back, which
    :func:`repro.field.batch.rejection_sample_batch` reads in place: it
    range-checks every candidate's top limb as a strided window and
    splits only the first ``length`` survivors of each row into limb
    planes.  The rare row whose budget still falls short (below 1e-6
    per row) is retried through the scalar sampler — same stream, same
    survivors.
    """
    from repro.field.batch import BatchVector, rejection_sample_batch, use_numpy

    seeds = list(seeds)
    for seed in seeds:
        _check_seed(seed)
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
    n_cand = _row_candidates(field, length)
    blob = _keystream_rows(
        seeds, n_cand * field.encoded_size // BLOCK_SIZE, _DOMAIN
    )
    batch, short_rows = rejection_sample_batch(
        field, blob, (len(seeds), n_cand), length
    )
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
