"""A pure-Python AES-128 and the PRG streams checked against it.

:func:`aes128_encrypt_block` is FIPS-197 written out byte by byte:
the S-box is computed from its definition (inverse in GF(2^8), then
the affine map), not copied from a table.  At tens of microseconds a
block it is an oracle only; the deployed stream runs AES on OpenSSL.

:func:`fixed_key_stream` is the seed-expansion stream of
:mod:`repro.sharing.prg` rebuilt from the block function's definition
on this AES.  :func:`shake_stream` is the SHAKE-256 stream seed
expansion used before it, kept so the upload digests pinned on it
still reproduce.
"""

import functools
import hashlib


def _xtime(a: int) -> int:
    a <<= 1
    return a ^ 0x11B if a & 0x100 else a


def _gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


def _sbox_entry(x: int) -> int:
    inverse = 0
    if x:
        inverse = next(y for y in range(1, 256) if _gf_mul(x, y) == 1)
    out = 0x63
    for shift in range(5):
        out ^= ((inverse << shift) | (inverse >> (8 - shift))) & 0xFF
    return out


SBOX = bytes(_sbox_entry(x) for x in range(256))
XTIME = bytes(_xtime(x) for x in range(256))
#: ShiftRows as a gather: row ``r`` of column ``c`` comes from column
#: ``c + r`` (state bytes are column-major)
SHIFT_ROWS = [(i + 4 * (i % 4)) % 16 for i in range(16)]


@functools.lru_cache(maxsize=64)
def expand_key(key: bytes) -> tuple:
    """The eleven 16-byte round keys of an AES-128 key."""
    assert len(key) == 16
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = [SBOX[b] for b in word[1:] + word[:1]]
            word[0] ^= rcon
            rcon = _xtime(rcon)
        words.append([a ^ b for a, b in zip(words[i - 4], word)])
    return tuple(sum(words[4 * r : 4 * r + 4], []) for r in range(11))


def _mix_column(col: list) -> list:
    a0, a1, a2, a3 = col
    x0, x1, x2, x3 = (XTIME[a] for a in col)
    return [
        x0 ^ x1 ^ a1 ^ a2 ^ a3,
        a0 ^ x1 ^ x2 ^ a2 ^ a3,
        a0 ^ a1 ^ x2 ^ x3 ^ a3,
        x0 ^ a0 ^ a1 ^ a2 ^ x3,
    ]


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """AES-128 of one 16-byte block (state in column-major order)."""
    assert len(block) == 16
    round_keys = expand_key(key)
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 11):
        state = [SBOX[b] for b in state]
        state = [state[i] for i in SHIFT_ROWS]
        if rnd != 10:
            state = sum(
                (_mix_column(state[c : c + 4]) for c in range(0, 16, 4)), []
            )
        state = [b ^ k for b, k in zip(state, round_keys[rnd])]
    return bytes(state)


def fixed_key_stream(key: bytes, seed: bytes, n_bytes: int) -> bytes:
    """The first ``n_bytes`` of ``seed``'s fixed-key AES stream under
    ``key``: block ``i`` is ``AES_K(sigma(x)) XOR sigma(x)`` with
    ``x = seed XOR LE128(i)`` and ``sigma(x) = x_hi || (x_hi XOR x_lo)``.
    """
    out = b""
    i = 0
    while len(out) < n_bytes:
        x = bytes(a ^ b for a, b in zip(seed, i.to_bytes(16, "little")))
        lo, hi = x[:8], x[8:]
        sigma = hi + bytes(a ^ b for a, b in zip(hi, lo))
        encrypted = aes128_encrypt_block(key, sigma)
        out += bytes(a ^ b for a, b in zip(encrypted, sigma))
        i += 1
    return out[:n_bytes]


def shake_stream(seed: bytes, domain: bytes, n_bytes: int) -> bytes:
    """The retired SHAKE-256 seed stream: ``SHAKE-256(domain || 0 ||
    seed)``, read from its start."""
    return hashlib.shake_256(domain + b"\x00" + seed).digest(n_bytes)
