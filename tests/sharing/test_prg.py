"""Tests for PRG-compressed sharing (Appendix I optimization 1)."""

import hashlib
import random
import threading

import pytest

from repro.field import FIELD87, FIELD265, FIELD_SMALL, FieldError
from repro.field.batch import numpy_available
from repro.sharing import (
    SEED_SIZE,
    PrgStream,
    expand_seed,
    new_seed,
    prg,
    prg_reconstruct_vector,
    prg_share_vector,
    reconstruct_vector,
)

from oracle.aes import aes128_encrypt_block, fixed_key_stream


@pytest.fixture
def rng():
    return random.Random(31337)


def test_stream_deterministic():
    seed = b"\x01" * SEED_SIZE
    a = PrgStream(seed).read(100)
    b = PrgStream(seed).read(100)
    assert a == b


def test_stream_incremental_reads_match_one_shot():
    seed = b"\x02" * SEED_SIZE
    s1 = PrgStream(seed)
    chunks = s1.read(10) + s1.read(500) + s1.read(3)
    s2 = PrgStream(seed)
    assert s2.read(513) == chunks


def test_stream_domain_separation():
    seed = b"\x03" * SEED_SIZE
    a = PrgStream(seed, domain=b"a").read(32)
    b = PrgStream(seed, domain=b"b").read(32)
    assert a != b


def test_stream_rejects_bad_seed_length():
    with pytest.raises(FieldError):
        PrgStream(b"short")


def test_new_seed_length(rng):
    assert len(new_seed()) == SEED_SIZE
    assert len(new_seed(rng)) == SEED_SIZE


def test_new_seed_deterministic_with_rng():
    assert new_seed(random.Random(5)) == new_seed(random.Random(5))


@pytest.mark.parametrize("field", [FIELD87, FIELD265, FIELD_SMALL])
def test_expand_seed_uniform_range(field, rng):
    seed = new_seed(rng)
    vec = expand_seed(field, seed, 200)
    assert len(vec) == 200
    assert all(0 <= v < field.modulus for v in vec)


def test_expand_seed_deterministic(rng):
    seed = new_seed(rng)
    assert expand_seed(FIELD87, seed, 50) == expand_seed(FIELD87, seed, 50)


def test_expand_seed_prefix_stable(rng):
    """Expanding to a longer length preserves the shorter prefix."""
    seed = new_seed(rng)
    short = expand_seed(FIELD87, seed, 10)
    long = expand_seed(FIELD87, seed, 100)
    assert long[:10] == short


def test_expand_zero_length(rng):
    assert expand_seed(FIELD87, new_seed(rng), 0) == []


@pytest.mark.parametrize("n_shares", [1, 2, 3, 5])
def test_prg_share_roundtrip(n_shares, rng):
    f = FIELD87
    xs = f.rand_vector(40, rng)
    seeds, explicit = prg_share_vector(f, xs, n_shares, rng)
    assert len(seeds) == n_shares - 1
    assert len(explicit) == 40
    assert prg_reconstruct_vector(f, seeds, explicit) == xs


def test_prg_share_matches_expanded_shares(rng):
    """PRG shares reconstruct identically to materialized additive shares."""
    f = FIELD87
    xs = f.rand_vector(16, rng)
    seeds, explicit = prg_share_vector(f, xs, 4, rng)
    materialized = [expand_seed(f, seed, 16) for seed in seeds] + [explicit]
    assert reconstruct_vector(f, materialized) == xs


def test_prg_share_rejects_zero_parties(rng):
    with pytest.raises(FieldError):
        prg_share_vector(FIELD87, [1], 0, rng)


def test_prg_share_single_party(rng):
    f = FIELD_SMALL
    xs = f.rand_vector(5, rng)
    seeds, explicit = prg_share_vector(f, xs, 1, rng)
    assert seeds == []
    assert explicit == xs


def test_upload_cost_is_constant_in_parties(rng):
    """The point of the optimization: upload size ~ L, not s*L."""
    f = FIELD87
    length = 1000
    xs = f.rand_vector(length, rng)
    for s in (2, 5, 10):
        seeds, explicit = prg_share_vector(f, xs, s, rng)
        explicit_bytes = len(explicit) * f.encoded_size
        seed_bytes = sum(len(seed) for seed in seeds)
        naive_bytes = s * length * f.encoded_size
        # Compressed upload is L elements + s-1 seeds; the naive scheme
        # ships s*L elements, so the savings factor approaches s.
        assert explicit_bytes + seed_bytes < naive_bytes / (s - 0.5)


def test_expansion_statistics(rng):
    """Crude uniformity check on the rejection sampler (mean near p/2)."""
    f = FIELD_SMALL
    vec = expand_seed(f, new_seed(rng), 4000)
    mean = sum(vec) / len(vec)
    assert abs(mean - f.modulus / 2) < f.modulus * 0.05


# ----------------------------------------------------------------------
# The stream: fixed-key AES-128 against the pure-Python oracle
# ----------------------------------------------------------------------


def test_oracle_aes_matches_fips197_vector():
    """FIPS-197 Appendix C.1."""
    key = bytes(range(16))
    block = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert aes128_encrypt_block(key, block).hex() == (
        "69c4e0d86a7b0430d8cdb78070b4c55a"
    )


def test_oracle_aes_matches_openssl(rng):
    from cryptography.hazmat.primitives.ciphers import (
        Cipher,
        algorithms,
        modes,
    )

    for _ in range(64):
        key, block = rng.randbytes(16), rng.randbytes(16)
        encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        assert aes128_encrypt_block(key, block) == encryptor.update(block)


def test_fixed_key_is_derived_from_the_domain():
    for domain in (b"prio-prg", b"a", b""):
        assert prg._fixed_key(domain) == hashlib.shake_256(
            b"prio-prg fixed-key aes128\x00" + domain
        ).digest(16)


@pytest.mark.parametrize("case", range(3))
def test_stream_matches_oracle_at_every_length(case):
    """Every length from 0 to 4 KiB, block-aligned or not, read from
    the start and from an unaligned cursor."""
    rng = random.Random(0xAE5 + case)
    seed = new_seed(rng)
    expected = fixed_key_stream(prg._fixed_key(b"prio-prg"), seed, 4096 + 37)
    for n in range(4097):
        assert PrgStream(seed).read(n) == expected[:n]
    for skip in (1, 15, 16, 17, 37):
        stream = PrgStream(seed)
        stream.read(skip)
        n = rng.randrange(4097)
        assert stream.read(n) == expected[skip : skip + n]


def test_stream_domain_matches_oracle(rng):
    seed = new_seed(rng)
    expected = fixed_key_stream(prg._fixed_key(b"other"), seed, 100)
    assert PrgStream(seed, domain=b"other").read(100) == expected


@pytest.mark.skipif(not numpy_available(), reason="the batch stream is numpy")
def test_batch_stream_matches_oracle(rng):
    """The one-call batch stream is every seed's stream, rows back to
    back, then a block's worth of slack."""
    seeds = [new_seed(rng) for _ in range(5)]
    n_blocks = 23
    key = prg._fixed_key(b"prio-prg")
    blob = prg._keystream_rows(seeds, n_blocks, b"prio-prg")
    assert len(blob) == 5 * n_blocks * 16 + 15
    assert bytes(blob[: 5 * n_blocks * 16]) == b"".join(
        fixed_key_stream(key, seed, n_blocks * 16) for seed in seeds
    )


def test_negative_read_raises_and_leaves_the_cursor(rng):
    seed = bytes(16)
    stream = PrgStream(seed)
    with pytest.raises(FieldError):
        stream.read(-5)
    assert stream.read(10) == PrgStream(seed).read(10)
    stream = PrgStream(seed)
    total = b""
    for _ in range(50):
        n = rng.randrange(40)
        chunk = stream.read(n)
        assert len(chunk) == n
        total += chunk
    assert total == PrgStream(seed).read(len(total))


def test_cipher_contexts_are_per_thread():
    """A context is never shared: a worker thread gets its own, and
    expands the same bytes with it."""
    seed = b"\x07" * SEED_SIZE
    mine = prg._encryptor(b"prio-prg")
    seen = {}

    def work():
        seen["context"] = prg._encryptor(b"prio-prg")
        seen["vector"] = expand_seed(FIELD87, seed, 300)

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen["context"] is not mine
    assert prg._encryptor(b"prio-prg") is mine
    assert seen["vector"] == expand_seed(FIELD87, seed, 300)
