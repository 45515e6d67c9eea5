"""Ablation B: PRG share compression (Appendix I, opt. 1).

With compression the client ships one 16-byte seed to each of s-1
servers and one explicit vector; without it, s full vectors.  The
paper calls the resulting ~s-fold saving "significant" for its
five-server deployment.  This bench measures exact upload bytes and
the client time of each form through the deployed client
(``PrioClient.prepare_submissions`` on one value).
"""

import random

import pytest

from common import (
    CLIENT_PATH_NOTE,
    emit_table,
    fmt_bytes,
    fmt_seconds,
    prepare_one,
    time_call,
)

from repro.afe import VectorSumAfe
from repro.field import FIELD87
from repro.protocol import PrioClient

N_SERVERS = 5
LENGTHS = (16, 128, 1024)


@pytest.fixture(scope="module")
def ablation_prg_data():
    rng = random.Random(222)
    rows = []
    results = {}
    time_ratios = {}
    for length in LENGTHS:
        afe = VectorSumAfe(FIELD87, length=length, n_bits=1)
        values = [rng.randrange(2) for _ in range(length)]

        compressed_client = PrioClient(
            afe, N_SERVERS, use_prg_compression=True, rng=rng
        )
        explicit_client = PrioClient(
            afe, N_SERVERS, use_prg_compression=False, rng=rng
        )
        sub_c = prepare_one(compressed_client, values)
        sub_e = prepare_one(explicit_client, values)
        time_c = time_call(prepare_one, compressed_client, values, repeat=2)
        time_e = time_call(prepare_one, explicit_client, values, repeat=2)
        results[length] = (sub_c.upload_bytes, sub_e.upload_bytes)
        time_ratios[length] = time_e / time_c
        rows.append([
            length,
            fmt_bytes(sub_c.upload_bytes),
            fmt_bytes(sub_e.upload_bytes),
            f"{sub_e.upload_bytes / sub_c.upload_bytes:.1f}x",
            fmt_seconds(time_c),
            fmt_seconds(time_e),
        ])
    emit_table(
        "ablation_prg",
        f"Ablation B — PRG share compression ({N_SERVERS} servers; "
        "upload = data + SNIP proof)",
        ["length", "compressed", "explicit", "saving",
         "client t (comp)", "client t (expl)"],
        rows,
        notes=[
            CLIENT_PATH_NOTE,
            "saving approaches s = 5 as vectors grow; client time, "
            f"explicit / compressed at length {LENGTHS[-1]}: "
            f"{time_ratios[LENGTHS[-1]]:.1f}x",
        ],
    )
    return results


def test_ablation_prg_saving_approaches_s(ablation_prg_data):
    compressed, explicit = ablation_prg_data[LENGTHS[-1]]
    assert explicit / compressed > N_SERVERS * 0.75


def test_ablation_prg_client_compressed(benchmark, ablation_prg_data):
    del ablation_prg_data
    rng = random.Random(223)
    afe = VectorSumAfe(FIELD87, length=128, n_bits=1)
    client = PrioClient(afe, N_SERVERS, use_prg_compression=True, rng=rng)
    values = [1] * 128
    benchmark.pedantic(
        prepare_one, args=(client, values), rounds=5, iterations=1
    )


def test_ablation_prg_client_explicit(benchmark, ablation_prg_data):
    del ablation_prg_data
    rng = random.Random(224)
    afe = VectorSumAfe(FIELD87, length=128, n_bits=1)
    client = PrioClient(afe, N_SERVERS, use_prg_compression=False, rng=rng)
    values = [1] * 128
    benchmark.pedantic(
        prepare_one, args=(client, values), rounds=5, iterations=1
    )
