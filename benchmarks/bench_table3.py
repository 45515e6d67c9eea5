"""Table 3: client time to generate a submission of L four-bit integers.

Paper rows: field multiplication microbenchmark plus client submission
time for L in {10, 100, 1000}, on a workstation and a phone, in the
87-bit and 265-bit fields.  We measure the workstation column directly
(the deployed client, ``PrioClient.prepare_submissions`` on one value:
encode + SNIP + PRG-share + frame) and scale by the paper's own
phone/workstation field-multiplication ratio for the phone column.
"""

import random
import time

import pytest

from common import (
    CLIENT_PATH_NOTE,
    PHONE_SLOWDOWN,
    emit_table,
    fmt_seconds,
    prepare_one,
    time_call,
)

from repro.afe import VectorSumAfe
from repro.field import FIELD87, FIELD265
from repro.protocol import PrioClient

LENGTHS = (10, 100, 1000)
N_SERVERS = 5


def measure_field_mul(field, samples=20000):
    rng = random.Random(1)
    xs = field.rand_vector(samples, rng)
    ys = field.rand_vector(samples, rng)
    p = field.modulus
    start = time.perf_counter()
    for x, y in zip(xs, ys):
        _ = (x * y) % p
    return (time.perf_counter() - start) / samples


@pytest.fixture(scope="module")
def table3_data():
    rng = random.Random(3)
    rows = []
    mul_us = {}
    client_times = {}
    for field in (FIELD87, FIELD265):
        mul_us[field.name] = measure_field_mul(field) * 1e6
    rows.append(
        ["mul in field (us)"]
        + [f"{mul_us[f.name]:.3f}" for f in (FIELD87, FIELD265)]
        + [
            f"{mul_us[f.name] * PHONE_SLOWDOWN[f.name]:.2f}"
            for f in (FIELD87, FIELD265)
        ]
    )
    for length in LENGTHS:
        row = [f"L = {length}"]
        for field in (FIELD87, FIELD265):
            afe = VectorSumAfe(field, length=length, n_bits=4)
            client = PrioClient(afe, N_SERVERS, rng=rng)
            values = [rng.randrange(16) for _ in range(length)]
            seconds = time_call(
                prepare_one, client, values,
                repeat=3 if length < 1000 else 1,
            )
            client_times[(field.name, length)] = seconds
            row.append(fmt_seconds(seconds))
        for field in (FIELD87, FIELD265):
            row.append(
                fmt_seconds(
                    client_times[(field.name, length)]
                    * PHONE_SLOWDOWN[field.name]
                )
            )
        rows.append(row)
    longest = LENGTHS[-1]
    at_longest = client_times[(FIELD87.name, longest)]
    big_field = client_times[(FIELD265.name, longest)] / at_longest
    growth = at_longest / client_times[(FIELD87.name, LENGTHS[-2])]
    emit_table(
        "table3",
        "Table 3 — client submission time, L four-bit integers "
        "(workstation measured; phone = paper's mul-ratio scaling)",
        ["config", "wkstn 87-bit", "wkstn 265-bit",
         "phone-est 87-bit", "phone-est 265-bit"],
        rows,
        notes=[
            CLIENT_PATH_NOTE,
            "paper (workstation, 87-bit): L=10: 3ms, L=100: 24ms, "
            "L=1000: 221ms",
            f"measured at L={longest}: {fmt_seconds(at_longest)} "
            f"(87-bit), {big_field:.1f}x that in the 265-bit field; "
            f"L={LENGTHS[-2]} -> L={longest} grows {growth:.1f}x "
            f"(linear: {longest // LENGTHS[-2]}x)",
        ],
    )
    return client_times


def test_client_submission_L100_field87(benchmark, table3_data):
    del table3_data
    rng = random.Random(4)
    afe = VectorSumAfe(FIELD87, length=100, n_bits=4)
    client = PrioClient(afe, N_SERVERS, rng=rng)
    values = [rng.randrange(16) for _ in range(100)]
    benchmark.pedantic(prepare_one, args=(client, values),
                       rounds=5, iterations=1)


def test_client_submission_L100_field265(benchmark, table3_data):
    del table3_data
    rng = random.Random(5)
    afe = VectorSumAfe(FIELD265, length=100, n_bits=4)
    client = PrioClient(afe, N_SERVERS, rng=rng)
    values = [rng.randrange(16) for _ in range(100)]
    benchmark.pedantic(prepare_one, args=(client, values),
                       rounds=5, iterations=1)
