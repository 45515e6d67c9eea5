"""Figure 8: client encoding time vs linear-regression dimension.

Paper setup: a client encodes one d-dimensional training example of
14-bit values for private least-squares regression, d in {2..10};
lines for no-privacy (just the AFE encoding), no-robustness (encoding
+ secret sharing, no proof), and Prio (encoding + sharing + SNIP).
Workstation measured; phone estimated via the Table 3 mul-ratio.

Paper result: Prio costs ~50x the no-privacy encoding and ~10x the
no-robustness one, but stays around a tenth of a second absolute.
"""

import random

import pytest

from common import (
    CLIENT_PATH_NOTE,
    PHONE_SLOWDOWN,
    emit_table,
    fmt_seconds,
    prepare_one,
    time_call,
)

from repro.afe import LinRegAfe
from repro.field import FIELD87
from repro.protocol import PrioClient
from repro.sharing import prg_share_vector

N_SERVERS = 5
N_BITS = 14
DIMENSIONS = (2, 4, 6, 8, 10)


def make_example(rng, d):
    features = [rng.randrange(1 << (N_BITS // 2)) for _ in range(d)]
    label = rng.randrange(1 << N_BITS)
    return features, label


@pytest.fixture(scope="module")
def fig8_data():
    rng = random.Random(88)
    rows = []
    results = {}
    for d in DIMENSIONS:
        afe = LinRegAfe(FIELD87, dimension=d, n_bits=N_BITS)
        example = make_example(rng, d)

        no_privacy_s = time_call(afe.encode, example, repeat=5)

        encoding = afe.encode(example)

        def no_robustness():
            prg_share_vector(
                FIELD87, encoding[: afe.k_prime], N_SERVERS, rng
            )

        no_robustness_s = no_privacy_s + time_call(no_robustness, repeat=5)

        client = PrioClient(afe, N_SERVERS, rng=rng)
        prio_s = time_call(prepare_one, client, example, repeat=3)

        results[d] = {
            "no_privacy": no_privacy_s,
            "no_robustness": no_robustness_s,
            "prio": prio_s,
        }
        rows.append([
            d,
            fmt_seconds(no_privacy_s),
            fmt_seconds(no_robustness_s),
            fmt_seconds(prio_s),
            fmt_seconds(prio_s * PHONE_SLOWDOWN["F87"]),
            f"{prio_s / no_privacy_s:.0f}x",
        ])
    overheads = [r["prio"] / r["no_privacy"] for r in results.values()]
    emit_table(
        "fig8",
        "Figure 8 — client encode time vs regression dimension "
        f"({N_BITS}-bit features)",
        ["d", "no-privacy", "no-robustness", "prio (wkstn)",
         "prio (phone-est)", "prio/no-priv"],
        rows,
        notes=[
            CLIENT_PATH_NOTE,
            "paper: Prio ~50x the no-privacy encoding cost, absolute "
            "~0.1s at d=10; shape: all lines grow mildly with d",
            "measured prio/no-privacy: "
            f"{min(overheads):.0f}-{max(overheads):.0f}x; "
            f"prio at d={DIMENSIONS[-1]}: "
            f"{fmt_seconds(results[DIMENSIONS[-1]]['prio'])}",
        ],
    )
    return results


def test_fig8_ordering(fig8_data):
    for d, r in fig8_data.items():
        assert r["no_privacy"] < r["no_robustness"] < r["prio"], d


def test_fig8_prio_grows_with_dimension(fig8_data):
    assert fig8_data[10]["prio"] > fig8_data[2]["prio"]


def test_fig8_client_d10(benchmark, fig8_data):
    del fig8_data
    rng = random.Random(89)
    afe = LinRegAfe(FIELD87, dimension=10, n_bits=N_BITS)
    client = PrioClient(afe, N_SERVERS, rng=rng)
    example = make_example(rng, 10)
    benchmark.pedantic(
        prepare_one, args=(client, example), rounds=5, iterations=1
    )
