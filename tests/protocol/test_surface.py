"""The protocol's public surface, and the one protocol behind it.

(a) The entry points listed in the ``repro.protocol`` module docstring
    are exactly the ones the code has, so the surface cannot regrow
    (a second receive path, a scalar client wrapper, another way into
    the deployment) without that list — the one place it is written down —
    changing too.

(b) Every driver runs the same per-batch protocol on the same wire
    bytes: one seeded stream (honest + corrupted + replayed uploads,
    cleartext and sealed) gives identical decisions, counters and
    published shares through ``PrioDeployment.deliver`` on the inline
    and process backends and ``PrioTransportServer`` over TCP, at
    every batch size.
"""

import asyncio
import copy
import inspect
import multiprocessing
import random
import re
from dataclasses import replace

import pytest

import repro.protocol
from repro.afe import IntegerSumAfe
from repro.field import FIELD87
from repro.protocol import (
    PrioClient,
    PrioDeployment,
    PrioServer,
    seal_packet,
)
from repro.protocol.fanout import _ServerOps
from repro.transport import (
    PrioTransportServer,
    Status,
    TransportClient,
    TransportConfig,
)

# ----------------------------------------------------------------------
# (a) the listed surface is the surface
# ----------------------------------------------------------------------


def _listed(owner):
    """Names the ``repro.protocol`` docstring lists for ``owner``."""
    block = repro.protocol.__doc__.split(f"``{owner}``:")[1].split("\n\n")[0]
    return set(re.findall(r"``(\w+)``", block))


def _defined(cls, keep):
    return {
        name for name, _ in inspect.getmembers(cls, inspect.isroutine)
        if name in vars(cls) and keep(name)
    }


def _public(name):
    return not name.startswith("_")


@pytest.mark.parametrize(
    "cls,keep",
    [
        (PrioServer, _public),
        (PrioClient, _public),
        (PrioDeployment, _public),
        (_ServerOps, _public),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_listed_surface_matches_code(cls, keep):
    assert _defined(cls, keep) == _listed(cls.__name__)


# ----------------------------------------------------------------------
# (b) one protocol: every driver agrees
# ----------------------------------------------------------------------

SEED = b"surface-equivalence"
VALUES = [3, 14, 1, 5, 9, 2, 6, 5, 3, 8]
CORRUPT = 3
#: replay index -> replayed index: at batch size 4, one inside a
#: verification batch and one across batches
REPLAYS = {6: 5, 9: 0}
EXPECTED = [i != CORRUPT and i not in REPLAYS for i in range(len(VALUES))]


def _deployment(encrypt, batch_size=4, executor=None):
    """Twins: same server randomness, client rng and (sealed) box keys."""
    return PrioDeployment.create(
        IntegerSumAfe(FIELD87, 4), 3, seed=SEED, rng=random.Random(0x5EAF),
        batch_size=batch_size, encrypt=encrypt, executor=executor,
    )


def _mutate(client):
    """The stream's faults, as a ``mutate(index, submission)`` hook."""
    seen = {}

    def mutate(index, submission):
        seen[index] = submission
        if index == CORRUPT:
            # in range, so it passes receive and fails the SNIP
            packet = submission.packets[-1]
            vec = FIELD87.decode_vector(packet.body)
            vec[0] = (vec[0] + 1) % FIELD87.modulus
            submission.packets[-1] = replace(
                packet, body=FIELD87.encode_vector(vec)
            )
            if submission.sealed_packets is not None:
                submission.sealed_packets[-1] = seal_packet(
                    client.server_box_keys[-1], submission.packets[-1],
                    client.rng,
                )
        elif index in REPLAYS:
            original = seen[REPLAYS[index]]
            submission.submission_id = original.submission_id
            submission.packets[:] = original.packets
            if submission.sealed_packets is not None:
                submission.sealed_packets[:] = original.sealed_packets

    return mutate


def _uploads(encrypt):
    client = _deployment(encrypt).client
    submissions = client.prepare_submissions(VALUES)
    mutate = _mutate(client)
    for index, submission in enumerate(submissions):
        mutate(index, submission)
    return submissions


def _outcome(decisions, servers):
    return (
        decisions,
        [
            (s.n_accepted, s.n_rejected, s.n_replayed, sorted(s._pending_ids))
            for s in servers
        ],
        [s.publish() for s in servers],
    )


def _via_deliver(executor):
    def run(encrypt, batch_size, submissions):
        with _deployment(encrypt, batch_size, executor) as dep:
            decisions = dep.deliver(submissions)
            stats = dep.stats
            # nothing abandoned: every upload was accepted or rejected
            assert stats.n_accepted + stats.n_rejected == len(submissions)
            return _outcome(decisions, dep.servers)

    return run


def _via_tcp(encrypt, batch_size, submissions):
    dep = _deployment(encrypt, batch_size)

    async def serve():
        config = TransportConfig(
            batch_size=batch_size, linger_s=0.001, executor="inline"
        )
        async with PrioTransportServer(dep.servers, config) as server:
            host, port = await server.serve_tcp("127.0.0.1", 0)
            async with await TransportClient.connect_tcp(host, port) as c:
                # one at a time: a replay races nothing
                return [
                    await c.submit(s, sealed=encrypt) for s in submissions
                ]

    statuses = asyncio.run(serve())
    assert all(s is not Status.BUSY for s in statuses)
    return _outcome([s is Status.ACCEPTED for s in statuses], dep.servers)


DRIVERS = {
    "deliver": _via_deliver("inline"),
    "deliver-process": _via_deliver("process"),
    "tcp": _via_tcp,
}


@pytest.mark.parametrize("batch_size", [1, 4, 10], ids=lambda b: f"B{b}")
@pytest.mark.parametrize("encrypt", [False, True], ids=["cleartext", "sealed"])
def test_every_driver_gives_the_same_outcome(encrypt, batch_size):
    """In the in-memory drivers both replays cross batches at B = 1
    and both sit inside the one batch at B = 10 (the TCP client sends
    one upload at a time, so its batches hold one)."""
    submissions = _uploads(encrypt)
    outcomes = {
        name: driver(encrypt, batch_size, copy.deepcopy(submissions))
        for name, driver in DRIVERS.items()
    }
    reference = outcomes["deliver"]
    assert reference[0] == EXPECTED
    assert reference[1] == [(7, 1, 2, [])] * 3
    for name, outcome in outcomes.items():
        assert outcome == reference, name
    assert multiprocessing.active_children() == []
