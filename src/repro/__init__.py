"""repro — a from-scratch reproduction of Prio (Corrigan-Gibbs & Boneh,
NSDI 2017): private, robust, and scalable computation of aggregate
statistics.

Quick start::

    import random
    from repro import IntegerSumAfe, PrioDeployment, FIELD87

    afe = IntegerSumAfe(FIELD87, n_bits=4)
    deployment = PrioDeployment.create(afe, n_servers=5)
    for value in [3, 7, 11]:
        deployment.submit(value)
    print(deployment.publish())   # 21 — and no server saw any value

Subpackages: ``repro.field`` (prime fields + NTT), ``repro.sharing``
(additive and PRG-compressed sharing), ``repro.circuit`` (Valid
predicates), ``repro.mpc`` (Beaver triples), ``repro.snip`` (the
paper's core contribution), ``repro.afe`` (encodings for every
supported statistic), ``repro.ec``/``repro.crypto``/``repro.nizk`` (the
public-key baseline), ``repro.protocol`` (the full pipeline),
``repro.simnet`` (throughput model for the paper figures), and
``repro.workloads`` (Section 6.2 scenarios).

Public surface
--------------

Each name below is re-exported from the subpackage whose ``__all__``
lists it; ``tests/test_package_surface.py`` checks both facts, and that
each name's paragraph says who calls it.

Used in ``src/``: ``Afe``, ``AfeError``, ``BoolAndAfe``,
``BoolOrAfe``, ``CountMinSketchAfe``, ``FrequencyCountAfe``,
``IntegerSumAfe``, ``LinRegAfe``, ``FIELD87``, ``GF2``,
``PrimeField``, ``PrioClient``, ``PrioServer``, ``ServerRandomness``,
``VerificationContext``.

Examples: ``PrioDeployment``, ``R2Afe``, ``FIELD265``.

Scalar oracles (the references the batched paths are tested
against): ``build_proof``, ``prove_and_share``, ``verify_snip``.

Tests only (the rest of Section 5's statistics, each run by
``tests/afe``): ``ApproxMaxAfe``, ``GeometricMeanAfe``,
``IntegerMeanAfe``, ``MaxAfe``, ``MinAfe``, ``MostPopularStringAfe``,
``ProductAfe``, ``SetIntersectionAfe``, ``SetUnionAfe``,
``StddevAfe``, ``VarianceAfe``.

BLAS threads
------------

Importing ``repro`` sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already names a value; an operator's explicit value wins.
Prio's parallelism is servers, shards and worker processes, which
inherit the setting.  The verifier's round-1 product is a float64
BLAS call, and a second OpenBLAS thread spin-waiting after each call
costs more CPU than it saves: on a 2-vCPU host, ``highres`` server CPU
read about twice as high with two BLAS threads as with one.  If numpy
was imported before ``repro``, its BLAS keeps the threading it started
with; results are exact either way.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.afe import (
    Afe,
    AfeError,
    ApproxMaxAfe,
    BoolAndAfe,
    BoolOrAfe,
    CountMinSketchAfe,
    FrequencyCountAfe,
    GeometricMeanAfe,
    IntegerMeanAfe,
    IntegerSumAfe,
    LinRegAfe,
    MaxAfe,
    MinAfe,
    MostPopularStringAfe,
    ProductAfe,
    R2Afe,
    SetIntersectionAfe,
    SetUnionAfe,
    StddevAfe,
    VarianceAfe,
)
from repro.field import FIELD87, FIELD265, GF2, PrimeField
from repro.protocol import PrioClient, PrioDeployment, PrioServer
from repro.snip import (
    ServerRandomness,
    VerificationContext,
    build_proof,
    prove_and_share,
    verify_snip,
)

__version__ = "1.0.0"

__all__ = [
    "Afe",
    "AfeError",
    "ApproxMaxAfe",
    "BoolAndAfe",
    "BoolOrAfe",
    "CountMinSketchAfe",
    "FrequencyCountAfe",
    "GeometricMeanAfe",
    "IntegerMeanAfe",
    "IntegerSumAfe",
    "LinRegAfe",
    "MaxAfe",
    "MinAfe",
    "MostPopularStringAfe",
    "ProductAfe",
    "R2Afe",
    "SetIntersectionAfe",
    "SetUnionAfe",
    "StddevAfe",
    "VarianceAfe",
    "FIELD87",
    "FIELD265",
    "GF2",
    "PrimeField",
    "PrioClient",
    "PrioDeployment",
    "PrioServer",
    "ServerRandomness",
    "VerificationContext",
    "build_proof",
    "prove_and_share",
    "verify_snip",
]
