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
supported statistic), ``repro.ec``/``repro.crypto`` (P-256, sealed
boxes and client signatures), ``repro.protocol`` (the full pipeline),
and ``repro.workloads`` (Section 6.2 scenarios).  The paper's
comparison baselines (the NIZK system and the throughput model behind
the figures) live beside the figures, in ``benchmarks/baselines/``.

Public surface
--------------

Each name below is re-exported from the subpackage whose ``__all__``
lists it; ``tests/test_package_surface.py`` checks both facts, and that
each name's paragraph says who calls it.

Used in ``src/``: ``Afe``, ``AfeError``, ``BoolAndAfe``,
``BoolOrAfe``, ``CountMinSketchAfe``, ``FrequencyCountAfe``,
``IntegerSumAfe``, ``LinRegAfe``, ``FIELD87``, ``GF2``,
``PrimeField``, ``PrioClient``, ``PrioDeployment``, ``PrioServer``,
``ServerRandomness``, ``VerificationContext``.

Examples: ``R2Afe``, ``FIELD265``.

Scalar oracles (the references the batched paths are tested
against): ``build_proof``, ``prove_and_share``, ``verify_snip``.

Tests only (the rest of Section 5's statistics, each run by
``tests/afe``): ``ApproxMaxAfe``, ``GeometricMeanAfe``,
``IntegerMeanAfe``, ``MaxAfe``, ``MinAfe``, ``MostPopularStringAfe``,
``ProductAfe``, ``SetIntersectionAfe``, ``SetUnionAfe``,
``StddevAfe``, ``VarianceAfe``.

BLAS threads
------------

Importing ``repro`` sets OpenBLAS to one thread unless the environment
names ``OPENBLAS_NUM_THREADS``; an operator's explicit value wins.
Where ``repro`` is what loads numpy, OpenBLAS loads with one thread and
starts no helper thread.  Where numpy was imported first, the count is
set on the library it loaded (``openblas_set_num_threads``, reached
with ``ctypes``).  Either way the environment is left as it was found.
Prio's parallelism is servers and worker processes.  The verifier's
round-1 product is a float64 BLAS call, and a second OpenBLAS thread
spin-waiting after each call costs more CPU than it saves: on a 2-vCPU
host, ``highres`` server CPU read about twice as high with two BLAS
threads as with one.  Results are exact either way.
"""

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
