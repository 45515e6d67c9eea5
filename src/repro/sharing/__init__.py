"""Secret sharing: additive s-out-of-s shares, PRG-compressed.

Public surface
--------------

``tests/test_package_surface.py`` checks that ``__all__`` is exactly
the names below and that each sits in the paragraph naming its callers.

Used in ``src/``: ``share_scalar``, ``share_vector``,
``share_vectors_client_batch``, ``share_vectors_explicit_batch``,
``SEED_SIZE``, ``expand_seed_batch``, ``new_seed``.

Scalar oracles (what the deployment's accumulate-and-publish
reconstruction, its batched seed expansion and its batched client
sharing are tested against): ``reconstruct_scalar``,
``reconstruct_vector``, ``prg_reconstruct_vector``,
``share_of_constant``, ``PrgStream``, ``expand_seed``,
``prg_share_vector``.
"""

from repro.sharing.additive import (
    reconstruct_scalar,
    reconstruct_vector,
    share_of_constant,
    share_scalar,
    share_vector,
    share_vectors_client_batch,
    share_vectors_explicit_batch,
)
from repro.sharing.prg import (
    SEED_SIZE,
    PrgStream,
    expand_seed,
    expand_seed_batch,
    new_seed,
    prg_reconstruct_vector,
    prg_share_vector,
)
__all__ = [
    "reconstruct_scalar",
    "reconstruct_vector",
    "share_of_constant",
    "share_scalar",
    "share_vector",
    "share_vectors_client_batch",
    "share_vectors_explicit_batch",
    "SEED_SIZE",
    "PrgStream",
    "expand_seed",
    "expand_seed_batch",
    "new_seed",
    "prg_reconstruct_vector",
    "prg_share_vector",
]
