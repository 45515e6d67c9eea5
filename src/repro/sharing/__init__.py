"""Secret sharing: additive (core), PRG-compressed, and Shamir threshold."""

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
from repro.sharing.shamir import (
    shamir_reconstruct_scalar,
    shamir_reconstruct_vector,
    shamir_share_scalar,
    shamir_share_vector,
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
    "shamir_reconstruct_scalar",
    "shamir_reconstruct_vector",
    "shamir_share_scalar",
    "shamir_share_vector",
]
