"""Secret-shared non-interactive proofs — the paper's core contribution.

Public surface
--------------

This docstring is the one place the exports are listed
(``tests/test_package_surface.py`` compares it with ``__all__`` and
checks that each name sits in the paragraph naming its callers, so a
batch entry point only tests call cannot accumulate unnoticed).  The
deployment proves through one batched prover —
``PrioClient.prepare_submissions`` over ``h_planes_batch`` /
``submission_planes`` — and verifies through one batched party,
``BatchedSnipVerifierParty``.

Used in ``src/``: ``SnipError``, ``SnipProof``, ``SnipProofShare``,
``proof_num_elements``, ``snip_domain_sizes``, ``ProofRandomness``,
``h_planes_batch``, ``submission_planes``,
``BatchedSnipVerifierParty``, ``Round1Batch``, ``Round1Message``,
``Round2Batch``, ``Round2Message``, ``ServerRandomness``,
``SnipVerifierParty``, ``VerificationChallenge``,
``VerificationContext``, ``VerificationOutcome``.

Scalar oracles (the references the batched paths are tested
against): ``build_proof``, ``share_proof``, ``prove_and_share``,
``verify_snip``, ``verify_snip_batch`` (the lock-step core the
scalar verifier runs as a batch of one).

Paper experiments (the figure benchmarks run them):
``build_reference_proof``, ``share_reference_proof``,
``verify_reference_snip``, ``build_mpc_submission``,
``verify_mpc_submission``.

Tests only (the Appendix D soundness game and zero-knowledge
simulator, and the experiments' result types and parts):
``SoundnessReport``, ``run_soundness_experiment``, ``AdversaryView``,
``SnipSimulator``, ``real_adversary_view``, ``ReferenceProof``,
``ReferenceProofShare``, ``MpcSubmissionShare``,
``MpcVerificationOutcome``, ``build_triple_validity_circuit``,
``mpc_upload_elements``.
"""

from repro.snip.proof import (
    SnipError,
    SnipProof,
    SnipProofShare,
    proof_num_elements,
    snip_domain_sizes,
)
from repro.snip.batch_prover import (
    ProofRandomness,
    h_planes_batch,
    submission_planes,
)
from repro.snip.prover import build_proof, prove_and_share, share_proof
from repro.snip.reference import (
    ReferenceProof,
    ReferenceProofShare,
    build_reference_proof,
    share_reference_proof,
    verify_reference_snip,
)
from repro.snip.mpc_variant import (
    MpcSubmissionShare,
    MpcVerificationOutcome,
    build_mpc_submission,
    build_triple_validity_circuit,
    mpc_upload_elements,
    verify_mpc_submission,
)
from repro.snip.simulator import AdversaryView, SnipSimulator, real_adversary_view
from repro.snip.soundness import SoundnessReport, run_soundness_experiment
from repro.snip.verifier import (
    BatchedSnipVerifierParty,
    Round1Batch,
    Round1Message,
    Round2Batch,
    Round2Message,
    ServerRandomness,
    SnipVerifierParty,
    VerificationChallenge,
    VerificationContext,
    VerificationOutcome,
    verify_snip,
    verify_snip_batch,
)

__all__ = [
    "SnipError",
    "SnipProof",
    "SnipProofShare",
    "proof_num_elements",
    "snip_domain_sizes",
    "ProofRandomness",
    "h_planes_batch",
    "submission_planes",
    "build_proof",
    "prove_and_share",
    "share_proof",
    "ReferenceProof",
    "ReferenceProofShare",
    "build_reference_proof",
    "share_reference_proof",
    "verify_reference_snip",
    "MpcSubmissionShare",
    "MpcVerificationOutcome",
    "build_mpc_submission",
    "build_triple_validity_circuit",
    "mpc_upload_elements",
    "verify_mpc_submission",
    "SoundnessReport",
    "run_soundness_experiment",
    "AdversaryView",
    "SnipSimulator",
    "real_adversary_view",
    "BatchedSnipVerifierParty",
    "Round1Batch",
    "Round1Message",
    "Round2Batch",
    "Round2Message",
    "ServerRandomness",
    "SnipVerifierParty",
    "VerificationChallenge",
    "VerificationContext",
    "VerificationOutcome",
    "verify_snip",
    "verify_snip_batch",
]
