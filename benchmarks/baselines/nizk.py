"""The NIZK private-aggregation baseline of Section 6 (Figures 4-7, Table 2).

The paper's comparison system is "similar to the cryptographically
verifiable interactive protocol of Kursawe et al. and ... the
'distributed decryption' variant of PrivEx".  It is robust and private
like Prio, but pays public-key costs per element at both ends:

1. *Client*: encrypts each 0/1 component of its vector under the
   combined server key with lifted ElGamal over P-256,

       Enc(m; k) = (k*G,  m*G + k*H),  H = sum_j H_j,

   and attaches a disjunctive Chaum-Pedersen proof that it encrypts 0
   OR 1.  That is 8 scalar multiplications per element: 2 to encrypt
   and 6 for the OR-proof (Table 2 counts them).
2. *Servers*: every server verifies every proof (8 scalar
   multiplications per element) and adds accepted ciphertexts
   component-wise.
3. *Publish*: each server releases a partial decryption ``x_j * C1`` of
   every accumulator component with a DLEQ proof; the deployment checks
   each proof against the server's public key, combines the partials and
   takes a baby-step giant-step discrete log of ``C2 - sum_j partial_j``
   (the total is at most the number of clients).

Both proofs are sigma protocols made non-interactive with Fiat-Shamir.
Every entry point takes a seeded ``rng``, so the figures are
reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.ec import (
    GENERATOR,
    INFINITY,
    ORDER,
    Point,
    random_scalar,
    scalar_mult,
)


class NizkError(ValueError):
    """Raised for malformed ciphertexts, proofs, or decryptions."""


# ----------------------------------------------------------------------
# Lifted ElGamal
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ElGamalCiphertext:
    c1: Point
    c2: Point

    def __add__(self, other: "ElGamalCiphertext") -> "ElGamalCiphertext":
        return ElGamalCiphertext(self.c1 + other.c1, self.c2 + other.c2)

    def encode(self) -> bytes:
        return self.c1.encode() + self.c2.encode()

    @classmethod
    def identity(cls) -> "ElGamalCiphertext":
        return cls(INFINITY, INFINITY)


@dataclass(frozen=True)
class ServerKeyPair:
    secret: int
    public: Point

    @classmethod
    def generate(cls, rng) -> "ServerKeyPair":
        secret = random_scalar(rng)
        return cls(secret=secret, public=scalar_mult(secret, GENERATOR))


def combined_public_key(publics: list[Point]) -> Point:
    if not publics:
        raise NizkError("no server keys")
    acc = publics[0]
    for pub in publics[1:]:
        acc = acc + pub
    return acc


def encrypt_bit(
    combined_pub: Point, bit: int, rng
) -> tuple[ElGamalCiphertext, int]:
    """Encrypt m in {0,1}; returns the ciphertext and the randomness k
    (the OR-proof needs k as its witness)."""
    if bit not in (0, 1):
        raise NizkError("plaintext must be a bit")
    k = random_scalar(rng)
    c1 = scalar_mult(k, GENERATOR)
    c2 = scalar_mult(k, combined_pub)
    if bit:
        c2 = c2 + GENERATOR
    return ElGamalCiphertext(c1, c2), k


def partial_decrypt(secret: int, ciphertext: ElGamalCiphertext) -> Point:
    """One server's decryption share ``x_j * C1``."""
    return scalar_mult(secret, ciphertext.c1)


def combine_partials(
    ciphertext: ElGamalCiphertext, partials: list[Point]
) -> Point:
    """``m * G = C2 - sum_j partial_j``."""
    acc = ciphertext.c2
    for partial in partials:
        acc = acc - partial
    return acc


def discrete_log(target: Point, max_value: int) -> int:
    """Baby-step giant-step for 0 <= m <= max_value."""
    if target.infinity:
        return 0
    m = int(math.isqrt(max_value)) + 1
    # Baby steps: j*G for j in [0, m).
    baby: dict[bytes, int] = {}
    step = INFINITY
    for j in range(m):
        baby[step.encode()] = j
        step = step + GENERATOR
    # Giant steps: target - i*m*G.
    giant_stride = scalar_mult(m, GENERATOR)
    gamma = target
    for i in range(m + 1):
        j = baby.get(gamma.encode())
        if j is not None:
            value = i * m + j
            if value <= max_value:
                return value
        gamma = gamma - giant_stride
    raise NizkError(f"discrete log not found within [0, {max_value}]")


# ----------------------------------------------------------------------
# Proofs
# ----------------------------------------------------------------------


def _hash_challenge(*parts: bytes) -> int:
    digest = hashlib.sha256(b"prio-nizk" + b"".join(parts)).digest()
    return int.from_bytes(digest, "big") % ORDER


@dataclass(frozen=True)
class BitProof:
    """OR-composed Chaum-Pedersen transcript (two simulated-or-real legs)."""

    a0: Point
    b0: Point
    a1: Point
    b1: Point
    e0: int
    e1: int
    z0: int
    z1: int

    @staticmethod
    def encoded_size() -> int:
        """Four compressed points and four 32-byte scalars."""
        return 4 * 33 + 4 * 32


def prove_bit(
    combined_pub: Point,
    ciphertext: ElGamalCiphertext,
    bit: int,
    randomness: int,
    rng,
) -> BitProof:
    """Prove ciphertext encrypts ``bit`` in {0,1} without revealing which.

    The real leg is an honest Chaum-Pedersen run; the other leg is
    simulated with a self-chosen challenge; Fiat-Shamir binds
    ``e0 + e1`` to the hash of everything.
    """
    if bit not in (0, 1):
        raise NizkError("bit must be 0 or 1")
    h = combined_pub
    c1, c2 = ciphertext.c1, ciphertext.c2
    # Statement targets: leg m says (c1, c2 - m*G) = k*(G, H).
    target0 = c2
    target1 = c2 - GENERATOR

    # Simulate the false leg.
    e_sim = random_scalar(rng)
    z_sim = random_scalar(rng)
    if bit == 0:
        # Simulate leg 1.
        a1 = scalar_mult(z_sim, GENERATOR) - scalar_mult(e_sim, c1)
        b1 = scalar_mult(z_sim, h) - scalar_mult(e_sim, target1)
        u = random_scalar(rng)
        a0 = scalar_mult(u, GENERATOR)
        b0 = scalar_mult(u, h)
        e_total = _hash_challenge(
            h.encode(), c1.encode(), c2.encode(),
            a0.encode(), b0.encode(), a1.encode(), b1.encode(),
        )
        e0 = (e_total - e_sim) % ORDER
        z0 = (u + e0 * randomness) % ORDER
        return BitProof(a0, b0, a1, b1, e0, e_sim, z0, z_sim)
    # bit == 1: simulate leg 0.
    a0 = scalar_mult(z_sim, GENERATOR) - scalar_mult(e_sim, c1)
    b0 = scalar_mult(z_sim, h) - scalar_mult(e_sim, target0)
    u = random_scalar(rng)
    a1 = scalar_mult(u, GENERATOR)
    b1 = scalar_mult(u, h)
    e_total = _hash_challenge(
        h.encode(), c1.encode(), c2.encode(),
        a0.encode(), b0.encode(), a1.encode(), b1.encode(),
    )
    e1 = (e_total - e_sim) % ORDER
    z1 = (u + e1 * randomness) % ORDER
    return BitProof(a0, b0, a1, b1, e_sim, e1, z_sim, z1)


def verify_bit(
    combined_pub: Point, ciphertext: ElGamalCiphertext, proof: BitProof
) -> bool:
    """Check both legs and the challenge split."""
    h = combined_pub
    c1, c2 = ciphertext.c1, ciphertext.c2
    e_total = _hash_challenge(
        h.encode(), c1.encode(), c2.encode(),
        proof.a0.encode(), proof.b0.encode(),
        proof.a1.encode(), proof.b1.encode(),
    )
    if (proof.e0 + proof.e1) % ORDER != e_total:
        return False
    target0 = c2
    target1 = c2 - GENERATOR
    checks = (
        (proof.z0, GENERATOR, proof.a0, proof.e0, c1),
        (proof.z0, h, proof.b0, proof.e0, target0),
        (proof.z1, GENERATOR, proof.a1, proof.e1, c1),
        (proof.z1, h, proof.b1, proof.e1, target1),
    )
    for z, base, commitment, e, target in checks:
        if scalar_mult(z, base) != commitment + scalar_mult(e, target):
            return False
    return True


@dataclass(frozen=True)
class DleqProof:
    """Chaum-Pedersen proof of log_G(pub) == log_base(share)."""

    a: Point
    b: Point
    z: int


def prove_dleq(
    secret: int, base: Point, public: Point, share: Point, rng
) -> DleqProof:
    u = random_scalar(rng)
    a = scalar_mult(u, GENERATOR)
    b = scalar_mult(u, base)
    e = _hash_challenge(
        base.encode(), public.encode(), share.encode(), a.encode(), b.encode()
    )
    z = (u + e * secret) % ORDER
    return DleqProof(a=a, b=b, z=z)


def verify_dleq(
    base: Point, public: Point, share: Point, proof: DleqProof
) -> bool:
    e = _hash_challenge(
        base.encode(), public.encode(), share.encode(),
        proof.a.encode(), proof.b.encode(),
    )
    if scalar_mult(proof.z, GENERATOR) != proof.a + scalar_mult(e, public):
        return False
    if scalar_mult(proof.z, base) != proof.b + scalar_mult(e, share):
        return False
    return True


# ----------------------------------------------------------------------
# The deployment
# ----------------------------------------------------------------------


@dataclass
class NizkSubmission:
    """One client's upload: per-component ciphertext + validity proof."""

    ciphertexts: list[ElGamalCiphertext]
    proofs: list[BitProof]

    def encoded_size(self) -> int:
        cipher_bytes = sum(len(c.encode()) for c in self.ciphertexts)
        proof_bytes = len(self.proofs) * BitProof.encoded_size()
        return cipher_bytes + proof_bytes


def nizk_client_submit(
    combined_pub: Point, bits: list[int], rng
) -> NizkSubmission:
    """Encrypt-and-prove a 0/1 vector."""
    ciphertexts = []
    proofs = []
    for bit in bits:
        ciphertext, k = encrypt_bit(combined_pub, bit, rng)
        proofs.append(prove_bit(combined_pub, ciphertext, bit, k, rng))
        ciphertexts.append(ciphertext)
    return NizkSubmission(ciphertexts=ciphertexts, proofs=proofs)


class NizkServer:
    """One aggregation server: verifies proofs, accumulates ciphertexts."""

    def __init__(self, keypair: ServerKeyPair, combined_pub: Point, length: int):
        self.keypair = keypair
        self.combined_pub = combined_pub
        self.length = length
        self.accumulator: list[ElGamalCiphertext] = [
            ElGamalCiphertext.identity() for _ in range(length)
        ]

    def process(self, submission: NizkSubmission) -> bool:
        if (
            len(submission.ciphertexts) != self.length
            or len(submission.proofs) != self.length
        ):
            return False
        for ciphertext, proof in zip(submission.ciphertexts, submission.proofs):
            if not verify_bit(self.combined_pub, ciphertext, proof):
                return False
        for i, ciphertext in enumerate(submission.ciphertexts):
            self.accumulator[i] = self.accumulator[i] + ciphertext
        return True

    def decryption_shares(self, rng) -> list[tuple[Point, DleqProof]]:
        """Partial decryptions of the accumulator, each DLEQ-proven."""
        out = []
        for ciphertext in self.accumulator:
            share = partial_decrypt(self.keypair.secret, ciphertext)
            proof = prove_dleq(
                self.keypair.secret, ciphertext.c1,
                self.keypair.public, share, rng,
            )
            out.append((share, proof))
        return out


@dataclass
class NizkDeployment:
    """A full baseline deployment: s servers, their public keys and the
    combined key."""

    servers: list[NizkServer]
    combined_pub: Point
    length: int
    publics: list[Point]

    @classmethod
    def create(cls, n_servers: int, length: int, rng) -> "NizkDeployment":
        if n_servers < 2:
            raise NizkError("need at least two servers")
        keypairs = [ServerKeyPair.generate(rng) for _ in range(n_servers)]
        publics = [kp.public for kp in keypairs]
        combined = combined_public_key(publics)
        servers = [NizkServer(kp, combined, length) for kp in keypairs]
        return cls(
            servers=servers, combined_pub=combined,
            length=length, publics=publics,
        )

    def submit(self, submission: NizkSubmission) -> bool:
        """All servers process; accepted only if all agree (they do —
        verification is deterministic — but the loop models real work)."""
        results = [server.process(submission) for server in self.servers]
        return all(results)

    def publish(self, max_total: int, rng) -> list[int]:
        """Threshold-decrypt every accumulator slot, refusing any
        decryption share whose DLEQ proof does not check."""
        all_shares = [server.decryption_shares(rng) for server in self.servers]
        totals = []
        for i in range(self.length):
            ciphertext = self.servers[0].accumulator[i]
            partials = []
            for server_index, shares in enumerate(all_shares):
                share, proof = shares[i]
                if not verify_dleq(
                    ciphertext.c1, self.publics[server_index], share, proof
                ):
                    raise NizkError(
                        f"server {server_index} produced a bad decryption share"
                    )
                partials.append(share)
            point = combine_partials(ciphertext, partials)
            totals.append(discrete_log(point, max_total))
        return totals


#: upload bytes per element: ciphertext (66) + OR proof (260)
UPLOAD_BYTES_PER_ELEMENT = 66 + BitProof.encoded_size()


def nizk_server_transfer_bytes(length: int, n_servers: int) -> int:
    """Per-server server-to-server bytes for one submission.

    In the baseline every server must see the ciphertexts and proofs;
    the entry server relays them to its s-1 peers, and submissions are
    load-balanced across entry servers, so the *average* per-server
    transmit cost is (s-1)/s of the submission size — linear in the
    submission length, unlike Prio's constant (Figure 6).
    """
    total = length * UPLOAD_BYTES_PER_ELEMENT
    return total * (n_servers - 1) // n_servers
