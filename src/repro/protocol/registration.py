"""Client registration and publish gating (the Section 7 defences).

Prio publishes *exact* aggregates, so a network adversary who blocks
every honest client but one can read that client's value out of the
"aggregate" (the selective denial-of-service attack).  The paper's
standard defence:

    "have the servers keep a list of public keys of registered clients
    (e.g., the students enrolled at a university). Prio clients sign
    their submissions with the signing key corresponding to their
    registered public key and the servers wait to publish their
    accumulator values until a threshold number of registered clients
    have submitted valid messages."

This module implements that defence on top of the base pipeline:

* :class:`ClientRegistry` — the servers' shared list of registered
  Schnorr public keys;
* :class:`RegisteredClient` — wraps :class:`PrioClient`, signing every
  packet with the client's registered key;
* :class:`GatedServer` — a :class:`PrioServer` that receives only
  packets it admitted (registered key, good signature), counts
  *distinct* registered contributors (a Sybil submitting twice counts
  once), and refuses to publish below the threshold;
* :class:`GatedDeployment` — a :class:`PrioDeployment` over
  :class:`GatedServer` s, with a signed entry point.

Registration is a pre-stage of the ordinary ingest: a signed packet is
*admitted* (key and signature checked), and its signed bytes then enter
the server like every other upload, through the deployment's one batch
loop (or the socket front end) and the batch protocol of
:mod:`repro.protocol.pipeline`.  The server checks admission in the
frame check both of its receives share, so no driver can skip the gate.
"""

from __future__ import annotations

import contextlib
import os
import random as _random
from dataclasses import dataclass

from repro.afe.base import Afe
from repro.crypto.sign import SigningKeyPair, sign, verify
from repro.ec.p256 import Point
from repro.protocol.client import ClientSubmission, PrioClient
from repro.protocol.runner import PrioDeployment
from repro.protocol.server import PendingSubmission, PrioServer, ProtocolError
from repro.protocol.wire import ClientPacket
from repro.snip.verifier import ServerRandomness


class RegistrationError(ProtocolError):
    """Raised for unregistered clients, bad signatures, or early publish."""


class ClientRegistry:
    """The deployment's list of registered client public keys."""

    def __init__(self) -> None:
        self._keys: dict[bytes, Point] = {}

    def register(self, public: Point) -> bytes:
        """Add a public key; returns the client id (the encoded point)."""
        client_id = public.encode()
        self._keys[client_id] = public
        return client_id

    def is_registered(self, client_id: bytes) -> bool:
        return client_id in self._keys

    def public_key(self, client_id: bytes) -> Point:
        if client_id not in self._keys:
            raise RegistrationError("unknown client id")
        return self._keys[client_id]

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class SignedPacket:
    """A wire packet plus the submitting client's identity proof."""

    packet: ClientPacket
    client_id: bytes
    signature: bytes

    def signed_bytes(self) -> bytes:
        return self.packet.encode()


class RegisteredClient:
    """A Prio client that signs every packet with its registered key."""

    def __init__(
        self,
        afe: Afe,
        n_servers: int,
        keypair: SigningKeyPair,
        rng=None,
    ) -> None:
        self.keypair = keypair
        self.client_id = keypair.public.encode()
        self.rng = rng if rng is not None else _random.Random(os.urandom(16))
        self._inner = PrioClient(afe, n_servers, rng=self.rng)

    def prepare_submission(self, value) -> list[SignedPacket]:
        [submission] = self._inner.prepare_submissions([value])
        return [
            SignedPacket(
                packet=packet,
                client_id=self.client_id,
                signature=sign(self.keypair, packet.encode(), self.rng),
            )
            for packet in submission.packets
        ]


class GatedServer(PrioServer):
    """A PrioServer that enforces registration and publish gating."""

    def __init__(
        self,
        afe: Afe,
        server_index: int,
        n_servers: int,
        randomness: ServerRandomness,
        registry: ClientRegistry,
        publish_threshold: int,
        epoch_size: int = 1024,
    ) -> None:
        super().__init__(
            afe, server_index, n_servers, randomness, epoch_size=epoch_size
        )
        self.registry = registry
        self.publish_threshold = publish_threshold
        self._contributors: set[bytes] = set()
        #: admitted-but-not-yet-received submission id -> client id
        self._admitted: dict[bytes, bytes] = {}

    def admit(self, signed: SignedPacket) -> None:
        """Check a packet's registration and signature (the pre-stage).

        Raises :class:`RegistrationError`; on success the packet's
        signed bytes may enter through either receive, which credits
        the submission to this client.
        """
        if not self.registry.is_registered(signed.client_id):
            raise RegistrationError("client is not registered")
        public = self.registry.public_key(signed.client_id)
        if not verify(public, signed.signed_bytes(), signed.signature):
            raise RegistrationError("bad submission signature")
        self._admitted[signed.packet.submission_id] = signed.client_id

    def _check_frame(self, packet: ClientPacket) -> PendingSubmission:
        # The registration gate, where both receives meet.  An
        # admission is consumed by the receive that follows it,
        # whatever its outcome; a packet this server did not admit is
        # refused alone, before its id is held, so an admitted retry
        # is accepted.  The pending carries its contributor so
        # acceptance can be attributed (one Sybil key = one
        # contributor).
        contributor = self._admitted.pop(packet.submission_id, None)
        if contributor is None:
            raise RegistrationError("submission was not admitted")
        pending = super()._check_frame(packet)
        pending.contributor_id = contributor  # type: ignore[attr-defined]
        return pending

    def _note_accepted(self, pending: PendingSubmission) -> None:
        super()._note_accepted(pending)
        self._contributors.add(
            pending.contributor_id  # type: ignore[attr-defined]
        )

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["contributors"] = set(self._contributors)
        state["admitted"] = set(self._admitted)
        return state

    def fold_shard_state(self, state: dict) -> None:
        # A process worker credits contributors on its copy; a union
        # brings them home, and folding the same set twice adds none.
        # It also consumes admissions there: the ones it no longer
        # holds were settled by the run, and must not ship again.
        super().fold_shard_state(state)
        self._contributors |= state["contributors"]
        self._admitted = {
            sid: client_id for sid, client_id in self._admitted.items()
            if sid in state["admitted"]
        }

    @property
    def n_contributors(self) -> int:
        return len(self._contributors)

    def publish(self) -> list[int]:
        """Release the accumulator only past the contributor threshold.

        Below the threshold the aggregate could be dominated by an
        adversary's own values (the selective-DoS attack), so the
        server refuses.
        """
        if self.n_contributors < self.publish_threshold:
            raise RegistrationError(
                f"only {self.n_contributors} distinct registered clients "
                f"contributed; refusing to publish below the threshold of "
                f"{self.publish_threshold}"
            )
        return super().publish()


class GatedDeployment(PrioDeployment):
    """A :class:`PrioDeployment` over :class:`GatedServer` s: inline,
    one submission per batch, with registration and publish gating."""

    def __init__(
        self,
        afe: Afe,
        n_servers: int,
        publish_threshold: int,
        seed: bytes = b"gated-seed",
    ) -> None:
        if n_servers < 2:
            raise ProtocolError("Prio needs at least two servers")
        self.registry = ClientRegistry()
        randomness = ServerRandomness(seed)
        servers = [
            GatedServer(
                afe, i, n_servers, randomness,
                registry=self.registry,
                publish_threshold=publish_threshold,
            )
            for i in range(n_servers)
        ]
        # The deployment's own client is registered nowhere: what it
        # submits is refused, like any unsigned upload.
        super().__init__(
            afe, servers, PrioClient(afe, n_servers), encrypt=False,
            batch_size=1, executor="inline",
        )

    def new_client(self, rng=None) -> RegisteredClient:
        keypair = SigningKeyPair.generate(rng)
        self.registry.register(keypair.public)
        return RegisteredClient(self.afe, len(self.servers), keypair, rng=rng)

    def deliver_signed(self, signed_packets: list[SignedPacket]) -> bool:
        """Admit one signed submission at every server, then run it
        through :meth:`deliver`.  A server whose admission fails refuses
        the submission at receive.  A list that does not hold one packet
        per server is refused before any admit."""
        if len(signed_packets) != len(self.servers):
            return False
        for server, signed in zip(self.servers, signed_packets):
            with contextlib.suppress(RegistrationError):
                server.admit(signed)
        packets = [signed.packet for signed in signed_packets]
        return self.deliver(
            [ClientSubmission(packets[0].submission_id, packets)]
        )[0]
