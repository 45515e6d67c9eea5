"""``cryptography`` is what the deployment's crypto runs on, and it
loads late.

Seed expansion (fixed-key AES-128), the sealed box (HPKE on X25519) and
client signatures (Ed25519) all run on OpenSSL, so ``cryptography`` is
a required dependency.  Where it cannot be imported, each fails at its
first use with :class:`ModuleNotFoundError` naming the package: a
sealed deployment at its first key generation or seal, a signing key
at its generation, a PRG-compressed deployment at its first seed
expansion.  Where it can be imported, nothing imports it before that
first use, so ``import repro``, the registration module and a
cleartext deployment that ships explicit shares never load it.  Both
checks run in a fresh interpreter; the first blocks ``cryptography``
with a ``sys.meta_path`` finder, as ``tests/test_numpy_optional.py``
blocks numpy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED = textwrap.dedent(
    """
    import random
    import sys


    class BlockCryptography:
        def find_spec(self, name, path=None, target=None):
            if name == "cryptography" or name.startswith("cryptography."):
                raise ModuleNotFoundError(f"{name} is blocked", name=name)
            return None


    sys.meta_path.insert(0, BlockCryptography())

    from repro.afe import IntegerSumAfe
    from repro.crypto import SigningKeyPair, seal
    from repro.field import FIELD87
    from repro.protocol import PrioDeployment


    def fails(call):
        try:
            call()
        except ModuleNotFoundError as exc:
            assert exc.name == "cryptography", exc.name
            assert "cryptography" in str(exc), exc
        else:
            raise AssertionError(f"{call} ran without cryptography")


    values = [5, 19, 3, 200, 0, 77]

    # a sealed deployment generates its servers' box keys at creation
    fails(lambda: PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), 2, rng=random.Random(7), encrypt=True,
        use_prg_compression=False,
    ))
    fails(lambda: seal(bytes(range(32)), b"payload", random.Random(7)))
    fails(SigningKeyPair.generate)

    # seeds need AES: the first expansion names the missing package
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), 2, batch_size=4, rng=random.Random(7),
    )
    try:
        fails(lambda: deployment.submit_many(values))
    finally:
        deployment.close()
    assert not any(m.split(".")[0] == "cryptography" for m in sys.modules)
    print("ok")
    """
)

LAZY = textwrap.dedent(
    """
    import random
    import sys

    import repro
    import repro.protocol
    import repro.protocol.registration
    import repro.transport
    from repro.afe import IntegerSumAfe
    from repro.field import FIELD87
    from repro.protocol import PrioDeployment

    def loaded():
        return any(m.split(".")[0] == "cryptography" for m in sys.modules)

    assert not loaded()
    values = [5, 19, 3, 200]
    for compress in (False, True):
        deployment = PrioDeployment.create(
            IntegerSumAfe(FIELD87, 8), 2, batch_size=4,
            rng=random.Random(7), use_prg_compression=compress,
        )
        try:
            deployment.submit_many(values)
            assert deployment.publish() == sum(values)
        finally:
            deployment.close()
        # explicit shares in cleartext never load it; seeds do
        assert loaded() == compress
    print("ok")
    """
)


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_public_key_crypto_needs_cryptography():
    _run(BLOCKED)


def test_importing_repro_leaves_cryptography_unloaded():
    _run(LAZY)
