"""``cryptography`` is what seed expansion runs on, and it loads late.

PRG-compressed sharing expands seeds with fixed-key AES-128 on OpenSSL,
so ``cryptography`` is a required dependency.  Where it cannot be
imported, a PRG-compressed deployment fails at its first seed
expansion with an error naming the package, while a deployment that
ships explicit shares still seals and opens every box on the pure
P-256 kernels.  Where it can be imported, nothing imports it before the
first seed expansion, seal or open, so ``import repro`` and a
deployment that does none of them never load it.  Both checks run in a
fresh interpreter; the first blocks ``cryptography`` with a
``sys.meta_path`` finder, as ``tests/test_numpy_optional.py`` blocks
numpy.
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
    from repro.crypto import box
    from repro.ec import reset_op_counter, scalar_mult_count
    from repro.field import FIELD87
    from repro.protocol import PrioDeployment

    values = [5, 19, 3, 200, 0, 77]
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), 2, batch_size=4,
        rng=random.Random(7), encrypt=True, use_prg_compression=False,
    )
    try:
        reset_op_counter()
        deployment.submit_many(values)
        assert deployment.publish() == sum(values)
    finally:
        deployment.close()
    assert box._openssl_ec() is None
    # each server opened each upload on the ladder
    assert scalar_mult_count() >= 2 * len(values), scalar_mult_count()

    # seeds need AES: the first expansion names the missing package
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), 2, batch_size=4, rng=random.Random(7),
    )
    try:
        deployment.submit_many(values)
    except ModuleNotFoundError as exc:
        assert exc.name == "cryptography", exc.name
        assert "cryptography" in str(exc), exc
    else:
        raise AssertionError("seeds expanded without cryptography")
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


def test_sealed_round_trip_without_cryptography():
    _run(BLOCKED)


def test_importing_repro_leaves_cryptography_unloaded():
    _run(LAZY)
