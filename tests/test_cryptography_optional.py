"""``cryptography`` is optional and loaded late.

Where it cannot be imported, a sealed deployment still seals and opens
every box on the pure P-256 kernels.  Where it can, nothing imports it
until the first box is sealed or opened, so a cleartext client or
server never pays for it.  Both checks run in a fresh interpreter; the
first blocks ``cryptography`` with a ``sys.meta_path`` finder, as
``tests/test_numpy_optional.py`` blocks numpy.
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
        rng=random.Random(7), encrypt=True,
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

    values = [5, 19, 3, 200]
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), 2, batch_size=4, rng=random.Random(7),
    )
    try:
        deployment.submit_many(values)
        assert deployment.publish() == sum(values)
    finally:
        deployment.close()
    # only a seal or an open loads it: a cleartext deployment never does
    assert not any(m.split(".")[0] == "cryptography" for m in sys.modules)
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
