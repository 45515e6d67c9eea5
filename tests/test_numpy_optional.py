"""numpy is optional (``setup.py``): ``import repro`` and a full
deployment round trip must work where it cannot be imported.

The check runs in a fresh interpreter whose ``sys.meta_path`` refuses
every ``numpy`` import, so no module can reach numpy by any route.  A
finder is used rather than ``sys.modules["numpy"] = None``, which
breaks libraries that probe for numpy (hypothesis's entropy hook).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import random
    import sys


    class BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ModuleNotFoundError(f"{name} is blocked", name=name)
            return None


    sys.meta_path.insert(0, BlockNumpy())

    import repro
    from repro.afe import AfeError, IntegerSumAfe, LinRegAfe
    from repro.field import FIELD87, backend_name
    from repro.protocol import PrioDeployment

    assert backend_name() == "pure", backend_name()
    values = [5, 19, 3, 200, 0, 77]
    deployment = PrioDeployment.create(
        IntegerSumAfe(FIELD87, 8), 3, batch_size=4,
        rng=random.Random(7), encrypt=True,
    )
    try:
        deployment.submit_many(values)
        assert deployment.publish() == sum(values)
    finally:
        deployment.close()

    afe = LinRegAfe(FIELD87, dimension=1, n_bits=4)
    try:
        afe.decode([0] * afe.k_prime, 3)
    except AfeError as exc:
        assert "numpy" in str(exc), exc
    else:
        raise AssertionError("LinRegAfe.decode ran without numpy")
    assert not any(m.split(".")[0] == "numpy" for m in sys.modules)
    print("ok")
    """
)


def test_import_and_round_trip_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_FORCE_PURE", None)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
