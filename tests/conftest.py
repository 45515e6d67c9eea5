"""Suite-wide setup: makes the scalar oracles in ``tests/oracle``
importable as ``oracle`` from every test module.

``tests/`` is not a package, so under pytest's default ``prepend``
import mode this file's directory is already on ``sys.path`` while
the suite runs; the explicit insert keeps ``import oracle`` working
under ``--import-mode=importlib`` too, which puts nothing there.
"""

import pathlib
import sys

_TESTS = str(pathlib.Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)
