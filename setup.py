"""Package metadata for ``repro``, the Prio reproduction.

The code lives under ``src/``; numpy is optional (every batch kernel
has a pure-Python fallback), so it is an extra rather than a hard
requirement.  ``cryptography`` 48 or later is required: seed
expansion, the PRG of PRG-compressed sharing, runs fixed-key AES-128 on
OpenSSL through it, clients seal and servers open boxes on it (RFC 9180
HPKE on X25519, from its ``hazmat.primitives.hpke``), and registered
clients sign on it (Ed25519).  Offline, install in development mode
with::

    pip install -e . --no-build-isolation --no-deps

which needs the ``wheel`` package; where it is missing, use
``python setup.py develop --no-deps`` instead, or skip installing and
run from the checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Prio: private, robust, and scalable computation of aggregate "
        "statistics (reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["cryptography>=48"],
    extras_require={"numpy": ["numpy"]},
)
