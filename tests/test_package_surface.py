"""Every package's export surface.

As ``tests/protocol/test_surface.py`` does for ``repro.protocol``'s
entry points, each package docstring lists its ``__all__`` in labelled
paragraphs, and each label names who calls the names under it:

(a) ``__all__`` is exactly the listed names, so the surface cannot
    grow without that list changing too;
(b) every "Used in ``src/``" name is used by code in some ``src/``
    module other than the ones that define and re-export it;
(c) every "Paper experiments" name is used by code under
    ``benchmarks/`` and every "Examples" name by code under
    ``examples/``; a "Tests only" name is used by neither, nor by
    ``src/``, and is one of the test-only exports this pin started
    with (that list may only shrink);
(d) no name in any other exemption paragraph has a ``src/`` caller
    either, so a label cannot go stale.  "Scalar oracles" alone are
    exempt: the pure backend's fallbacks and the paper experiments
    run them, and each is named;
(e) every top-level ``repro`` name is in its subpackage's ``__all__``.

Callers are found by identifier (AST names, attributes and imports,
not strings or comments).
"""

import ast
import importlib
import pathlib
import re

import pytest

import repro
import repro.crypto
import repro.ec
import repro.field
import repro.mpc
import repro.sharing
import repro.snip

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent

LIVE = "Used in ``src/``"
ORACLES = "Scalar oracles"
TESTS_ONLY = "Tests only"
#: exemption label -> the tree whose code must call every name under it
CALLED_FROM = {"Paper experiments": "benchmarks", "Examples": "examples"}

#: package -> the exemption paragraphs its docstring may carry
EXEMPT = {
    repro: ("Examples", ORACLES, TESTS_ONLY),
    repro.field: (ORACLES, "Test fields and backend probes"),
    repro.snip: (ORACLES, "Paper experiments", TESTS_ONLY),
    repro.sharing: (ORACLES,),
    repro.crypto: (),
    repro.ec: ("Paper experiments",),
    repro.mpc: (TESTS_ONLY,),
}

#: Exports only tests called when this pin was extended to every
#: package.  Each is a deletion candidate; remove a name here when it
#: is deleted or gains a caller, and never add one.
TESTS_ONLY_CEILING = frozenset({
    "ApproxMaxAfe", "GeometricMeanAfe", "IntegerMeanAfe", "MaxAfe",
    "MinAfe", "MostPopularStringAfe", "ProductAfe", "SetIntersectionAfe",
    "SetUnionAfe", "StddevAfe", "VarianceAfe",
    "SoundnessReport", "run_soundness_experiment", "AdversaryView",
    "SnipSimulator", "real_adversary_view", "ReferenceProof",
    "ReferenceProofShare", "MpcSubmissionShare", "MpcVerificationOutcome",
    "build_triple_validity_circuit", "mpc_upload_elements",
    "CircuitMpcParty", "MpcResult", "mul_gate_levels",
})

PACKAGES = list(EXEMPT)


def _listed(package):
    """Label -> names, for each labelled paragraph of the docstring."""
    labels = (LIVE,) + EXEMPT[package]
    out = {}
    for paragraph in package.__doc__.split("\n\n"):
        paragraph = paragraph.strip()
        for label in labels:
            if paragraph.startswith(label):
                body = paragraph.split(":", 1)[1]
                out[label] = re.findall(r"``(\w+)``", body)
    return out


def _home(init, name):
    """The files a package ``__init__`` gets ``name`` through: itself,
    each subpackage ``__init__`` on the way, and the defining module."""
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    path = SRC.parent / node.module.replace(".", "/")
                    if path.is_dir():
                        return {init} | _home(path / "__init__.py", alias.name)
                    return {init, path.with_suffix(".py")}
    raise AssertionError(f"{init} does not import {name}")


def _code_names(path):
    """Every identifier a module's code uses (not its strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.fixture(scope="module")
def code_names():
    """Tree -> {module path: identifiers its code uses}."""
    return {
        tree: {path: _code_names(path) for path in root.rglob("*.py")}
        for tree, root in (
            ("src", SRC),
            ("benchmarks", ROOT / "benchmarks"),
            ("examples", ROOT / "examples"),
        )
    }


def _called_from(package, name, tree, code_names):
    home = _home(pathlib.Path(package.__file__), name)
    return any(
        name in names
        for path, names in code_names[tree].items()
        if path not in home
    )


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_all_is_the_listed_surface(package):
    listed = _listed(package)
    assert set(listed) == {LIVE, *EXEMPT[package]}
    names = [name for group in listed.values() for name in group]
    assert len(names) == len(set(names)), "a name is listed twice"
    assert len(package.__all__) == len(set(package.__all__))
    assert sorted(package.__all__) == sorted(names)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_live_export_has_a_src_caller(package, code_names):
    uncalled = [
        name for name in _listed(package)[LIVE]
        if not _called_from(package, name, "src", code_names)
    ]
    assert uncalled == []


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_exemption_label_names_the_callers(package, code_names):
    mislabelled = []
    for label, names in _listed(package).items():
        if label in (LIVE, ORACLES):
            continue
        for name in names:
            if label == TESTS_ONLY:
                ok = name in TESTS_ONLY_CEILING and not any(
                    _called_from(package, name, tree, code_names)
                    for tree in code_names
                )
            else:
                ok = not _called_from(package, name, "src", code_names)
                if label in CALLED_FROM:
                    ok = ok and _called_from(
                        package, name, CALLED_FROM[label], code_names
                    )
            if not ok:
                mislabelled.append((label, name))
    assert mislabelled == []


def test_top_level_names_are_subpackage_exports():
    init = pathlib.Path(repro.__file__)
    imported, outside = set(), []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(node.module).__all__
            imported.update(alias.name for alias in node.names)
            outside += [
                alias.name for alias in node.names
                if alias.name not in exported
            ]
    assert outside == []
    assert set(repro.__all__) <= imported
