"""The ``repro.field`` and ``repro.snip`` export surfaces.

As ``tests/protocol/test_surface.py`` does for ``repro.protocol``, each
package docstring lists the exports, here in labelled paragraphs:

(a) ``__all__`` is exactly the listed names, so the surface cannot
    grow without that list changing too; and
(b) every name in the "Used in ``src/``" paragraph is used by code in
    some ``src/`` module other than its defining module and the
    package ``__init__``.  A name nothing in ``src/`` uses must sit in
    one of the package's named exemption paragraphs (scalar oracles,
    paper experiments, test fields) — so an entry point only tests
    call cannot be exported quietly.
"""

import ast
import pathlib
import re

import pytest

import repro
import repro.field
import repro.snip

SRC = pathlib.Path(repro.__file__).parent

LIVE = "Used in ``src/``"

#: package -> the exemption paragraphs its docstring may carry
EXEMPT = {
    repro.field: ("Scalar oracles", "Test fields and backend probes"),
    repro.snip: ("Scalar oracles", "Paper experiments"),
}

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


def _module_path(dotted):
    return SRC.parent / (dotted.replace(".", "/") + ".py")


def _defining_modules(package):
    """Export name -> the file the package ``__init__`` imports it from."""
    init = pathlib.Path(package.__file__)
    out = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = _module_path(node.module)
    return out


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
def src_names():
    return {path: _code_names(path) for path in SRC.rglob("*.py")}


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_all_is_the_listed_surface(package):
    listed = _listed(package)
    assert set(listed) == {LIVE, *EXEMPT[package]}
    names = [name for group in listed.values() for name in group]
    assert len(names) == len(set(names)), "a name is listed twice"
    assert len(package.__all__) == len(set(package.__all__))
    assert sorted(package.__all__) == sorted(names)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_live_export_has_a_src_caller(package, src_names):
    defined_in = _defining_modules(package)
    init = pathlib.Path(package.__file__)
    uncalled = [
        name for name in _listed(package)[LIVE]
        if not any(
            name in names
            for path, names in src_names.items()
            if path not in (init, defined_in[name])
        )
    ]
    assert uncalled == []
