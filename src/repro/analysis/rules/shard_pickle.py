"""shard-pickle-safety: worker-visible classes must stay picklable.

``ProcessFanout`` ships servers (replay sets
included) and verifier state to worker processes via pickle (and each
worker's ``snapshot_state`` delta pickles back for
``fold_shard_state``, the one run-end merge).  An attribute holding a
lock, socket, sqlite connection, generator, or lambda breaks that
silently — usually only under the process fan-out configuration that CI
exercises least.  Classes that declare ``__getstate__``/``__reduce__``
have opted into manual control (dropping such attributes there) and
are exempt.

The rule tracks per-function local-name taint so the common
``conn = sqlite3.connect(...); self._conn = conn`` two-step is caught,
not just direct assignment.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import call_name, dotted_name, expr_root

_PICKLE_HOOKS = frozenset({
    "__getstate__", "__reduce__", "__reduce_ex__", "__getnewargs__",
})

#: module roots whose constructed objects never pickle
_UNPICKLABLE_ROOTS = frozenset({"threading", "asyncio", "socket", "weakref"})
_UNPICKLABLE_DOTTED = frozenset({"sqlite3.connect", "sqlite3.Connection"})


def _unpicklable(value: ast.AST) -> "str | None":
    """Label if ``value`` evaluates to something pickle rejects."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator"
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted in _UNPICKLABLE_DOTTED:
            return f"{dotted}(...)"
        root = expr_root(value.func)
        if root in _UNPICKLABLE_ROOTS:
            return f"{dotted or root}(...)"
        if call_name(value) == "open" and isinstance(value.func, ast.Name):
            return "an open file handle"
    return None


@register
class ShardPickleSafety(Checker):
    name = "shard-pickle-safety"
    description = (
        "unpicklable attribute (lock/socket/connection/lambda/generator) "
        "on a class shipped across the process fan-out without "
        "__getstate__/__reduce__"
    )
    targets = (
        "repro/protocol/server.py",
        "repro/protocol/fanout.py",
        "repro/protocol/wire.py",
        "repro/snip/verifier.py",
        "repro/snip/proof.py",
        "repro/field/batch.py",
    )

    def __init__(self) -> None:
        #: (class node, has pickle hooks) innermost-last
        self._classes: "list[tuple[ast.ClassDef, bool]]" = []
        #: per-function local taint frames: name -> label
        self._frames: "list[dict[str, str]]" = []

    def visit_ClassDef(self, node: ast.ClassDef, ctx) -> None:
        exempt = any(
            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub.name in _PICKLE_HOOKS
            for sub in ast.walk(node)
        )
        self._classes.append((node, exempt))

    def leave_ClassDef(self, node: ast.ClassDef, ctx) -> None:
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx) -> None:
        self._frames.append({})

    def leave_FunctionDef(self, node: ast.FunctionDef, ctx) -> None:
        self._frames.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx) -> None:
        self._frames.append({})

    def leave_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx) -> None:
        self._frames.pop()

    def visit_Assign(self, node: ast.Assign, ctx) -> None:
        label = _unpicklable(node.value)
        frame = self._frames[-1] if self._frames else None
        if (
            label is None
            and frame is not None
            and isinstance(node.value, ast.Name)
        ):
            label = frame.get(node.value.id)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if frame is not None:
                    if label is not None:
                        frame[target.id] = label
                    else:
                        frame.pop(target.id, None)
            elif (
                label is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._classes
            ):
                cls, exempt = self._classes[-1]
                if not exempt:
                    self.report(
                        ctx, node,
                        f"self.{target.attr} holds {label} but class "
                        f"'{cls.name}' defines no __getstate__/"
                        "__reduce__; the process fan-out ships this "
                        "object via pickle",
                    )
