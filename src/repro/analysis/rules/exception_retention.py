"""exception-retention: a kept exception must drop its traceback.

An exception caught with ``except ... as exc`` carries a
``__traceback__`` that holds every frame from the raise to the catch,
and each frame holds its locals.  Storing the object past the handler
(``out[i] = exc``, ``self.error = exc``, ``refusals.append(exc)``)
keeps those frames alive.  When the store target is itself a local of
a held frame, the result is a reference cycle that only the cyclic GC
frees, and it runs late.  ``PrioServer``'s receive sweep did exactly
this: each stored refusal pinned the batch's decoded share planes,
about 4 MiB per batch of 64 ``vec256`` uploads.  Store
``exc.with_traceback(None)`` instead; type, message and attributes are
unchanged.

Rebinding a plain local (``error = exc``) and re-raising are not
flagged: neither outlives the frame that handles the exception.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register

#: container methods whose argument outlives the handler
_STORING_METHODS = frozenset({"append", "add", "put"})
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _caught_names(ctx) -> "set[str]":
    """Names bound by the ``except ... as`` handlers around the node
    being visited (without leaving the enclosing function)."""
    names: "set[str]" = set()
    for node in reversed(ctx.stack):
        if isinstance(node, _SCOPE_NODES):
            break
        if isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


@register
class ExceptionRetention(Checker):
    name = "exception-retention"
    description = (
        "caught exception stored past its handler with its traceback; "
        "the traceback pins the raising frames' locals until the cyclic "
        "GC runs (store exc.with_traceback(None))"
    )
    targets = None

    def _check(self, ctx, node: ast.AST, value: ast.AST, how: str) -> None:
        if not isinstance(value, ast.Name):
            return
        if value.id in _caught_names(ctx):
            self.report(
                ctx, node,
                f"caught exception '{value.id}' {how} with its traceback, "
                "which keeps the raising frames and their locals alive; "
                f"store '{value.id}.with_traceback(None)'",
            )

    def visit_Assign(self, node: ast.Assign, ctx) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check(ctx, node, node.value, "stored into a subscript")
            elif isinstance(target, ast.Attribute):
                self._check(ctx, node, node.value, "stored into an attribute")

    def visit_Call(self, node: ast.Call, ctx) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _STORING_METHODS
        ):
            return
        for arg in node.args:
            self._check(ctx, node, arg, f"passed to .{func.attr}()")
