"""rng-draw-order: batched code must not interleave scalar rng draws.

The batch/scalar equivalence contract (PR 5's bug class) says a batched
function must consume randomness in exactly the per-submission order
its scalar counterpart would — which is only guaranteed when all draws
go through the order-preserving primitives (``expand_seed_batch``,
``generate_triple``, ``new_seed`` per submission).  A raw
``rng.randrange`` / scalar ``expand_seed`` / ``PrgStream`` constructed
mid-way through a ``*_batch``/``*_many`` function draws in whatever
order the surrounding loop happens to run, silently diverging from the
scalar path.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import Checker, register
from repro.analysis.rules._util import call_name, dotted_name

#: scalar draw methods on a Random/SystemRandom-like object
_RNG_METHODS = frozenset({
    "randrange", "randint", "random", "randbytes",
    "getrandbits", "choice", "choices", "shuffle", "sample",
})

#: function-name fragments that mark batched (order-sensitive) code
_BATCH_MARKERS = ("batch", "_many", "planes")


def _is_rng_attribute(node: ast.AST) -> bool:
    """``rng.randrange`` / ``self.rng.choice`` style access."""
    if not isinstance(node, ast.Attribute) or node.attr not in _RNG_METHODS:
        return False
    return "rng" in dotted_name(node).split(".")


@register
class RngDrawOrder(Checker):
    name = "rng-draw-order"
    description = (
        "scalar rng draw (rng.randrange/scalar expand_seed/PrgStream/"
        "os.urandom) inside a batched *_batch/*_many/*_planes function"
    )
    targets = (
        "repro/snip/batch_prover.py",
        "repro/snip/prover.py",
        "repro/sharing/additive.py",
        "repro/field/batch.py",
        "repro/circuit/compiled.py",
    )

    def _batched_scope(self, ctx) -> "str | None":
        fn = ctx.enclosing_function()
        if fn is not None and any(m in fn.name for m in _BATCH_MARKERS):
            return fn.name
        return None

    def visit_Call(self, node: ast.Call, ctx) -> None:
        scope = self._batched_scope(ctx)
        if scope is None:
            return
        name = call_name(node)
        message = None
        if name == "PrgStream":
            message = "constructs a scalar PrgStream"
        elif name == "expand_seed":
            message = "calls scalar expand_seed"
        elif dotted_name(node.func) == "os.urandom":
            message = "draws raw bytes via os.urandom"
        elif _is_rng_attribute(node.func):
            message = f"draws scalar rng.{node.func.attr}"
        if message is not None:
            self.report(
                ctx, node,
                f"batched function '{scope}' {message}; draw order must "
                "come from the order-preserving primitives "
                "(expand_seed_batch/generate_triple/new_seed per "
                "submission)",
            )

    def visit_Assign(self, node: ast.Assign, ctx) -> None:
        scope = self._batched_scope(ctx)
        if scope is None:
            return
        if _is_rng_attribute(node.value):
            self.report(
                ctx, node,
                f"batched function '{scope}' aliases scalar draw method "
                f"'{dotted_name(node.value)}'; the bound method hides "
                "order-sensitive draws from review",
            )
