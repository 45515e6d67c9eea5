"""Fixture snippets for every shipped rule.

Each rule gets three cases: a snippet it must flag, a clean snippet it
must stay silent on, and a flagged snippet whose ``# repro: allow``
suppression is honored.  Module-scoped rules adopt a hot-path identity
via the ``# repro: lint-as(...)`` pragma — the same mechanism real
out-of-tree code would use.

The fixture code lives in string literals, so the analyzer's own
whole-tree run never sees it as AST (and the pragma scanner, built on
:mod:`tokenize`, cannot be fooled by it either).
"""

import textwrap

from repro.analysis import analyze_source


def _run(snippet, path="fixture.py"):
    return analyze_source(textwrap.dedent(snippet), path)


def _rules(findings, suppressed=False):
    return [
        f.rule for f in findings if f.suppressed == suppressed
    ]


# ---------------------------------------------------------------------
# plane-discipline
# ---------------------------------------------------------------------

def test_plane_discipline_flags_scalar_call_in_loop():
    findings = _run(
        """
        # repro: lint-as(repro/field/batch.py)
        def accumulate(batch, out):
            for i in range(8):
                out.append(batch.to_ints())
        """
    )
    assert _rules(findings) == ["plane-discipline"]


def test_plane_discipline_iterator_source_runs_once():
    findings = _run(
        """
        # repro: lint-as(repro/field/batch.py)
        def hoisted(batch):
            rows = batch.to_ints()
            return [row[0] for row in rows]

        def once(batch):
            return [sum(row) for row in batch.to_ints()]

        def for_source(batch):
            out = []
            for row in batch.to_ints():
                out.append(sum(row))
            return out
        """
    )
    assert _rules(findings) == []


def test_plane_discipline_ignores_unscoped_modules():
    findings = _run(
        """
        def accumulate(batch, out):
            for i in range(8):
                out.append(batch.to_ints())
        """,
        path="repro/workloads/driver.py",
    )
    assert _rules(findings) == []


def test_plane_discipline_suppression_honored():
    findings = _run(
        """
        # repro: lint-as(repro/field/batch.py)
        def accumulate(batch, out):
            for i in range(8):
                # repro: allow(plane-discipline) - fixture rationale
                out.append(batch.to_ints())
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["plane-discipline"]


# ---------------------------------------------------------------------
# canonical-crossing
# ---------------------------------------------------------------------

def test_canonical_crossing_flags_tainted_return():
    findings = _run(
        """
        # repro: lint-as(repro/field/batch.py)
        def mul_planes(ctx, a, b):
            raw = _conv(ctx, a, b)
            return raw
        """
    )
    assert _rules(findings) == ["canonical-crossing"]


def test_canonical_crossing_flags_direct_and_kw_sources():
    findings = _run(
        """
        # repro: lint-as(repro/field/ntt.py)
        def forward(ctx, a, b):
            return _carry(ctx, a, b)

        def lazy(ctx, a):
            x = _barrett(ctx, a, canonical=False)
            return x
        """
    )
    assert _rules(findings) == [
        "canonical-crossing", "canonical-crossing",
    ]


def test_canonical_crossing_barrett_cleanses():
    findings = _run(
        """
        # repro: lint-as(repro/field/batch.py)
        def mul_planes(ctx, a, b):
            raw = _conv(ctx, a, b)
            raw = _barrett(ctx, raw)
            return raw

        def _private_helper(ctx, a, b):
            return _conv(ctx, a, b)
        """
    )
    assert _rules(findings) == []


def test_canonical_crossing_suppression_honored():
    findings = _run(
        """
        # repro: lint-as(repro/field/batch.py)
        def mul_planes(ctx, a, b):
            raw = _conv(ctx, a, b)
            # repro: allow(canonical-crossing) - fixture rationale
            return raw
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["canonical-crossing"]


# ---------------------------------------------------------------------
# rng-draw-order
# ---------------------------------------------------------------------

def test_rng_draw_order_flags_scalar_draws_in_batch_fn():
    findings = _run(
        """
        # repro: lint-as(repro/snip/prover.py)
        def prove_and_share_many(field, rng, n):
            out = []
            for _ in range(n):
                out.append(rng.randrange(field.modulus))
            return out
        """
    )
    assert _rules(findings) == ["rng-draw-order"]


def test_rng_draw_order_flags_alias_and_scalar_expand():
    findings = _run(
        """
        # repro: lint-as(repro/sharing/additive.py)
        def share_vectors_batch(field, seeds, rng):
            randrange = rng.randrange
            return [expand_seed(field, s, 4) for s in seeds]
        """
    )
    assert sorted(_rules(findings)) == [
        "rng-draw-order", "rng-draw-order",
    ]


def test_rng_draw_order_silent_outside_batch_functions():
    findings = _run(
        """
        # repro: lint-as(repro/snip/prover.py)
        def prove_and_share(field, rng):
            return rng.randrange(field.modulus)

        def draw_many_batch(field, seeds, rng):
            return expand_seed_batch(field, seeds, 4)
        """
    )
    assert _rules(findings) == []


def test_rng_draw_order_suppression_honored():
    findings = _run(
        """
        # repro: lint-as(repro/snip/prover.py)
        def share_proof_many(field, rng):
            # repro: allow(rng-draw-order) - fixture rationale
            return rng.randrange(field.modulus)
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["rng-draw-order"]


# ---------------------------------------------------------------------
# executor-lifecycle
# ---------------------------------------------------------------------

def test_executor_lifecycle_flags_unbounded_queue():
    findings = _run(
        """
        import asyncio

        async def start(self):
            self._q = asyncio.Queue()
        """
    )
    assert _rules(findings) == ["executor-lifecycle"]


def test_executor_lifecycle_flags_fire_and_forget_task():
    findings = _run(
        """
        import asyncio

        async def start(self):
            asyncio.create_task(self._worker())
        """
    )
    assert _rules(findings) == ["executor-lifecycle"]


def test_executor_lifecycle_flags_pool_without_teardown():
    findings = _run(
        """
        from concurrent.futures import ProcessPoolExecutor

        class Fanout:
            def start(self):
                self._pool = ProcessPoolExecutor(2)
        """
    )
    assert _rules(findings) == ["executor-lifecycle"]


def test_executor_lifecycle_clean_patterns_pass():
    findings = _run(
        """
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        class Fanout:
            def start(self):
                self._q = asyncio.Queue(8)
                self._pool = ThreadPoolExecutor(2)
                self._task = asyncio.create_task(self.run())

            def close(self):
                self._task.cancel()
                self._pool.shutdown(wait=True)

        def scoped(items):
            with ThreadPoolExecutor(2) as pool:
                return list(pool.map(len, items))

        def factory():
            return ThreadPoolExecutor(2)

        async def awaited():
            fut = asyncio.ensure_future(work())
            return await fut
        """
    )
    assert _rules(findings) == []


def test_executor_lifecycle_suppression_honored():
    findings = _run(
        """
        import asyncio

        async def start(self):
            # repro: allow(executor-lifecycle) - fixture rationale
            self._q = asyncio.Queue()
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["executor-lifecycle"]


# ---------------------------------------------------------------------
# shard-pickle-safety
# ---------------------------------------------------------------------

def test_shard_pickle_flags_lock_attribute():
    findings = _run(
        """
        # repro: lint-as(repro/protocol/server.py)
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
        """
    )
    assert _rules(findings) == ["shard-pickle-safety"]


def test_shard_pickle_tracks_local_name_taint():
    findings = _run(
        """
        # repro: lint-as(repro/protocol/server.py)
        import sqlite3

        class Tiered:
            def __init__(self, path):
                conn = sqlite3.connect(path)
                self._conn = conn
        """
    )
    assert _rules(findings) == ["shard-pickle-safety"]


def test_shard_pickle_getstate_exempts_class():
    findings = _run(
        """
        # repro: lint-as(repro/protocol/server.py)
        import threading

        class Tiered:
            def __init__(self):
                self._lock = threading.Lock()

            def __getstate__(self):
                state = dict(self.__dict__)
                state.pop("_lock")
                return state
        """
    )
    assert _rules(findings) == []


def test_shard_pickle_suppression_honored():
    findings = _run(
        """
        # repro: lint-as(repro/protocol/server.py)
        import threading

        class Server:
            def __init__(self):
                # repro: allow(shard-pickle-safety) - fixture rationale
                self._lock = threading.Lock()
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["shard-pickle-safety"]


# ---------------------------------------------------------------------
# wire-bounds
# ---------------------------------------------------------------------

def test_wire_bounds_flags_unguarded_to_bytes():
    findings = _run(
        """
        # repro: lint-as(repro/transport/framing.py)
        def encode(payload):
            return len(payload).to_bytes(4, "big") + payload
        """
    )
    assert _rules(findings) == ["wire-bounds"]


def test_wire_bounds_guard_must_mention_subject():
    findings = _run(
        """
        # repro: lint-as(repro/protocol/wire.py)
        def encode(sid, payload):
            if len(sid) != 16:
                raise WireError("bad sid")
            return len(payload).to_bytes(4, "big") + payload
        """
    )
    assert _rules(findings) == ["wire-bounds"]


def test_wire_bounds_guarded_and_constant_pass():
    findings = _run(
        """
        # repro: lint-as(repro/transport/framing.py)
        RESPONSE_SIZE = 17

        def encode(payload):
            if len(payload) > (1 << 32) - 1:
                raise FrameError("too large")
            return len(payload).to_bytes(4, "big") + payload

        def respond(payload):
            return RESPONSE_SIZE.to_bytes(4, "big") + payload
        """
    )
    assert _rules(findings) == []


def test_wire_bounds_suppression_honored():
    findings = _run(
        """
        # repro: lint-as(repro/transport/framing.py)
        def encode(payload):
            # repro: allow(wire-bounds) - fixture rationale
            return len(payload).to_bytes(4, "big") + payload
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["wire-bounds"]


# ---------------------------------------------------------------------
# exception-retention
# ---------------------------------------------------------------------

def test_exception_retention_flags_stored_exception():
    findings = _run(
        """
        def receive(payloads, out, log):
            for i, data in enumerate(payloads):
                try:
                    decode(data)
                except ValueError as exc:
                    out[i] = exc
                    log.append(exc)
                    self.last_error = exc
        """
    )
    assert _rules(findings) == ["exception-retention"] * 3


def test_exception_retention_clean_patterns_pass():
    findings = _run(
        """
        def receive(payloads, out):
            error = None
            for i, data in enumerate(payloads):
                try:
                    decode(data)
                except ValueError as exc:
                    out[i] = exc.with_traceback(None)
                    error = exc
                except KeyError as exc:
                    raise RuntimeError(str(exc)) from exc
            out.append(error)
            return error
        """
    )
    assert _rules(findings) == []


def test_exception_retention_suppression_honored():
    findings = _run(
        """
        def receive(data, out):
            try:
                decode(data)
            except ValueError as exc:
                # repro: allow(exception-retention) - fixture rationale
                out[0] = exc
        """
    )
    assert _rules(findings) == []
    assert _rules(findings, suppressed=True) == ["exception-retention"]
