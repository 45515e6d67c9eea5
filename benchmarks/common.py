"""Shared benchmark infrastructure.

Every ``bench_*.py`` file reproduces one table or figure from the
paper's evaluation (Section 6).  The heavy sweep runs once per session
(module-scoped fixtures), emits a formatted table through
:func:`emit_table` — printed in pytest's terminal summary and written
to ``benchmarks/results/<id>.json`` — and registers one representative
timed operation with pytest-benchmark.

Set ``PRIO_BENCH_FULL=1`` for paper-scale sweeps (larger L, more
points); the default sizes keep the whole suite to a few minutes of
wall time.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field as dc_field

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FULL = os.environ.get("PRIO_BENCH_FULL") == "1"

#: Phone/workstation slowdown, calibrated from the paper's Table 3
#: field-multiplication row (11.218 us / 1.013 us for the 87-bit field).
PHONE_SLOWDOWN = {"F87": 11.218 / 1.013, "F265": 14.930 / 1.485}


@dataclass
class TableArtifact:
    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[str]]
    notes: list[str] = dc_field(default_factory=list)

    def render(self) -> str:
        widths = [
            max(len(str(self.headers[i])), *(len(str(r[i])) for r in self.rows))
            for i in range(len(self.headers))
        ]
        lines = [f"== {self.exp_id}: {self.title} =="]
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


#: tables emitted during this pytest session (printed by conftest.py)
EMITTED: list[TableArtifact] = []


def emit_table(
    exp_id: str,
    title: str,
    headers: list[str],
    rows: list[list],
    notes: list[str] | None = None,
) -> TableArtifact:
    """Record a result table: console summary + JSON artifact."""
    artifact = TableArtifact(
        exp_id=exp_id,
        title=title,
        headers=[str(h) for h in headers],
        rows=[[str(c) for c in row] for row in rows],
        notes=list(notes or []),
    )
    EMITTED.append(artifact)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "exp_id": exp_id,
        "title": title,
        "headers": artifact.headers,
        "rows": artifact.rows,
        "notes": artifact.notes,
        "full_scale": FULL,
    }
    out = RESULTS_DIR / f"{exp_id}.json"
    out.write_text(json.dumps(payload, indent=2))
    return artifact


def time_call(fn, *args, repeat: int = 3, min_time: float = 0.0):
    """Best-of-``repeat`` wall time of ``fn(*args)`` in seconds.

    ``repeat`` is reduced automatically once a single call exceeds a
    second — the big Figure 7 workloads need only one observation.
    """
    best = float("inf")
    for attempt in range(repeat):
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if elapsed > 1.0 and attempt >= 0:
            break
        if best > min_time > 0:
            break
    return best


#: The table note each client figure carries: what its Prio line ran.
CLIENT_PATH_NOTE = (
    "prio = the deployed client, PrioClient.prepare_submissions, "
    "one value per call"
)


def prepare_one(client, value):
    """One upload through the deployed client entry point: a
    ``PrioClient.prepare_submissions`` call holding one value."""
    return client.prepare_submissions([value])[0]


def fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def fmt_rate(rate: float) -> str:
    if rate >= 1000:
        return f"{rate:,.0f}"
    if rate >= 10:
        return f"{rate:.0f}"
    return f"{rate:.2f}"


def fmt_bytes(n: float) -> str:
    if n < 1024:
        return f"{n:.0f}B"
    if n < 1024**2:
        return f"{n / 1024:.1f}KiB"
    return f"{n / 1024 ** 2:.2f}MiB"
