"""Repo-specific soundness lint: AST invariant checks for Prio.

Prio's robustness guarantee survives refactors only if the
implementation preserves invariants the type system cannot see: field
values stay canonical when they cross a public API boundary, batched
code consumes randomness in exactly the scalar draw order, executors
and tasks are torn down on every path, state crossing a process-worker
seam pickles, and attacker-influenced integers are bound-checked
before they hit fixed-width wire encodings.  Each of those has already
cost a real bug (see ``docs/ANALYSIS.md`` for the PR that motivated
every rule); this package is the static half of the regression
insurance — generic linters do not know these bug classes.

Architecture
------------

* :mod:`repro.analysis.registry` — the checker registry; every rule is
  a :class:`~repro.analysis.registry.Checker` subclass registered by
  import.
* :mod:`repro.analysis.driver` — single-parse multi-visitor driver:
  each file is parsed once and walked once, with every active checker
  receiving visit/leave events off the same traversal.
* :mod:`repro.analysis.suppress` — ``# repro: allow(<rule>)``
  suppression comments and the ``# repro: lint-as(<module>)`` pragma
  (fixture files opt in to a hot-path module's rules).
* :mod:`repro.analysis.rules` — the seven shipped rules.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis <paths>``
  with human and JSON output and CI-friendly exit codes.
"""

from __future__ import annotations

from repro.analysis.driver import AnalysisResult, analyze_paths, analyze_source
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, all_checkers, register

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "all_checkers",
    "analyze_paths",
    "analyze_source",
    "register",
]
