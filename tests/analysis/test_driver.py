"""Driver, suppression, CLI, and whole-tree smoke tests."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import all_checkers, analyze_paths, analyze_source
from repro.analysis.cli import main
from repro.analysis.driver import normalize_module
from repro.analysis.suppress import scan_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------
# driver plumbing
# ---------------------------------------------------------------------

def test_normalize_module_strips_prefixes():
    assert normalize_module("src/repro/field/batch.py") == (
        "repro/field/batch.py"
    )
    assert normalize_module(
        "/x/site-packages/repro/protocol/wire.py"
    ) == "repro/protocol/wire.py"
    assert normalize_module("tests/analysis/test_driver.py") == (
        "tests/analysis/test_driver.py"
    )
    assert normalize_module("elsewhere/tool.py") == "elsewhere/tool.py"


def test_all_seven_rules_registered():
    assert sorted(all_checkers()) == [
        "canonical-crossing",
        "exception-retention",
        "executor-lifecycle",
        "plane-discipline",
        "rng-draw-order",
        "shard-pickle-safety",
        "wire-bounds",
    ]


def test_lint_as_pragma_adopts_module_identity():
    source = textwrap.dedent(
        """
        # repro: lint-as(repro/field/batch.py)
        def f(batch, out):
            for i in range(2):
                out.append(batch.to_ints())
        """
    )
    assert [f.rule for f in analyze_source(source, "anywhere.py")] == [
        "plane-discipline"
    ]
    # without the pragma the same code is out of every scoped target
    stripped = "\n".join(source.splitlines()[2:])
    assert analyze_source(stripped, "anywhere.py") == []


def test_suppression_in_string_literal_is_inert():
    sup = scan_suppressions(
        's = "# repro: allow(*)"\nx = 1  # repro: allow(wire-bounds)\n'
    )
    assert sup.by_line == {2: {"wire-bounds"}}


def test_suppression_block_extends_through_comment_lines():
    sup = scan_suppressions(
        "# repro: allow(plane-discipline) - because\n"
        "# the rationale continues here\n"
        "x = 1\n"
    )
    assert sup.is_suppressed("plane-discipline", 3)
    assert not sup.is_suppressed("plane-discipline", 5)


def test_wildcard_suppression_covers_every_rule():
    source = textwrap.dedent(
        """
        import asyncio

        async def start(self):
            # repro: allow(*) - fixture
            self._q = asyncio.Queue()
        """
    )
    findings = analyze_source(source, "fixture.py")
    assert findings and all(f.suppressed for f in findings)


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = analyze_paths([str(tmp_path)])
    assert result.files_scanned == 0
    assert len(result.errors) == 1 and "broken.py" in result.errors[0][0]


# ---------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "# repro: lint-as(repro/transport/framing.py)\n"
        "def f(n):\n"
        "    return n.to_bytes(4, 'big')\n"
    )
    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    assert main([]) == 2
    assert main([str(clean), "--rules", "no-such-rule"]) == 2
    capsys.readouterr()


def test_cli_json_report(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "# repro: lint-as(repro/transport/framing.py)\n"
        "def f(n):\n"
        "    return n.to_bytes(4, 'big')\n"
    )
    out_file = tmp_path / "report.json"
    code = main([str(dirty), "--format=json", "--output", str(out_file)])
    capsys.readouterr()
    assert code == 1
    report = json.loads(out_file.read_text())
    assert report["n_findings"] == 1
    assert report["findings"][0]["rule"] == "wire-bounds"
    assert report["findings"][0]["line"] == 3


def test_cli_rules_subset(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "# repro: lint-as(repro/transport/framing.py)\n"
        "def f(n):\n"
        "    return n.to_bytes(4, 'big')\n"
    )
    # scoping to an unrelated rule must make the same file pass
    assert main([str(dirty), "--rules", "plane-discipline"]) == 0
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "plane-discipline" in proc.stdout


# ---------------------------------------------------------------------
# whole-tree smoke: the repo itself must lint clean
# ---------------------------------------------------------------------

def test_whole_tree_has_zero_unsuppressed_findings():
    result = analyze_paths([
        str(REPO_ROOT / "src"),
        str(REPO_ROOT / "tests"),
        str(REPO_ROOT / "benchmarks" / "baselines"),
    ])
    assert result.errors == []
    assert result.files_scanned > 100
    offenders = [f.render() for f in result.unsuppressed]
    assert offenders == [], "\n".join(offenders)
    # every suppression in the tree is an annotated intentional
    # exception; if this number drifts, re-audit rather than rubber-
    # stamping (it is a count of exceptions, not a budget)
    assert len(result.suppressed) == 9
